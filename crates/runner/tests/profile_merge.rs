//! Sweep-wide profile merging is scheduling-independent: `--jobs 1` and
//! `--jobs 8` must produce identical merged span counts.
//!
//! Lives in its own integration-test binary (one process, one test) because
//! profiling is a process-wide switch: unit tests running sweeps in parallel
//! in the same process would deposit their own `run` spans into the merge
//! registry mid-comparison. It needs the probes compiled in
//! (`--features telemetry`) and passes vacuously without them.

use mab_runner::{sweep, SweepOptions};
use mab_telemetry::profile;
use mab_telemetry::span::{self, Category};

fn profile_key(report: &profile::ProfileReport) -> Vec<(String, u64)> {
    // Wall-clock nanoseconds legitimately vary between schedules; the
    // exact counts must not.
    report
        .spans
        .iter()
        .map(|(path, t)| (path.clone(), t.count))
        .collect()
}

#[test]
fn merged_profile_identical_at_jobs_1_and_8() {
    if !mab_telemetry::STATIC_ENABLED {
        return;
    }
    profile::set_enabled(true);

    let specs: Vec<u64> = (0..24).collect();
    let body = |_ctx: mab_runner::RunCtx, spec: &u64| {
        // Span shape depends only on the spec, never on scheduling.
        for _ in 0..(spec % 7) * 10 + 5 {
            let _outer = span::enter(Category::CacheAccess, 0);
            let _inner = span::enter(Category::PrefetchTrain, 0);
        }
        *spec
    };

    profile::reset();
    let serial = sweep(&specs, SweepOptions::new(1, 9), body).unwrap();
    let serial_profile = profile::snapshot();

    profile::reset();
    let parallel = sweep(&specs, SweepOptions::new(8, 9), body).unwrap();
    let parallel_profile = profile::snapshot();

    profile::set_enabled(false);
    profile::reset();

    assert_eq!(serial, parallel);
    assert_eq!(profile_key(&serial_profile), profile_key(&parallel_profile));

    let expected_spans: u64 = specs.iter().map(|s| (s % 7) * 10 + 5).sum();
    assert_eq!(serial_profile.spans["run"].count, specs.len() as u64);
    assert_eq!(
        serial_profile.spans["run;cache_access"].count,
        expected_spans
    );
    assert_eq!(
        serial_profile.spans["run;cache_access;prefetch_train"].count,
        expected_spans
    );
}
