//! The memsim stage leaves account for the time a run took.
//!
//! One test in its own binary: the profiler is process-global, and the
//! wall-time bounds below only hold with no sibling test threads sharing
//! the process. It needs the probes compiled in (`--features telemetry`)
//! and passes vacuously without them.

use mab_memsim::{System, SystemConfig};
use mab_prefetch::BanditL2;
use mab_telemetry::profile;
use mab_workloads::suites;
use std::time::Instant;

#[test]
fn stage_leaves_sum_to_most_of_the_run_wall_time() {
    if !mab_telemetry::STATIC_ENABLED {
        return;
    }
    profile::reset();
    profile::set_enabled(true);
    let instructions = 500_000;
    let mut trace = suites::app_by_name("lbm").unwrap().trace(42);
    let mut sys = System::single_core(SystemConfig::default());
    sys.set_prefetcher(0, Box::new(BanditL2::paper_default(42)));
    let wall_ns = profile::collect_run(|| {
        let start = Instant::now();
        sys.run(&mut trace, instructions);
        start.elapsed().as_nanos() as u64
    });
    profile::set_enabled(false);

    let report = profile::snapshot();
    let stages: u64 = [
        "record",
        "core",
        "cache_fill",
        "l1",
        "cache_access",
        "mshr",
        "dram_queue",
        "prefetch_train:bandit",
        "prefetch_issue:bandit",
    ]
    .iter()
    .map(|stage| {
        let totals = report.spans[&format!("run;{stage}")];
        assert_eq!(totals.count, instructions, "{stage} covers every step");
        totals.total_ns
    })
    .sum();
    assert!(
        stages <= wall_ns,
        "stage leaves {stages} ns exceed the run's wall time {wall_ns} ns"
    );
    assert!(
        stages * 10 >= wall_ns * 9,
        "stage leaves {stages} ns cover less than 90% of the run's wall time {wall_ns} ns"
    );
}
