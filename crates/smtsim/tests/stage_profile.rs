//! The SMT stage spans account for the time the simulated cycles took.
//!
//! One test in its own binary: the profiler is process-global, and the
//! wall-time bound below only holds with no sibling test threads sharing
//! the process. It needs the probes compiled in (`--features telemetry`)
//! and passes vacuously without them.

use mab_smtsim::{BanditController, SmtParams, SmtPipeline};
use mab_telemetry::profile;
use mab_workloads::smt::thread_by_name;
use std::time::Instant;

#[test]
fn stage_spans_sum_to_at_most_the_run_wall_time() {
    if !mab_telemetry::STATIC_ENABLED {
        return;
    }
    profile::reset();
    profile::set_enabled(true);
    let specs = [
        thread_by_name("gcc").unwrap(),
        thread_by_name("mcf").unwrap(),
    ];
    let params = SmtParams {
        epoch_cycles: 1024,
        ..SmtParams::default()
    };
    let mut pipe = SmtPipeline::new(params, specs, 42);
    let mut controller = BanditController::paper_default(42);
    let wall_ns = profile::collect_run(|| {
        let start = Instant::now();
        pipe.run_with(&mut controller, 100_000);
        start.elapsed().as_nanos() as u64
    });
    profile::set_enabled(false);

    let report = profile::snapshot();
    let stages: u64 = ["commit", "issue", "rename", "fetch"]
        .iter()
        .map(|stage| report.spans[&format!("run;{stage}")].total_ns)
        .sum();
    assert!(
        stages <= wall_ns,
        "stage spans {stages} ns exceed the run's wall time {wall_ns} ns"
    );
    assert!(
        stages * 2 >= wall_ns,
        "stage spans {stages} ns cover less than half the run's wall time {wall_ns} ns"
    );
}
