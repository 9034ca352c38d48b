//! Scheduling invariance of run-ledger records: a sweep recorded at
//! `--jobs 8` must produce the same RunRecord as at `--jobs 1`, modulo
//! wall-time fields (`wall_ms`, per-arm `wall_ns`) and the recorded `jobs`
//! itself — `RunRecord::same_outcome` is exactly that comparison.
//!
//! This lives in its own integration-test binary on purpose: the arm
//! observer and telemetry recorder are process-global, so no other test
//! may run sweeps in this process while a ledger session is active.

use mab_experiments::cli::Options;
use mab_experiments::session::TelemetrySession;
use mab_ledger::{Append, Ledger};
use mab_runner::{sweep, SweepOptions};
use std::path::{Path, PathBuf};

fn options(ledger: &Path, jobs: usize) -> Options {
    Options {
        instructions: 1000,
        seed: 9,
        mixes: 4,
        jobs,
        telemetry: None,
        trace: None,
        trace_dir: None,
        profile: None,
        ledger: Some(ledger.to_path_buf()),
        monitor: None,
        crash_dir: None,
        quiet: true,
    }
}

/// One "experiment": two sweeps (like a bin sweeping two tables) doing a
/// little deterministic work per arm.
fn run_experiment(ledger: &Path, jobs: usize) {
    let opts = options(ledger, jobs);
    let session = TelemetrySession::start("ledger_jobs_it", &opts);
    for sweep_no in 0..2u64 {
        let specs: Vec<u64> = (0..24).map(|i| i + 100 * sweep_no).collect();
        let results = sweep(&specs, SweepOptions::new(jobs, opts.seed), |ctx, spec| {
            // Touch the recorder so metrics have content under
            // `--features telemetry`; counter sums are order-independent.
            mab_telemetry::count!(ArmPulls);
            ctx.seed.wrapping_mul(*spec)
        })
        .unwrap();
        assert_eq!(results.len(), specs.len());
    }
    session.finish();
}

fn read_single_record(dir: &Path) -> mab_ledger::RunRecord {
    let out = Ledger::open(dir).unwrap().read_all().unwrap();
    assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    assert_eq!(out.records.len(), 1, "expected one record in {dir:?}");
    out.records.into_iter().next().unwrap()
}

#[test]
fn jobs_1_and_jobs_8_produce_the_same_ledger_record() {
    let base = std::env::temp_dir().join(format!("mab-ledger-jobs-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let serial_dir: PathBuf = base.join("serial");
    let parallel_dir: PathBuf = base.join("parallel");

    run_experiment(&serial_dir, 1);
    run_experiment(&parallel_dir, 8);

    let serial = read_single_record(&serial_dir);
    let parallel = read_single_record(&parallel_dir);

    // Identity is identical: jobs is a circumstance, not config.
    assert_eq!(serial.digest(), parallel.digest());
    // Outcome is identical modulo timing: same config, same metrics, same
    // (sweep, index, seed) arm set.
    assert!(
        serial.same_outcome(&parallel),
        "serial={serial:?}\nparallel={parallel:?}"
    );
    assert_eq!(serial.arms.len(), 48);
    assert_eq!(
        serial
            .arms
            .iter()
            .map(|a| (a.sweep, a.index, a.seed))
            .collect::<Vec<_>>(),
        parallel
            .arms
            .iter()
            .map(|a| (a.sweep, a.index, a.seed))
            .collect::<Vec<_>>(),
    );
    // Arms arrive normalized and sorted regardless of completion order.
    assert!(serial
        .arms
        .windows(2)
        .all(|w| (w[0].sweep, w[0].index) < (w[1].sweep, w[1].index)));

    // Recording the parallel run into the serial ledger is a no-op append:
    // the record is already there with an identical outcome.
    let ledger = Ledger::open(&serial_dir).unwrap();
    assert!(matches!(
        ledger.record(&parallel).unwrap(),
        Append::Deduplicated(_)
    ));
    assert_eq!(ledger.read_all().unwrap().records.len(), 1);

    std::fs::remove_dir_all(&base).ok();
}
