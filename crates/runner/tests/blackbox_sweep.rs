//! The black box's sweep line survives many parallel sweeps: after 5,000
//! sweeps of 64 arms on four workers, a crash dump still returns promptly
//! and reports the last sweep complete.
//!
//! One test in its own binary: the black box is process-global (its panic
//! hook, context and sweep line), and the sweep line follows the newest
//! sweep in the process.

use mab_runner::{sweep, SweepOptions};
use mab_telemetry::blackbox;
use std::sync::mpsc;
use std::time::Duration;

const SWEEPS: u64 = 5_000;
const ARMS: u64 = 64;
const JOBS: usize = 4;
/// Per-arm busy work: a few microseconds, enough that the four workers'
/// arm completions overlap instead of one worker draining the sweep.
const SPIN: u64 = 2_000;

fn arm(spec: &u64) -> u64 {
    let mixed = (0..SPIN).fold(*spec, |h, i| h.rotate_left(5) ^ i);
    std::hint::black_box(mixed)
}

#[test]
fn dump_after_many_parallel_sweeps_is_prompt_and_complete() {
    let dir = std::env::temp_dir().join(format!("mab-runner-blackbox-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // The recorder is on unless `MAB_BLACKBOX` turns it off; this test
    // needs it on.
    std::env::remove_var("MAB_BLACKBOX");
    assert!(blackbox::install("blackbox_sweep", "feedface", &[], &dir));

    let specs: Vec<u64> = (0..ARMS).collect();
    for round in 0..SWEEPS {
        sweep(&specs, SweepOptions::new(JOBS, round), |_, spec| arm(spec)).unwrap();
    }

    // Dump on a helper thread, so a dump that never returns fails the test
    // instead of hanging it.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        tx.send(blackbox::dump("test", "after the sweeps", None, false))
            .ok();
    });
    let dumped = rx.recv_timeout(Duration::from_secs(5));
    // A failed check below panics, and the panic hook would dump again on
    // this thread: turn the recorder off first.
    blackbox::set_enabled(false);
    let path = dumped
        .expect("blackbox::dump did not return within 5 s")
        .expect("the dump wrote no report");
    let report = blackbox::read_report(&path).unwrap();
    assert_eq!(report.sweep, Some((ARMS, ARMS, false)));
    std::fs::remove_dir_all(&dir).ok();
}
