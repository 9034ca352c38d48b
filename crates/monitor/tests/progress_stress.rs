//! Sweep progress stays readable and exact under many parallel sweeps.
//!
//! Every sweep here runs 64 short arms on four workers, so arm completions
//! race each other. After each sweep, `/status` and `/metrics` must answer
//! within the client timeout and report the finished sweep exactly: all 64
//! arms done and the sweep inactive. A progress channel with lost updates
//! fails the counts; one a racing writer can leave torn fails the timeout.
//!
//! One test in its own binary: the monitor follows the newest sweep in the
//! process, so no sibling test may start sweeps concurrently.

use mab_monitor::{client, Monitor, RunInfo, DEFAULT_ADDR};
use mab_runner::{sweep, SweepOptions};
use std::time::Duration;

const SWEEPS: u64 = 5_000;
const ARMS: u64 = 64;
const JOBS: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(5);

/// Per-arm busy work: a few microseconds, enough that the four workers'
/// arm completions overlap instead of one worker draining the sweep.
const SPIN: u64 = 2_000;

fn arm(spec: &u64) -> u64 {
    let mixed = (0..SPIN).fold(*spec, |h, i| h.rotate_left(5) ^ i);
    std::hint::black_box(mixed)
}

fn get(url: &str, path: &str, round: u64) -> String {
    client::get(&format!("{url}/{path}"), TIMEOUT)
        .unwrap_or_else(|e| panic!("sweep {round}: /{path} did not answer: {e}"))
        .body
}

#[test]
fn every_parallel_sweep_reads_back_complete_and_inactive() {
    let monitor = Monitor::start(DEFAULT_ADDR, RunInfo::default()).unwrap();
    let url = monitor.url();
    let specs: Vec<u64> = (0..ARMS).collect();
    for round in 0..SWEEPS {
        sweep(&specs, SweepOptions::new(JOBS, round), |_, spec| arm(spec)).unwrap();

        let status = get(&url, "status", round);
        let sweep_doc = format!("\"sweep\":{{\"active\":false,\"done\":{ARMS},\"total\":{ARMS},");
        assert!(status.contains(&sweep_doc), "sweep {round}: {status}");
        let metrics = get(&url, "metrics", round);
        for line in [
            format!("mab_sweep_arms_total {ARMS}\n"),
            format!("mab_sweep_arms_completed {ARMS}\n"),
            "mab_sweep_active 0\n".to_string(),
        ] {
            assert!(
                metrics.contains(&line),
                "sweep {round}: no {line:?} in\n{metrics}"
            );
        }
    }
    monitor.shutdown();
}
