//! Parallel sweeps must be invisible in the results: any `--jobs` value has
//! to produce byte-identical reports and telemetry-equivalent runs.
//!
//! The stdout comparison drives every experiment binary whose arms run
//! through one sweep reduced in loop order, at tiny sizes, at `--jobs 1`
//! and `--jobs 8`, and requires byte equality. The telemetry test additionally
//! exports both runs' artifacts and checks `mab-inspect` finds nothing to
//! flag — the counters the sweep engine itself maintains are
//! scheduling-invariant by design (see `mab-telemetry`'s `Stat` docs).

use std::process::Command;

/// Runs an experiment binary and returns its stdout; panics loudly on a
/// non-zero exit so CI logs show the failing invocation.
fn stdout_of(exe: &str, args: &[&str]) -> String {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("experiment output is UTF-8")
}

#[test]
fn reports_are_byte_identical_at_any_job_count() {
    // (binary, tiny-size arguments, a line every report prints)
    let experiments: [(&str, &[&str], &str); 14] = [
        (
            env!("CARGO_BIN_EXE_fig02_homogeneity"),
            &["--instructions", "3000"],
            "average: top-1 action",
        ),
        (
            env!("CARGO_BIN_EXE_fig05_pg_space"),
            &["--instructions", "1500", "--mixes", "2"],
            "best-policy gain over Choi",
        ),
        (
            env!("CARGO_BIN_EXE_fig07_exploration"),
            &["--instructions", "3000"],
            "## smt / cactus-lbm",
        ),
        (
            env!("CARGO_BIN_EXE_fig08_singlecore"),
            &["--instructions", "2000"],
            "ALL (gmean)",
        ),
        (
            env!("CARGO_BIN_EXE_fig09_accuracy"),
            &["--instructions", "3000"],
            "bandit-ideal",
        ),
        (
            env!("CARGO_BIN_EXE_fig10_bandwidth"),
            &["--instructions", "3000"],
            "9600",
        ),
        (
            env!("CARGO_BIN_EXE_fig12_multilevel"),
            &["--instructions", "3000"],
            "Stride_Bandit",
        ),
        (
            env!("CARGO_BIN_EXE_fig13_smt_scurve"),
            &["--instructions", "3000", "--mixes", "3"],
            "gmean speedup vs Choi",
        ),
        (
            env!("CARGO_BIN_EXE_fig14_fourcore"),
            &["--instructions", "2000"],
            "ALL (gmean)",
        ),
        (
            env!("CARGO_BIN_EXE_fig15_rename"),
            &["--instructions", "3000", "--mixes", "3"],
            "Bandit",
        ),
        (
            env!("CARGO_BIN_EXE_smt_fairness"),
            &["--instructions", "3000", "--mixes", "4"],
            "x264-mcf",
        ),
        (
            env!("CARGO_BIN_EXE_ablations"),
            &["--instructions", "3000"],
            "on (p=0.001)",
        ),
        (
            env!("CARGO_BIN_EXE_tab08_tuneset_prefetch"),
            &["--instructions", "3000"],
            "gmean",
        ),
        (
            env!("CARGO_BIN_EXE_tab09_tuneset_smt"),
            &["--instructions", "3000", "--mixes", "2"],
            "gmean",
        ),
    ];
    for (exe, args, marker) in experiments {
        let serial = stdout_of(exe, &[args, &["--jobs", "1"]].concat());
        let parallel = stdout_of(exe, &[args, &["--jobs", "8"]].concat());
        assert_eq!(serial, parallel, "{exe} stdout diverged across --jobs");
        assert!(
            serial.contains(marker),
            "{exe} produced no report:\n{serial}"
        );
    }
}

/// The pipelined four-core batch driver behind fig. 14 is a scheduling
/// optimization only: on identically built systems it must hand back the
/// exact per-core stats of plain per-record sequential stepping.
#[test]
fn fourcore_pipelined_run_matches_sequential_stepping() {
    use mab_memsim::{config::SystemConfig, system::RunStats, System};
    use mab_prefetch::catalog;
    use mab_workloads::{suites, TraceRecord};

    const SEED: u64 = 11;
    const INSTRUCTIONS: u64 = 20_000;
    let app = suites::app_by_name("milc").expect("catalog app");
    let run = |sequential: bool| -> Vec<RunStats> {
        let mut system = System::multi_core(SystemConfig::default(), 4);
        for core in 0..4 {
            system.set_prefetcher(core, catalog::build_l2("bandit", SEED + core as u64));
        }
        let mut traces: Vec<_> = (0..4).map(|i| app.trace(SEED + i)).collect();
        let mut dyn_traces: Vec<&mut dyn Iterator<Item = TraceRecord>> = traces
            .iter_mut()
            .map(|t| t as &mut dyn Iterator<Item = TraceRecord>)
            .collect();
        if sequential {
            system.run_multi_sequential(&mut dyn_traces, INSTRUCTIONS)
        } else {
            system.run_multi(&mut dyn_traces, INSTRUCTIONS)
        }
    };
    assert_eq!(
        run(false),
        run(true),
        "pipelined four-core driver diverged from sequential stepping"
    );
}

/// With telemetry compiled in, the exported artifacts of a 1-job and an
/// 8-job run must be equivalent: identical counters and no metric delta
/// under `mab-inspect`'s diff.
#[cfg(feature = "telemetry")]
#[test]
fn telemetry_artifacts_are_equivalent_at_any_job_count() {
    use mab_inspect::artifact::RunArtifact;
    use mab_inspect::diff::{diff_artifacts, has_regression};

    let dir = std::env::temp_dir().join("mab-determinism-test");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = env!("CARGO_BIN_EXE_fig13_smt_scurve");
    let mut artifacts = Vec::new();
    for jobs in ["1", "8"] {
        let path = dir.join(format!("jobs{jobs}.jsonl"));
        stdout_of(
            exe,
            &[
                "--instructions",
                "3000",
                "--mixes",
                "3",
                "--jobs",
                jobs,
                "--telemetry",
                path.to_str().unwrap(),
            ],
        );
        artifacts.push(RunArtifact::load(&[path]).expect("artifact loads"));
    }
    let (serial, parallel) = (&artifacts[0], &artifacts[1]);
    assert_eq!(
        serial.counters, parallel.counters,
        "counter export depends on the worker count"
    );
    let deltas = diff_artifacts(serial, parallel, 1e-9);
    assert!(!deltas.is_empty(), "runs shared no metrics to compare");
    assert!(
        !has_regression(&deltas),
        "mab-inspect flagged deltas between job counts: {deltas:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
