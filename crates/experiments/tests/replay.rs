//! Record/replay acceptance: running an experiment with `--trace-dir` must
//! produce a report byte-identical to generator mode — first while
//! recording (cold cache) and again while replaying (warm cache) — for the
//! memory-hierarchy path (fig02, fig09, fig12) and the SMT path (fig13),
//! with sweep workers that first use one trace together.

use std::path::PathBuf;
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-replay-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `exe` in generator mode, then twice with `--trace-dir` on a fresh
/// directory (recording, then replaying), and requires both trace-dir
/// reports to equal the generated one byte for byte.
fn assert_replay_matches_generator(tag: &str, exe: &str, args: &[&str]) {
    let dir = fresh_dir(tag);
    let generated = stdout_of(exe, args);
    let trace_args = [args, &["--trace-dir", dir.to_str().unwrap()]].concat();
    let recording = stdout_of(exe, &trace_args);
    assert_eq!(
        generated, recording,
        "{tag} report changed while recording traces"
    );
    let mabt_files = std::fs::read_dir(&dir)
        .expect("trace dir exists")
        .filter(|e| e.as_ref().unwrap().path().extension().map(|x| x == "mabt") == Some(true))
        .count();
    assert!(mabt_files > 0, "{tag}'s recording run wrote no .mabt files");
    let replaying = stdout_of(exe, &trace_args);
    assert_eq!(
        generated, replaying,
        "{tag} report changed when replaying recorded traces"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig09_replay_report_is_byte_identical_to_generator_mode() {
    let exe = env!("CARGO_BIN_EXE_fig09_accuracy");
    assert_replay_matches_generator("fig09", exe, &["--instructions", "4000"]);
}

#[test]
fn fig13_replay_report_is_byte_identical_to_generator_mode() {
    let exe = env!("CARGO_BIN_EXE_fig13_smt_scurve");
    let args = ["--instructions", "3000", "--mixes", "3", "--jobs", "4"];
    assert_replay_matches_generator("fig13", exe, &args);
}

#[test]
fn fig02_replay_report_is_byte_identical_to_generator_mode() {
    let exe = env!("CARGO_BIN_EXE_fig02_homogeneity");
    assert_replay_matches_generator("fig02", exe, &["--instructions", "4000"]);
}

/// Four workers start on the first app's arms at once, so they all first
/// use its trace together: the store must record it once, not crash.
#[test]
fn fig12_cold_recording_at_four_jobs_matches_generator_mode() {
    let exe = env!("CARGO_BIN_EXE_fig12_multilevel");
    let args = ["--instructions", "4000", "--jobs", "4"];
    assert_replay_matches_generator("fig12", exe, &args);
}

#[test]
fn replay_tolerates_a_shorter_cached_trace() {
    // A cache recorded at a shorter run length must be transparently
    // re-recorded (mem) or extended by the generator (smt), still with a
    // byte-identical report.
    let exe = env!("CARGO_BIN_EXE_fig13_smt_scurve");
    let dir = fresh_dir("short");
    let short = [
        "--instructions",
        "1000",
        "--mixes",
        "2",
        "--trace-dir",
        dir.to_str().unwrap(),
    ];
    stdout_of(exe, &short);
    let long = ["--instructions", "3000", "--mixes", "2"];
    let generated = stdout_of(exe, &long);
    let replayed = stdout_of(
        exe,
        &[&long[..], &["--trace-dir", dir.to_str().unwrap()]].concat(),
    );
    assert_eq!(
        generated, replayed,
        "longer run over a short trace cache diverged from generator mode"
    );
    std::fs::remove_dir_all(&dir).ok();
}
