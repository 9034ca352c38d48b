//! End-to-end crash forensics: a panic injected mid-sweep into a real
//! experiment binary must produce a CRC-valid `.mabcrash` report that
//! names the failing arm and carries the bandit decisions leading up to
//! the crash — and on a *clean* run the always-on recorder must leave the
//! experiment's stdout byte-for-byte untouched.

use mab_telemetry::blackbox;
use mab_telemetry::json::JsonValue;
use std::path::PathBuf;
use std::process::Command;

/// The lineup sweep orders arms `none, stride, bingo, mlop, pythia,
/// bandit` per app — index 5 is the first *bandit* arm, the one whose run
/// fills the ring with decision events.
const BANDIT_ARM: &str = "5";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-crash-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn injected_panic_dumps_a_report_naming_the_arm_and_its_decisions() {
    let crash_dir = temp_dir("inject");
    let exe = env!("CARGO_BIN_EXE_fig08_singlecore");
    let output = Command::new(exe)
        .args(["--quick", "--quiet", "--crash-dir"])
        .arg(&crash_dir)
        .env("MAB_TEST_PANIC_ARM", BANDIT_ARM)
        .env_remove("MAB_BLACKBOX")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        !output.status.success(),
        "injected panic did not fail the run"
    );

    // The injected panic dumps a report; the driver's follow-up "sweep
    // failed" panic may dump a second. Every report on disk must be
    // CRC-valid and parseable; exactly one is the injected one.
    let mut reports: Vec<PathBuf> = std::fs::read_dir(&crash_dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mabcrash"))
        .collect();
    reports.sort();
    assert!(!reports.is_empty(), "no .mabcrash report was written");
    let parsed: Vec<_> = reports
        .iter()
        .map(|p| blackbox::read_report(p).unwrap_or_else(|e| panic!("unreadable report: {e}")))
        .collect();
    // Match on the message *prefix*: the driver's follow-up panic embeds
    // the injected message inside its own ("sweep failed: arm 5
    // panicked: injected test panic ..."), so `contains` would match both.
    let injected: Vec<_> = parsed
        .iter()
        .filter(|r| r.message.starts_with("injected test panic"))
        .collect();
    assert_eq!(
        injected.len(),
        1,
        "expected exactly one injected-panic report"
    );
    let report = injected[0];

    assert_eq!(report.cause, "panic");
    assert_eq!(report.experiment, "fig08_singlecore");
    assert!(
        !report.digest.is_empty(),
        "report missing the config digest"
    );
    assert!(
        report
            .config
            .iter()
            .any(|(k, v)| k == "quick" && v == "true"),
        "config snapshot missing: {:?}",
        report.config
    );
    assert!(report.cpus >= 1);

    // The failing arm is named: the lineup's bandit arm, with the seed the
    // sweep dealt it, and the sweep progress shows it mid-flight.
    let (index, seed) = report.arm.expect("report does not name the failing arm");
    assert_eq!(index, 5);
    assert!(seed != 0, "failing arm's seed missing");
    let (done, total, active) = report.sweep.expect("sweep progress missing");
    assert!(active, "sweep should still be active at crash time");
    assert!(done < total, "crash arm cannot already be complete");

    // The flight recorder preserved the bandit's recent history: at least
    // the last 8 decisions, each with a q-value and selection bound (`null`
    // for an arm with no pulls yet, whose bound is infinite).
    let decisions = report.last_decisions();
    assert!(
        decisions.len() >= 8,
        "only {} decisions in the ring",
        decisions.len()
    );
    for d in &decisions {
        let field = |key| d.fields.get(key);
        assert!(field("q").and_then(JsonValue::as_f64).is_some());
        assert!(matches!(
            field("bound"),
            Some(JsonValue::Null | JsonValue::Int(_) | JsonValue::Num(_))
        ));
        assert!(field("arm").and_then(JsonValue::as_u64).is_some());
    }
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// The recorder is on by default in every experiment run, so it must be
/// invisible on the happy path: identical stdout with the blackbox armed
/// and with `MAB_BLACKBOX=0`.
#[test]
fn clean_run_stdout_is_byte_identical_with_recorder_on_and_off() {
    let crash_dir = temp_dir("clean");
    let exe = env!("CARGO_BIN_EXE_fig08_singlecore");
    let run = |blackbox_env: Option<&str>| -> String {
        let mut cmd = Command::new(exe);
        cmd.args(["--instructions", "2000", "--mixes", "2", "--crash-dir"])
            .arg(&crash_dir)
            .env_remove("MAB_TEST_PANIC_ARM");
        match blackbox_env {
            Some(v) => cmd.env("MAB_BLACKBOX", v),
            None => cmd.env_remove("MAB_BLACKBOX"),
        };
        let output = cmd.output().unwrap();
        assert!(
            output.status.success(),
            "clean run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let recorded = run(None);
    let disabled = run(Some("0"));
    assert!(
        recorded.contains("Fig. 8"),
        "run produced no report:\n{recorded}"
    );
    assert_eq!(
        recorded, disabled,
        "flight recorder changed experiment stdout"
    );
    // And a clean run leaves no crash reports behind.
    let leftovers = std::fs::read_dir(&crash_dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mabcrash"))
        .count();
    assert_eq!(leftovers, 0, "clean run wrote a crash report");
    std::fs::remove_dir_all(&crash_dir).ok();
}
