//! Settings come from flags alone. An environment variable named like a
//! flag changes nothing, and an empty directory value is refused rather
//! than resolved to the working directory. So is an empty `--monitor`
//! address, rather than read as "monitor off", and so is a setting the
//! experiment does not read: `--mixes` for an experiment without mixes,
//! `--instructions` or `--seed` for `tab_storage`. `--quick` only picks
//! sizes: a run recorded at the preset is the run recorded at the same
//! explicit sizes.
//!
//! Each test runs its binary in a private working directory, so whatever
//! a run writes shows up there. Most run `tab_storage`, the one binary
//! that simulates nothing.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mab-flags-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tab_storage(cwd: &Path, args: &[&str], env: &[(&str, &OsStr)]) -> Output {
    run(env!("CARGO_BIN_EXE_tab_storage"), cwd, args, env)
}

fn run(exe: &str, cwd: &Path, args: &[&str], env: &[(&str, &OsStr)]) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(cwd);
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"))
}

/// The names of the files `dir` holds.
fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn environment_variables_named_like_flags_change_nothing() {
    let cwd = temp_dir("env");
    let output = tab_storage(
        &cwd,
        &[],
        &[
            ("MAB_LEDGER", cwd.join("ledger").as_os_str()),
            ("MAB_MONITOR", OsStr::new("127.0.0.1:0")),
            ("MAB_CRASH_DIR", cwd.join("crashes").as_os_str()),
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "tab_storage failed: {stderr}");
    assert!(
        !stderr.contains("monitor listening"),
        "MAB_MONITOR started a monitor: {stderr}"
    );
    // No ledger (or anything else) landed in the directory MAB_LEDGER named.
    assert_eq!(entries(&cwd), Vec::<String>::new());
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn an_empty_directory_value_is_a_usage_error() {
    for flag in ["--ledger", "--trace-dir", "--crash-dir", "--monitor"] {
        let cwd = temp_dir("empty");
        let output = tab_storage(&cwd, &[flag, ""], &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} '': {stderr}");
        assert!(stderr.contains(flag), "{flag} '': {stderr}");
        assert!(output.stdout.is_empty(), "{flag} '' ran the experiment");
        assert_eq!(entries(&cwd), Vec::<String>::new(), "{flag} ''");
        std::fs::remove_dir_all(&cwd).ok();
    }
}

#[test]
fn a_setting_the_experiment_does_not_read_is_a_usage_error() {
    let fig08 = env!("CARGO_BIN_EXE_fig08_singlecore");
    let tab_storage = env!("CARGO_BIN_EXE_tab_storage");
    let no_size = "tab_storage takes no instruction count or seed";
    for (exe, flag, value, error) in [
        (fig08, "--mixes", "3", "fig08_singlecore takes no mix cap"),
        (tab_storage, "--seed", "7", no_size),
        (tab_storage, "--instructions", "5000", no_size),
    ] {
        let cwd = temp_dir("unread");
        let output = run(exe, &cwd, &[flag, value], &[]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(error), "{flag}: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} ran the experiment");
        assert_eq!(entries(&cwd), Vec::<String>::new(), "{flag}");
        std::fs::remove_dir_all(&cwd).ok();
    }
}

#[test]
fn quick_and_the_same_explicit_sizes_are_one_ledger_record() {
    // tab_storage reads no size, so `--quick` names the default run.
    for (exe, quick_args, explicit_args) in [
        (
            env!("CARGO_BIN_EXE_tab09_tuneset_smt"),
            &["--quick"][..],
            &["--instructions", "10000", "--mixes", "10"][..],
        ),
        (env!("CARGO_BIN_EXE_tab_storage"), &["--quick"][..], &[][..]),
    ] {
        let cwd = temp_dir("quick-ledger");
        let ledger = ["--ledger", "ledger"];
        let quick = run(exe, &cwd, &[quick_args, &ledger].concat(), &[]);
        assert!(
            quick.status.success(),
            "{}",
            String::from_utf8_lossy(&quick.stderr)
        );
        let explicit = run(exe, &cwd, &[explicit_args, &ledger].concat(), &[]);
        let stderr = String::from_utf8_lossy(&explicit.stderr);
        assert!(explicit.status.success(), "{exe}: {stderr}");
        assert_eq!(quick.stdout, explicit.stdout);
        assert!(stderr.contains("not re-appended"), "{exe}: {stderr}");
        let records = mab_ledger::Ledger::open(cwd.join("ledger"))
            .unwrap()
            .read_all()
            .unwrap()
            .records;
        assert_eq!(records.len(), 1, "{exe}: {records:?}");
        std::fs::remove_dir_all(&cwd).ok();
    }
}
