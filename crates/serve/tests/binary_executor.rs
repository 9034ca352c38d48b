//! `BinaryExecutor` hands its child every setting as a flag: `--quiet`, and
//! `--crash-dir` with the job's crash directory, after the spec's own
//! arguments. A stub "experiment binary" that prints its argv shows what
//! the child receives.

#![cfg(unix)]

use mab_experiments::spec::{self, RunSpec};
use mab_serve::{BinaryExecutor, Executor};
use std::os::unix::fs::PermissionsExt;

#[test]
fn the_child_gets_quiet_and_the_job_crash_dir_as_flags() {
    let bin_dir = std::env::temp_dir().join(format!("mab-serve-exec-it-{}", std::process::id()));
    std::fs::remove_dir_all(&bin_dir).ok();
    std::fs::create_dir_all(&bin_dir).unwrap();
    let def = spec::find("fig08_singlecore").unwrap();
    let spec = RunSpec::resolve(def, None, 7, None, true);
    let stub = bin_dir.join(&spec.experiment);
    std::fs::write(
        &stub,
        "#!/bin/sh\nfor arg in \"$@\"; do echo \"$arg\"; done\n",
    )
    .unwrap();
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).unwrap();

    let executor = BinaryExecutor {
        bin_dir: bin_dir.clone(),
    };
    let job_dir = bin_dir.join("crashes/job-3");
    let argv = executor.run(&spec, &job_dir).expect("stub runs");
    let mut want = spec.cli_args();
    want.extend([
        "--quiet".to_string(),
        "--crash-dir".to_string(),
        job_dir.display().to_string(),
    ]);
    assert_eq!(argv.lines().collect::<Vec<_>>(), want);
    std::fs::remove_dir_all(&bin_dir).ok();
}
