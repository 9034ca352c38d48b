//! Arm execution strategies.
//!
//! The daemon's unit of work is "produce the stdout of one experiment
//! binary for one resolved [`RunSpec`]". The default [`BinaryExecutor`]
//! does exactly that — it spawns the experiment binary as a subprocess
//! with the spec's argv and captures stdout — which makes the
//! byte-identity guarantee *structural*: the served artifact IS the
//! binary's output, not a reimplementation of it. Subprocesses also
//! isolate the process-global telemetry state that concurrent in-process
//! runs would trample.
//!
//! Tests and benchmarks inject their own [`Executor`] implementations
//! (counting stubs, synthetic workloads) to exercise the queue, cache and
//! scheduler without paying for real simulations.

use mab_experiments::spec::RunSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Produces the report (stdout) for one resolved arm.
pub trait Executor: Send + Sync {
    /// Runs `spec` to completion on the calling worker thread.
    ///
    /// `crash_dir` is where the execution should leave a `.mabcrash`
    /// flight-recorder report if it dies: the daemon passes the job's own
    /// directory, so crashes attribute back to the owning job. Executors
    /// that cannot crash out-of-process may ignore it.
    ///
    /// # Errors
    ///
    /// A human-readable failure message (spawn failure, non-zero exit,
    /// unreadable output).
    fn run(&self, spec: &RunSpec, crash_dir: &Path) -> Result<String, String>;
}

/// Runs arms by spawning the experiment binaries found in `bin_dir`.
#[derive(Debug, Clone)]
pub struct BinaryExecutor {
    /// Directory holding the experiment binaries (typically the directory
    /// `mab-serve` itself runs from).
    pub bin_dir: PathBuf,
}

impl BinaryExecutor {
    /// An executor using the directory of the current executable — the
    /// right default when `mab-serve` is deployed next to the experiment
    /// binaries (as `cargo build` lays them out).
    pub fn next_to_current_exe() -> BinaryExecutor {
        let bin_dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("."));
        BinaryExecutor { bin_dir }
    }
}

impl Executor for BinaryExecutor {
    fn run(&self, spec: &RunSpec, crash_dir: &Path) -> Result<String, String> {
        let program = self.bin_dir.join(&spec.experiment);
        // Quiet progress lines; the child records no ledger and serves no
        // monitor, since the daemon does its own recording. Its flight
        // recorder writes to the per-job crash directory, so a panic or
        // fatal signal leaves an attributable report.
        let output = Command::new(&program)
            .args(spec.cli_args())
            .arg("--quiet")
            .arg("--crash-dir")
            .arg(crash_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("spawn {} failed: {e}", program.display()))?;
        if !output.status.success() {
            return Err(format!("{} exited with {}", spec.experiment, output.status));
        }
        String::from_utf8(output.stdout)
            .map_err(|e| format!("reading {} stdout failed: {e}", spec.experiment))
    }
}
