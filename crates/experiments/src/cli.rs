//! Minimal command-line parsing shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! - `--instructions N` — instructions to simulate per core (prefetching)
//!   or commits per thread (SMT), accepted by the 15 experiments that
//!   simulate; `tab_storage`, which simulates nothing, refuses it as a
//!   usage error,
//! - `--seed S` — the base RNG seed (default 42), accepted by the same 15,
//! - `--mixes N` — cap on the number of workload mixes, accepted only by
//!   the five experiments that read one (fig05, fig13, fig15,
//!   smt_fairness, tab09); the others refuse it as a usage error,
//! - `--quick` — a fast smoke-test preset: the sizes a run starts from
//!   before explicit `--instructions` and `--mixes` values, which win
//!   wherever `--quick` sits,
//! - `--jobs N` — worker threads for the experiment's sweep (default: all
//!   available cores; results are identical at any setting),
//! - `--telemetry PATH` — export the telemetry recorder at exit as JSON
//!   lines,
//! - `--trace PATH` — export the decision trace at exit (`.json` → Perfetto
//!   Chrome-trace JSON, anything else → decision JSONL for `mab-inspect`),
//! - `--trace-dir DIR` — record workload instruction streams to `.mabt`
//!   files under DIR on first use and replay them afterwards; reports are
//!   byte-identical to generator mode (see `mab_experiments::traces`),
//! - `--profile PATH` — write a collapsed-stack span profile of the run
//!   (`path;path count` lines, flamegraph-tool compatible),
//! - `--ledger DIR` — append a run record (config digest, wall time, key
//!   stats, artifact pointers) to the append-only run ledger under DIR,
//! - `--monitor ADDR` — serve live `/metrics`, `/status` and `/events`
//!   endpoints on ADDR for the duration of the run,
//! - `--quiet` — suppress `[mab]` stderr progress lines,
//! - `--crash-dir DIR` — where black-box crash reports land,
//! - `--help`.
//!
//! Settings come from flags alone: no environment variable stands in for
//! one. An empty directory value is a usage error, since it would resolve
//! to the working directory, and so is an empty `--monitor` address:
//! leaving the flag out is the one way to keep the monitor off.

use crate::spec::{ExperimentDef, RunSpec};
use std::path::PathBuf;

/// Parsed common options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Instructions per core / commits per thread.
    pub instructions: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Cap on the number of mixes in sweep experiments; 0 for an
    /// experiment without mixes.
    pub mixes: usize,
    /// Worker threads for the experiment's sweep. Sweeps are deterministic:
    /// any value produces bit-identical reports (see `mab-runner`).
    pub jobs: usize,
    /// Where to export the telemetry recorder at exit, if anywhere.
    pub telemetry: Option<PathBuf>,
    /// Where to export the decision trace at exit, if anywhere.
    pub trace: Option<PathBuf>,
    /// Workload-trace record/replay cache directory (`--trace-dir`).
    pub trace_dir: Option<PathBuf>,
    /// Where to write the collapsed-stack span profile at exit, if anywhere.
    pub profile: Option<PathBuf>,
    /// Run-ledger directory (`--ledger`): append a run record there at
    /// exit, if set.
    pub ledger: Option<PathBuf>,
    /// Live-monitor bind address (`--monitor`), e.g.
    /// `127.0.0.1:9464` (port `0` picks an ephemeral port). `None` keeps
    /// the monitor off.
    pub monitor: Option<String>,
    /// Suppress `[mab]` stderr progress lines (`--quiet`).
    pub quiet: bool,
    /// Where crash reports land (`--crash-dir`). `None`
    /// uses the default (`results/crashes`); the directory is only created
    /// if a crash actually happens.
    pub crash_dir: Option<PathBuf>,
}

impl Options {
    /// Parses `std::env::args` for a registered experiment against its
    /// registry entry ([`crate::spec::EXPERIMENTS`]), so binaries and the
    /// `mab-serve` daemon resolve identical specs.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the registry — a workspace bug, since
    /// every experiment binary must be registered. Prints usage and exits
    /// the process on `--help` or malformed input — appropriate for a
    /// binary entry point.
    pub fn parse_experiment(name: &str) -> Options {
        let def = crate::spec::find(name)
            .unwrap_or_else(|| panic!("experiment {name:?} missing from spec::EXPERIMENTS"));
        Options::parse_from(std::env::args().skip(1), def)
    }

    /// Testable parser core: collects the flags, then resolves the run's
    /// settings for `def` through [`RunSpec::resolve`], whose refusal (a
    /// setting the experiment does not read) is a usage error.
    pub fn parse_from(mut args: impl Iterator<Item = String>, def: &ExperimentDef) -> Options {
        let (mut instructions, mut seed, mut mixes, mut quick) = (None, None, None, false);
        let mut opts = Options {
            instructions: 0,
            seed: 0,
            mixes: 0,
            jobs: mab_runner::available_jobs(),
            telemetry: None,
            trace: None,
            trace_dir: None,
            profile: None,
            ledger: None,
            monitor: None,
            quiet: false,
            crash_dir: None,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--instructions" | "-n" => {
                    instructions = Some(number(args.next(), "--instructions"));
                }
                "--seed" | "-s" => seed = Some(number(args.next(), "--seed")),
                "--mixes" | "-m" => mixes = Some(number(args.next(), "--mixes")),
                "--jobs" | "-j" => {
                    opts.jobs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage("--jobs needs a positive number"));
                }
                "--telemetry" | "-t" => opts.telemetry = Some(path_arg(args.next(), "--telemetry")),
                "--trace" => opts.trace = Some(path_arg(args.next(), "--trace")),
                "--trace-dir" => opts.trace_dir = Some(dir_arg(args.next(), "--trace-dir")),
                "--profile" => opts.profile = Some(path_arg(args.next(), "--profile")),
                "--ledger" => opts.ledger = Some(dir_arg(args.next(), "--ledger")),
                "--monitor" => {
                    opts.monitor = Some(
                        args.next()
                            .filter(|addr| !addr.is_empty())
                            .unwrap_or_else(|| usage("--monitor needs an address (host:port)")),
                    );
                }
                "--crash-dir" => opts.crash_dir = Some(dir_arg(args.next(), "--crash-dir")),
                "--quiet" => opts.quiet = true,
                "--quick" | "-q" => quick = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        let spec =
            RunSpec::resolve(def, instructions, seed, mixes, quick).unwrap_or_else(|e| usage(&e));
        opts.instructions = spec.instructions;
        opts.seed = spec.seed;
        opts.mixes = spec.mixes;
        opts
    }
}

/// A numeric flag's value; a missing or malformed one is a usage error.
fn number<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

/// A path flag's value; a missing one is a usage error.
fn path_arg(value: Option<String>, flag: &str) -> PathBuf {
    PathBuf::from(value.unwrap_or_else(|| usage(&format!("{flag} needs a path"))))
}

/// A directory flag's value. A missing or empty value is a usage error: an
/// empty path resolves to the working directory, which no flag means.
fn dir_arg(value: Option<String>, flag: &str) -> PathBuf {
    match value {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => usage(&format!("{flag} needs a non-empty directory")),
    }
}

fn usage<T>(error: &str) -> T {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: <experiment> [--instructions N] [--seed S] [--mixes N] [--quick]\n\
         \x20                   [--jobs N] [--telemetry PATH] [--trace PATH]\n\
         \n\
         --instructions N  instructions per core / commits per thread (not\n\
         \x20                 tab_storage, which simulates nothing)\n\
         --seed S          base RNG seed (default 42; not tab_storage)\n\
         --mixes N         cap on workload mixes (fig05, fig13, fig15,\n\
         \x20                 smt_fairness and tab09 only)\n\
         --quick           10x smaller preset for smoke tests; explicit\n\
         \x20                 --instructions and --mixes win in any order\n\
         --jobs N          worker threads for sweeps (default: all cores;\n\
         \x20                 results are identical at any setting)\n\
         --telemetry PATH  export telemetry at exit as JSON lines (needs the\n\
         \x20                 `telemetry` cargo feature)\n\
         --trace PATH      export the decision trace at exit (.json -> Perfetto\n\
         \x20                 Chrome-trace JSON, else decision JSONL for\n\
         \x20                 mab-inspect; needs the `telemetry` cargo feature)\n\
         --trace-dir DIR   record workload streams to .mabt files under DIR and\n\
         \x20                 replay them on later runs; output is byte-identical\n\
         \x20                 to generator mode\n\
         --profile PATH    write a collapsed-stack span profile at exit\n\
         \x20                 (`path;path count` lines for flamegraph tools;\n\
         \x20                 needs the `telemetry` cargo feature)\n\
         --ledger DIR      append a run record (config digest, wall time, key\n\
         \x20                 stats, artifact pointers) to the run ledger under\n\
         \x20                 DIR; query it with mab-inspect history/trend/regress\n\
         --monitor ADDR    serve live /metrics, /status and /events endpoints\n\
         \x20                 on ADDR (host:port; port 0 picks one) for the\n\
         \x20                 duration of the run; watch it with mab-inspect watch\n\
         --quiet           suppress [mab] stderr progress lines\n\
         --crash-dir DIR   where black-box crash reports (.mabcrash) land on a\n\
         \x20                 panic or fatal signal (default results/crashes;\n\
         \x20                 MAB_BLACKBOX=0 disables the flight recorder;\n\
         \x20                 inspect reports with mab-inspect postmortem)\n\
         \n\
         DIR and ADDR values must be non-empty."
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An experiment with mixes, for the parser alone.
    const DEF: ExperimentDef = ExperimentDef {
        name: "cli_test",
        default_instructions: 1_000_000,
        default_mixes: 40,
    };

    fn parse(args: &[&str]) -> Options {
        Options::parse_from(args.iter().map(|s| s.to_string()), &DEF)
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]);
        assert_eq!(o.instructions, 1_000_000);
        assert_eq!(o.seed, 42);
        assert_eq!(o.mixes, 40);
    }

    #[test]
    fn explicit_values_override() {
        let o = parse(&["--instructions", "5000", "--seed", "7", "--mixes", "3"]);
        assert_eq!(o.instructions, 5000);
        assert_eq!(o.seed, 7);
        assert_eq!(o.mixes, 3);
    }

    #[test]
    fn quick_scales_down() {
        let o = parse(&["--quick"]);
        assert_eq!(o.instructions, 100_000);
        assert_eq!(o.mixes, 10);
        let o = parse(&["--mixes", "3", "--quick"]);
        assert_eq!((o.instructions, o.mixes), (100_000, 3));
    }

    #[test]
    fn short_flags_work() {
        let o = parse(&["-n", "123456", "-s", "9"]);
        assert_eq!(o.instructions, 123_456);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn jobs_defaults_to_available_parallelism() {
        let o = parse(&[]);
        assert_eq!(o.jobs, mab_runner::available_jobs());
        assert!(o.jobs >= 1);
    }

    #[test]
    fn jobs_flag_overrides() {
        assert_eq!(parse(&["--jobs", "4"]).jobs, 4);
        assert_eq!(parse(&["-j", "2"]).jobs, 2);
    }

    #[test]
    fn telemetry_path_is_captured() {
        let o = parse(&["--telemetry", "out/run.jsonl"]);
        assert_eq!(o.telemetry, Some(PathBuf::from("out/run.jsonl")));
        let o = parse(&["-t", "run.jsonl"]);
        assert_eq!(o.telemetry, Some(PathBuf::from("run.jsonl")));
        assert!(parse(&[]).telemetry.is_none());
    }

    #[test]
    fn trace_path_is_captured() {
        let o = parse(&["--trace", "out/run.trace.json"]);
        assert_eq!(o.trace, Some(PathBuf::from("out/run.trace.json")));
        assert!(parse(&[]).trace.is_none());
    }

    #[test]
    fn trace_dir_is_captured() {
        let o = parse(&["--trace-dir", "cache/traces"]);
        assert_eq!(o.trace_dir, Some(PathBuf::from("cache/traces")));
        assert!(parse(&[]).trace_dir.is_none());
    }

    #[test]
    fn profile_path_is_captured() {
        let o = parse(&["--profile", "out/run.collapsed"]);
        assert_eq!(o.profile, Some(PathBuf::from("out/run.collapsed")));
        assert!(parse(&[]).profile.is_none());
    }

    #[test]
    fn quiet_flag_is_captured() {
        assert!(parse(&["--quiet"]).quiet);
        assert!(!parse(&[]).quiet);
    }

    #[test]
    fn crash_dir_is_captured() {
        let o = parse(&["--crash-dir", "results/crashes"]);
        assert_eq!(o.crash_dir, Some(PathBuf::from("results/crashes")));
        assert!(parse(&[]).crash_dir.is_none());
    }

    #[test]
    fn ledger_dir_is_captured() {
        let o = parse(&["--ledger", "results/ledger"]);
        assert_eq!(o.ledger, Some(PathBuf::from("results/ledger")));
        assert!(parse(&[]).ledger.is_none());
    }

    #[test]
    fn monitor_addr_is_captured() {
        let o = parse(&["--monitor", "127.0.0.1:9464"]);
        assert_eq!(o.monitor.as_deref(), Some("127.0.0.1:9464"));
        assert!(parse(&[]).monitor.is_none());
    }
}
