//! Telemetry session lifecycle for experiment binaries.
//!
//! Each binary wraps its run in a [`TelemetrySession`]: when the `telemetry`
//! cargo feature is enabled this installs the global recorder at startup,
//! prints a counter/histogram summary to stderr at the end, and — if the
//! user passed `--telemetry PATH` — exports the full recorder state to that
//! path as JSON lines. `--trace PATH` additionally exports the decision
//! trace (`.json` → Perfetto Chrome-trace JSON, anything else → decision
//! JSONL for `mab-inspect`). `--profile PATH` turns the hierarchical span
//! profiler on for the run and writes a collapsed-stack file (`path;path
//! count` lines, directly consumable by flamegraph tools) at the end. With
//! the feature off every method is a cheap no-op except for a warning when
//! an export path was requested that cannot be honored.
//!
//! # Run-ledger recording
//!
//! `--ledger DIR` additionally appends one [`RunRecord`] to the
//! append-only run ledger under DIR at [`TelemetrySession::finish`]: the
//! experiment name, the canonical config
//! (instructions/seed/mixes/quick — the digest inputs), wall time, key
//! telemetry stats *for this session* (deltas from a start-of-run snapshot,
//! since the recorder is process-global), per-arm sweep observations from
//! `mab-runner`, and pointers to any artifacts the run exported. Ledger
//! recording works with or without the `telemetry` feature (the metrics
//! list is simply empty without it) and writes only to stderr and the
//! ledger directory — experiment stdout stays byte-identical.

use crate::cli::Options;
use mab_ledger::{code_version, Append, ArmRun, Ledger, RunRecord};
use mab_monitor::Monitor;
use mab_runner::{ArmEvent, ArmObservation, ObserverId};
use mab_telemetry::progress;
use mab_telemetry::summary::StatsSnapshot;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Recorder lifecycle handle for one experiment run.
///
/// Construct with [`TelemetrySession::start`] before simulating and call
/// [`TelemetrySession::finish`] after the final table is printed.
#[derive(Debug)]
pub struct TelemetrySession {
    export: Option<PathBuf>,
    trace: Option<PathBuf>,
    profile: Option<PathBuf>,
    ledger: Option<LedgerCapture>,
    /// The live monitor, when `--monitor` was given. Shut down (and its
    /// scrape count harvested for the ledger) at [`TelemetrySession::finish`].
    monitor: Mutex<Option<Monitor>>,
}

/// In-flight state for one ledger record: the identity/config part of the
/// record built at start, plus everything needed to fill in the outcome at
/// finish.
#[derive(Debug)]
struct LedgerCapture {
    dir: PathBuf,
    record: RunRecord,
    /// Recorder totals at session start; metrics are deltas from here.
    base: Option<StatsSnapshot>,
    /// Arms observed by `mab-runner` sweeps while this session was active.
    arms: Arc<Mutex<Vec<ArmObservation>>>,
    /// The runner observer feeding `arms`; removed at finish.
    observer: ObserverId,
    started: Instant,
}

impl TelemetrySession {
    /// Starts a session for the named experiment from parsed CLI options,
    /// installing the global recorder when instrumentation is compiled in
    /// and the sweep arm observer when `--ledger` is active.
    pub fn start(name: &str, opts: &Options) -> Self {
        mab_telemetry::summary::set_quiet(opts.quiet);
        // Arm the always-on black-box flight recorder (feature-independent)
        // before anything can panic: a crash anywhere after this point dumps
        // a `.mabcrash` report stamped with this run's identity. Disabled by
        // `MAB_BLACKBOX=0`; writes only to the crash dir and stderr, so
        // experiment stdout stays byte-identical either way.
        {
            let spec = crate::spec::RunSpec::from_options(name, opts);
            let crash_dir = opts
                .crash_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from("results/crashes"));
            mab_telemetry::blackbox::install(
                name,
                &spec.digest(&code_version()),
                &spec.config_pairs(),
                &crash_dir,
            );
        }
        if mab_telemetry::STATIC_ENABLED {
            mab_telemetry::install();
            if opts.profile.is_some() {
                mab_telemetry::profile::reset();
                mab_telemetry::profile::set_enabled(true);
            }
        } else if opts.telemetry.is_some() || opts.trace.is_some() || opts.profile.is_some() {
            progress!(
                "--telemetry/--trace/--profile ignored: rebuild with `--features telemetry` to record"
            );
        }
        let monitor = opts.monitor.as_ref().and_then(|addr| {
            // The monitor needs the run's config digest; building the
            // identity record is cheap, so do it whether or not `--ledger`
            // is also active.
            let identity = identity_record(name, opts);
            let run = mab_monitor::RunInfo {
                experiment: name.to_string(),
                digest: identity.digest(),
                code: identity.code.clone(),
                jobs: opts.jobs as u64,
                started_unix: unix_now(),
            };
            match Monitor::start(addr, run) {
                Ok(monitor) => {
                    progress!("monitor listening on {}", monitor.url());
                    Some(monitor)
                }
                Err(e) => {
                    progress!("monitor bind to {addr} failed: {e}");
                    None
                }
            }
        });
        TelemetrySession {
            export: opts.telemetry.clone(),
            trace: opts.trace.clone(),
            profile: opts
                .profile
                .clone()
                .filter(|_| mab_telemetry::STATIC_ENABLED),
            ledger: opts
                .ledger
                .as_ref()
                .map(|dir| LedgerCapture::start(name, dir.clone(), opts)),
            monitor: Mutex::new(monitor),
        }
    }

    /// Prints the end-of-run counter/histogram summary to stderr, writes
    /// the export files if requested, and appends the run record to the
    /// ledger if one is active. Errors are reported on stderr rather than
    /// panicking: the experiment's tables have already been printed and
    /// remain valid.
    pub fn finish(&self) {
        if let Some(rec) = mab_telemetry::recorder() {
            mab_telemetry::summary::write_summary(rec, &mut std::io::stderr().lock()).ok();
            if let Some(path) = &self.export {
                match rec.export_to_path(path) {
                    Ok(()) => progress!("telemetry written to {}", path.display()),
                    Err(e) => progress!("telemetry export to {} failed: {e}", path.display()),
                }
            }
            if let Some(path) = &self.trace {
                match rec.export_trace_to_path(path) {
                    Ok(()) => progress!("decision trace written to {}", path.display()),
                    Err(e) => progress!("trace export to {} failed: {e}", path.display()),
                }
            }
            if let Some(path) = &self.profile {
                let report = mab_telemetry::profile::snapshot();
                match report.write_collapsed_to_path(path) {
                    Ok(()) => progress!(
                        "span profile ({} paths) written to {}",
                        report.spans.len(),
                        path.display()
                    ),
                    Err(e) => progress!("profile export to {} failed: {e}", path.display()),
                }
            }
        }
        // Stop the monitor before sealing the ledger record so the scrape
        // count it reports is final.
        let monitor_meta = self
            .monitor
            .lock()
            .unwrap()
            .take()
            .map(|monitor| (monitor.addr().to_string(), monitor.shutdown()));
        if let Some((endpoint, scrapes)) = &monitor_meta {
            progress!("monitor on {endpoint} served {scrapes} scrapes");
        }
        if let Some(capture) = &self.ledger {
            mab_runner::remove_observer(capture.observer);
            let record = capture.seal(monitor_meta);
            match Ledger::open(&capture.dir).and_then(|ledger| ledger.record(&record)) {
                Ok(Append::Recorded(digest)) => progress!(
                    "ledger: recorded {} run {digest} in {}",
                    record.experiment,
                    capture.dir.display()
                ),
                Ok(Append::Deduplicated(digest)) => progress!(
                    "ledger: run {digest} already recorded with identical outcome; not re-appended"
                ),
                Err(e) => progress!("ledger append to {} failed: {e}", capture.dir.display()),
            }
        }
    }
}

/// Seconds since the Unix epoch (0 when the clock is unavailable).
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Builds the identity (digest-relevant) part of a run record: experiment
/// name, code version and the canonical config pairs. Goes through the
/// shared [`crate::spec::RunSpec`] so ledger recording, the live monitor
/// and the `mab-serve` cache all report the same digest.
fn identity_record(name: &str, opts: &Options) -> RunRecord {
    crate::spec::RunSpec::from_options(name, opts).identity_record(&code_version())
}

impl LedgerCapture {
    /// Builds the identity half of the record, snapshots the recorder and
    /// registers the runner observer that collects completed arms.
    fn start(name: &str, dir: PathBuf, opts: &Options) -> LedgerCapture {
        let mut record = identity_record(name, opts);
        record.jobs = opts.jobs as u64;
        record.started_unix = unix_now();
        // Host circumstance: lets cross-host trend/regress comparisons
        // attribute wall-time differences. Never digested.
        record.cpus = mab_telemetry::blackbox::cpus() as u64;
        record.host = Some(mab_telemetry::blackbox::hostname());
        let mut artifact = |kind: &str, path: &Option<PathBuf>| {
            if let Some(path) = path {
                record
                    .artifacts
                    .push((kind.to_string(), path.display().to_string()));
            }
        };
        artifact("telemetry", &opts.telemetry);
        artifact("trace", &opts.trace);
        artifact("trace_dir", &opts.trace_dir);
        artifact("profile", &opts.profile);
        let arms = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&arms);
        let observer = mab_runner::add_observer(Arc::new(move |event: &ArmEvent| {
            if let ArmEvent::ArmFinish(obs) = event {
                sink.lock().unwrap().push(*obs);
            }
        }));
        LedgerCapture {
            dir,
            record,
            base: mab_telemetry::recorder().map(mab_telemetry::summary::snapshot),
            arms,
            observer,
            started: Instant::now(),
        }
    }

    /// Completes the record with this session's outcome: wall time, key
    /// stats since the start snapshot, the normalized arm log, and the
    /// monitor circumstance (`(endpoint, scrape count)`) when one served.
    fn seal(&self, monitor_meta: Option<(String, u64)>) -> RunRecord {
        let mut record = self.record.clone();
        record.wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        if let (Some(rec), Some(base)) = (mab_telemetry::recorder(), &self.base) {
            record.metrics = mab_telemetry::summary::key_stats_since(rec, base);
        }
        record.arms = normalize_arms(&self.arms.lock().unwrap());
        if let Some((endpoint, scrapes)) = monitor_meta {
            record.monitor = Some(endpoint);
            record.monitor_scrapes = scrapes;
        }
        record
    }
}

/// Renumbers raw process-wide sweep ids to 0..n by ascending raw id (raw
/// ids are claimed at sweep start in program order, so ascending order *is*
/// start order) and sorts arms by `(sweep, index)`. The result depends only
/// on program order and spec positions — identical at any `--jobs` setting.
fn normalize_arms(observed: &[ArmObservation]) -> Vec<ArmRun> {
    let mut sweep_ids: Vec<u32> = observed.iter().map(|o| o.sweep).collect();
    sweep_ids.sort_unstable();
    sweep_ids.dedup();
    let mut arms: Vec<ArmRun> = observed
        .iter()
        .map(|o| ArmRun {
            sweep: sweep_ids.binary_search(&o.sweep).unwrap_or(0) as u32,
            index: o.index as u32,
            seed: o.seed,
            wall_ns: o.wall_ns,
        })
        .collect();
    arms.sort_unstable_by_key(|a| (a.sweep, a.index));
    arms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(telemetry: Option<&str>) -> Options {
        Options {
            instructions: 1,
            seed: 1,
            mixes: 1,
            quick: false,
            jobs: 1,
            telemetry: telemetry.map(PathBuf::from),
            trace: None,
            trace_dir: None,
            profile: None,
            ledger: None,
            monitor: None,
            quiet: false,
            crash_dir: None,
        }
    }

    #[test]
    fn session_without_feature_or_path_is_inert() {
        let session = TelemetrySession::start("inert", &options(None));
        session.finish();
    }

    #[test]
    fn arm_normalization_is_order_invariant() {
        // Two sweeps with raw ids 7 and 3 (other threads claimed the rest),
        // arms observed in scrambled completion order.
        let obs = |sweep, index, seed| ArmObservation {
            sweep,
            index,
            seed,
            wall_ns: 1,
            worker: 0,
        };
        let scrambled = [obs(7, 1, 11), obs(3, 0, 20), obs(7, 0, 10), obs(3, 1, 21)];
        let ordered = [obs(3, 0, 20), obs(3, 1, 21), obs(7, 0, 10), obs(7, 1, 11)];
        let a = normalize_arms(&scrambled);
        assert_eq!(a, normalize_arms(&ordered));
        assert_eq!(a[0].sweep, 0);
        assert_eq!(a[0].seed, 20);
        assert_eq!(a[3].sweep, 1);
        assert_eq!(a[3].seed, 11);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn session_installs_the_recorder_and_exports() {
        let dir = std::env::temp_dir().join("mab-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let session = TelemetrySession::start("export", &options(path.to_str()));
        assert!(mab_telemetry::recorder().is_some());
        mab_telemetry::count!(ArmPulls);
        session.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("arm_pulls"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn session_profiles_and_writes_collapsed_stacks() {
        let dir = std::env::temp_dir().join("mab-session-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.collapsed");
        let mut opts = options(None);
        opts.profile = Some(path.clone());
        let session = TelemetrySession::start("profile", &opts);
        assert!(mab_telemetry::profile::enabled());
        mab_telemetry::profile::collect_run(|| {
            mab_telemetry::span!(CacheAccess);
        });
        session.finish();
        mab_telemetry::profile::set_enabled(false);
        mab_telemetry::profile::reset();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.starts_with("run ")), "{text}");
        assert!(text.contains("run;cache_access "), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn session_exports_the_decision_trace() {
        let dir = std::env::temp_dir().join("mab-session-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.trace.jsonl");
        let mut opts = options(None);
        opts.trace = Some(path.clone());
        let session = TelemetrySession::start("trace", &opts);
        session.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\":\"trace_meta\""), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ledger_session_appends_a_record_and_dedups_reruns() {
        let dir = std::env::temp_dir().join(format!("mab-session-ledger-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut opts = options(None);
        opts.ledger = Some(dir.clone());
        opts.seed = 77;

        let session = TelemetrySession::start("fig_ledger_test", &opts);
        session.finish();

        let ledger = Ledger::open(&dir).unwrap();
        let out = ledger.read_all().unwrap();
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert_eq!(out.records.len(), 1);
        let record = &out.records[0];
        assert_eq!(record.experiment, "fig_ledger_test");
        assert_eq!(record.config_value("seed"), Some("77"));
        assert_eq!(record.config_value("quick"), Some("false"));
        assert_eq!(record.code, code_version());
        // Host circumstance is recorded but never digested.
        assert!(record.cpus >= 1);
        assert!(record.host.as_deref().is_some_and(|h| !h.is_empty()));

        // A second identical session in the same process dedups (unless the
        // recorder picked up activity from concurrently running tests — the
        // global recorder is shared, so only assert no *growth* in that
        // case is impossible; instead require the digest to match).
        let session = TelemetrySession::start("fig_ledger_test", &opts);
        session.finish();
        let again = ledger.read_all().unwrap();
        assert!(again.records.iter().all(|r| r.digest() == record.digest()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
