//! The `mab-inspect` binary: analyse Micro-Armed Bandit run artifacts.
//!
//! ```text
//! mab-inspect report <artifact.jsonl>... [--windows N]
//! mab-inspect diff <baseline.jsonl> <candidate.jsonl> [--threshold PCT]
//! mab-inspect profile <profile.collapsed|artifact.jsonl>... [--top N] [--cycles N] [--json]
//! mab-inspect watch <URL> [--interval SECS] [--once]
//! mab-inspect postmortem <report.mabcrash> [--json]
//! mab-inspect history [--ledger DIR] [--experiment NAME] [--config K=V] [--limit N] [--json]
//! mab-inspect trend --metric NAME [--ledger DIR] [--experiment NAME] [--json]
//! mab-inspect regress [--ledger DIR] [--experiment NAME | <BENCH.json>...] [--threshold PCT] [--metric NAME=PCT]
//! mab-inspect ingest <BENCH.json>... [--ledger DIR]
//! ```
//!
//! Exit codes: 0 on success, 1 when `diff` or `regress` finds a regression
//! at or past the threshold, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use mab_inspect::artifact::RunArtifact;
use mab_inspect::diff::{diff_artifacts, has_regression};
use mab_inspect::history::{self, Filter, Thresholds};
use mab_inspect::postmortem::{postmortem_json, render_postmortem};
use mab_inspect::report::{profile_json, render_diff, render_profile, render_report};
use mab_inspect::watch;
use mab_ledger::{ingest_bench_file, Append, Ledger, RunRecord};

const USAGE: &str = "\
mab-inspect — analyse Micro-Armed Bandit telemetry and decision-trace artifacts

USAGE:
    mab-inspect report <artifact.jsonl>... [--windows N]
        Regret vs the post-hoc best arm, arm-switch timeline, per-phase and
        windowed arm occupancy, counters and histograms. Multiple artifacts
        (e.g. a --telemetry export plus a --trace file) are merged.
        --windows N   occupancy-timeline resolution (default 8)

    mab-inspect diff <baseline.jsonl> <candidate.jsonl> [--threshold PCT]
        Compares shared metrics (histogram means, mean decision reward) and
        exits 1 when any relative change exceeds the threshold.
        --threshold PCT   flag deltas beyond PCT percent (default 2)

    mab-inspect profile <profile.collapsed|artifact.jsonl>... [--top N] [--cycles N] [--json]
        Self-time table from a --profile collapsed-stack file and/or the
        span lines of a --telemetry JSONL export, with percent-of-run and
        per-simulated-cycle cost (from the export's sim_cycles counter).
        --top N       rows to show (default 20)
        --cycles N    simulated-cycle denominator override
        --json        emit the rows as a JSON document instead of a table

    mab-inspect watch <URL> [--interval SECS] [--once]
        Live view of a run started with --monitor ADDR: tails the /events
        SSE stream and re-renders the /status arm table until the run
        finishes (the stream closes). URL is the monitor's base address,
        e.g. 127.0.0.1:9464. Pointed at a mab-serve daemon (no /status),
        it renders the /queue scheduler and cache view instead.
        --interval SECS   seconds between table refreshes (default 2)
        --once            print one status snapshot and exit

    mab-inspect postmortem <report.mabcrash> [--json]
        Renders a crash report written by the always-on blackbox flight
        recorder: cause, failing sweep arm, span stack, the last bandit
        decisions before the crash and per-thread ring drop accounting.
        The report's CRC is verified before anything is shown.
        --json        emit the report as a JSON document instead of text

    mab-inspect history [--ledger DIR] [--experiment NAME] [--config K=V]...
                        [--digest PREFIX] [--limit N] [--json]
        Lists run-ledger records (from experiment --ledger runs and ingested
        benches), chronological, newest last. --limit keeps the newest N.
        --json emits the full records as a JSON array.

    mab-inspect trend --metric NAME [--ledger DIR] [--experiment NAME]
                      [--config K=V]... [--json]
        One metric across code versions: records grouped by the crate
        version + git revision they were built from, each summarized as
        n/mean/min/max, ordered by first appearance.

    mab-inspect regress [--ledger DIR] [--experiment NAME | <BENCH.json>...]
                        [--threshold PCT] [--metric NAME=PCT]...
        Gates runs against their ledger baseline. With bench JSON files,
        each file is compared against the newest ledger record of its
        bench; with --experiment, the newest record is compared against the
        newest earlier record. A metric fails when its relative change is
        non-zero and >= its threshold (inclusive — same rule as diff;
        --metric NAME=PCT overrides per metric). Exits 1 on any failure.

    mab-inspect ingest <BENCH.json>... [--ledger DIR]
        Ingests BENCH_*.json result files into the ledger as bench:<name>
        records (numbers/bools become metrics, strings become config).
        Re-ingesting an unchanged file is a no-op append.

    The ledger directory defaults to results/ledger, where the run scripts
    record; --ledger DIR must be non-empty.
";

/// Opens the ledger and reads all records, surfacing per-line corruption
/// warnings on stderr.
fn read_ledger(dir: &PathBuf) -> Result<Vec<RunRecord>, String> {
    let ledger =
        Ledger::open(dir).map_err(|e| format!("cannot open ledger {}: {e}", dir.display()))?;
    let out = ledger
        .read_all()
        .map_err(|e| format!("cannot read ledger {}: {e}", dir.display()))?;
    for warning in &out.warnings {
        eprintln!("warning: {warning}");
    }
    Ok(out.records)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => run_report(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        Some("profile") => run_profile(&args[1..]),
        Some("watch") => run_watch(&args[1..]),
        Some("postmortem") => run_postmortem(&args[1..]),
        Some("history") => run_history(&args[1..]),
        Some("trend") => run_trend(&args[1..]),
        Some("regress") => run_regress(&args[1..]),
        Some("ingest") => run_ingest(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage_error(
            "expected a subcommand: report | diff | profile | watch | postmortem | history | trend | regress | ingest | help",
        ),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// A failure after the arguments parsed fine (server unreachable, stream
/// cut): report it without drowning the message in the usage text.
fn runtime_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

fn run_report(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut windows = 8usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--windows" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => windows = n,
                _ => return usage_error("--windows needs a positive integer"),
            },
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return usage_error("report needs at least one artifact path");
    }
    match RunArtifact::load(&paths) {
        Ok(run) => {
            print!("{}", render_report(&run, windows));
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(&format!("cannot read artifact: {e}")),
    }
}

fn run_profile(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut top = 20usize;
    let mut cycles = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => top = n,
                _ => return usage_error("--top needs a positive integer"),
            },
            "--cycles" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cycles = Some(n),
                _ => return usage_error("--cycles needs a number"),
            },
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return usage_error("profile needs at least one artifact path");
    }
    match RunArtifact::load(&paths) {
        Ok(run) => {
            if json {
                print!("{}", profile_json(&run, top, cycles));
            } else {
                print!("{}", render_profile(&run, top, cycles));
            }
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(&format!("cannot read artifact: {e}")),
    }
}

fn run_watch(args: &[String]) -> ExitCode {
    let mut url = None;
    let mut interval = 2.0f64;
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) if s > 0.0 => interval = s,
                _ => return usage_error("--interval needs a positive number of seconds"),
            },
            "--once" => once = true,
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            positional if url.is_none() => url = Some(positional.to_string()),
            _ => return usage_error("watch takes exactly one URL"),
        }
    }
    let Some(url) = url else {
        return usage_error("watch needs the monitor URL (e.g. 127.0.0.1:9464)");
    };
    match watch::watch(&url, std::time::Duration::from_secs_f64(interval), once) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => runtime_error(&e),
    }
}

fn run_postmortem(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            positional if path.is_none() => path = Some(PathBuf::from(positional)),
            _ => return usage_error("postmortem takes exactly one report path"),
        }
    }
    let Some(path) = path else {
        return usage_error("postmortem needs a .mabcrash report path");
    };
    // A corrupt or truncated report (CRC/line-count mismatch) is a runtime
    // failure, not a usage error: the path was fine, the file is not.
    match mab_telemetry::blackbox::read_report(&path) {
        Ok(report) => {
            if json {
                print!("{}", postmortem_json(&report));
            } else {
                print!("{}", render_postmortem(&report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => runtime_error(&format!("cannot read report: {e}")),
    }
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold_pct = 2.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 0.0 => threshold_pct = t,
                _ => return usage_error("--threshold needs a non-negative number"),
            },
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown flag {flag}"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.len() != 2 {
        return usage_error("diff needs exactly two artifact paths");
    }
    let threshold = threshold_pct / 100.0;
    let load = |p: &PathBuf| RunArtifact::load(std::slice::from_ref(p));
    let (baseline, candidate) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return usage_error(&format!("cannot read artifact: {e}")),
    };
    let deltas = diff_artifacts(&baseline, &candidate, threshold);
    print!("{}", render_diff(&deltas, threshold));
    if has_regression(&deltas) {
        eprintln!("regression detected (threshold {threshold_pct}%)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Flags shared by the ledger subcommands: `--ledger DIR`, the record
/// filter, and `--json`. Returns leftover positional paths.
struct LedgerArgs {
    dir: PathBuf,
    filter: Filter,
    json: bool,
    metric: Option<String>,
    threshold_pct: f64,
    per_metric_pct: Vec<(String, f64)>,
    paths: Vec<PathBuf>,
}

fn parse_ledger_args(args: &[String]) -> Result<LedgerArgs, String> {
    let mut out = LedgerArgs {
        dir: PathBuf::from("results/ledger"),
        filter: Filter::default(),
        json: false,
        metric: None,
        threshold_pct: 2.0,
        per_metric_pct: Vec::new(),
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // An empty path would resolve to the working directory.
            "--ledger" => match it.next() {
                Some(d) if !d.is_empty() => out.dir = PathBuf::from(d),
                _ => return Err("--ledger needs a non-empty directory".to_string()),
            },
            "--experiment" => match it.next() {
                Some(e) => out.filter.experiment = Some(e.clone()),
                None => return Err("--experiment needs a name".to_string()),
            },
            "--config" => match it.next().and_then(|kv| {
                kv.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            }) {
                Some(pair) => out.filter.config.push(pair),
                None => return Err("--config needs KEY=VALUE".to_string()),
            },
            "--digest" => match it.next() {
                Some(d) => out.filter.digest = Some(d.clone()),
                None => return Err("--digest needs a hex prefix".to_string()),
            },
            "--limit" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => out.filter.limit = Some(n),
                _ => return Err("--limit needs a positive integer".to_string()),
            },
            "--metric" => match it.next() {
                // `--metric NAME` selects a metric (trend); `--metric
                // NAME=PCT` sets a per-metric threshold (regress).
                Some(m) => match m.split_once('=') {
                    Some((name, pct)) => match pct.parse::<f64>() {
                        Ok(p) if p >= 0.0 => {
                            out.per_metric_pct.push((name.to_string(), p));
                        }
                        _ => {
                            return Err("--metric NAME=PCT needs a non-negative percent".to_string())
                        }
                    },
                    None => out.metric = Some(m.clone()),
                },
                None => return Err("--metric needs a metric name".to_string()),
            },
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) if t >= 0.0 => out.threshold_pct = t,
                _ => return Err("--threshold needs a non-negative number".to_string()),
            },
            "--json" => out.json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => out.paths.push(PathBuf::from(path)),
        }
    }
    Ok(out)
}

fn run_history(args: &[String]) -> ExitCode {
    let parsed = match parse_ledger_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !parsed.paths.is_empty() {
        return usage_error("history takes no positional arguments");
    }
    let records = match read_ledger(&parsed.dir) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let rows = history::select(&records, &parsed.filter);
    if parsed.json {
        print!("{}", history::history_json(&rows));
    } else {
        print!("{}", history::render_history(&rows));
    }
    ExitCode::SUCCESS
}

fn run_trend(args: &[String]) -> ExitCode {
    let parsed = match parse_ledger_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let Some(metric) = parsed.metric else {
        return usage_error("trend needs --metric NAME");
    };
    if !parsed.paths.is_empty() {
        return usage_error("trend takes no positional arguments");
    }
    let records = match read_ledger(&parsed.dir) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let rows = history::select(&records, &parsed.filter);
    let points = history::trend(&rows, &metric);
    if parsed.json {
        print!("{}", history::trend_json(&points, &metric));
    } else {
        print!("{}", history::render_trend(&points, &metric));
    }
    ExitCode::SUCCESS
}

fn run_ingest(args: &[String]) -> ExitCode {
    let parsed = match parse_ledger_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if parsed.paths.is_empty() {
        return usage_error("ingest needs at least one bench JSON path");
    }
    let ledger = match Ledger::open(&parsed.dir) {
        Ok(l) => l,
        Err(e) => return usage_error(&format!("cannot open ledger {}: {e}", parsed.dir.display())),
    };
    for path in &parsed.paths {
        let record = match ingest_bench_file(path) {
            Ok(r) => r,
            Err(e) => return usage_error(&format!("cannot ingest {}: {e}", path.display())),
        };
        match ledger.record(&record) {
            Ok(Append::Recorded(digest)) => {
                println!(
                    "ingested {} as {} ({digest})",
                    path.display(),
                    record.experiment
                );
            }
            Ok(Append::Deduplicated(digest)) => {
                println!("unchanged {} ({digest}); not re-appended", path.display());
            }
            Err(e) => return usage_error(&format!("cannot append {}: {e}", path.display())),
        }
    }
    ExitCode::SUCCESS
}

fn run_regress(args: &[String]) -> ExitCode {
    let parsed = match parse_ledger_args(args) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let thresholds = Thresholds {
        default: parsed.threshold_pct / 100.0,
        per_metric: parsed
            .per_metric_pct
            .iter()
            .map(|(name, pct)| (name.clone(), pct / 100.0))
            .collect(),
    };
    let records = match read_ledger(&parsed.dir) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };

    // Candidates: bench JSON files (compared against each bench's newest
    // ledger record), or the newest ledger record of --experiment
    // (compared against the newest earlier one).
    let mut comparisons: Vec<(RunRecord, RunRecord)> = Vec::new();
    if !parsed.paths.is_empty() {
        for path in &parsed.paths {
            let candidate = match ingest_bench_file(path) {
                Ok(r) => r,
                Err(e) => return usage_error(&format!("cannot read {}: {e}", path.display())),
            };
            match history::latest_for(&records, &candidate.experiment) {
                Some(baseline) => comparisons.push((baseline.clone(), candidate)),
                None => eprintln!(
                    "warning: no ledger baseline for {}; skipping {}",
                    candidate.experiment,
                    path.display()
                ),
            }
        }
    } else if let Some(experiment) = &parsed.filter.experiment {
        let Some(candidate) = history::latest_for(&records, experiment) else {
            return usage_error(&format!("no ledger records for experiment {experiment}"));
        };
        let earlier: Vec<RunRecord> = records
            .iter()
            .filter(|r| !std::ptr::eq(*r, candidate))
            .cloned()
            .collect();
        match history::latest_for(&earlier, experiment) {
            Some(baseline) => comparisons.push((baseline.clone(), candidate.clone())),
            None => {
                eprintln!("warning: only one ledger record for {experiment}; nothing to regress");
            }
        }
    } else {
        return usage_error("regress needs bench JSON paths or --experiment NAME");
    }

    let mut failed = false;
    for (baseline, candidate) in &comparisons {
        let deltas = history::regress(baseline, candidate, &thresholds);
        print!(
            "{}",
            history::render_regress(&candidate.experiment, baseline, &deltas, &thresholds)
        );
        failed |= deltas.iter().any(|d| d.flagged);
    }
    if failed {
        eprintln!(
            "regression detected (default threshold {}%)",
            parsed.threshold_pct
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
