//! Cross-run queries over the append-only run ledger.
//!
//! The experiment binaries append one `RunRecord` per run (see the
//! `mab-ledger` crate); this module answers questions across those records:
//!
//! - **history** — filter and list runs (by experiment, config pairs, or
//!   digest), newest last, as a table or JSON;
//! - **trend** — one metric tracked across code versions: records grouped
//!   by their `code` field (crate version + git revision), each group
//!   summarized as n/mean/min/max, ordered by first appearance in time;
//! - **regress** — gate a candidate run against its ledger baseline with
//!   per-metric thresholds, under the same inclusive boundary rule as
//!   `mab-inspect diff` (see [`crate::diff::compare`]).
//!
//! Everything here is pure over `&[RunRecord]`; the `mab-inspect` binary
//! owns ledger I/O and exit codes.

use crate::diff::{compare, MetricDelta};
use mab_ledger::RunRecord;
use mab_telemetry::json::{escape, fmt_f64};

/// Record filter shared by `history` and `trend`.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Keep records of this experiment only.
    pub experiment: Option<String>,
    /// Keep records whose config contains every one of these pairs.
    pub config: Vec<(String, String)>,
    /// Keep records whose digest starts with this prefix.
    pub digest: Option<String>,
    /// Keep only the newest N matches.
    pub limit: Option<usize>,
}

impl Filter {
    /// Whether a record passes the experiment/config/digest predicates.
    #[must_use]
    pub fn matches(&self, record: &RunRecord) -> bool {
        if let Some(exp) = &self.experiment {
            if record.experiment != *exp {
                return false;
            }
        }
        if let Some(prefix) = &self.digest {
            if !record.digest().starts_with(prefix.as_str()) {
                return false;
            }
        }
        self.config
            .iter()
            .all(|(k, v)| record.config_value(k) == Some(v.as_str()))
    }
}

/// Selects matching records in chronological order (`started_unix`, with
/// ledger append order as the tiebreaker), applying the limit from the
/// newest end — `--limit 5` means "the five most recent matches".
#[must_use]
pub fn select<'a>(records: &'a [RunRecord], filter: &Filter) -> Vec<&'a RunRecord> {
    let mut rows: Vec<(usize, &RunRecord)> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| filter.matches(r))
        .collect();
    rows.sort_by_key(|(pos, r)| (r.started_unix, *pos));
    let mut rows: Vec<&RunRecord> = rows.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = filter.limit {
        let drop = rows.len().saturating_sub(limit);
        rows.drain(..drop);
    }
    rows
}

/// Renders the history table: one row per run, newest last.
#[must_use]
pub fn render_history(rows: &[&RunRecord]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no matching ledger records\n");
        return out;
    }
    out.push_str(&format!(
        "{:<17} {:<16} {:<24} {:>5} {:>10}  config\n",
        "started (UTC)", "digest", "experiment", "jobs", "wall"
    ));
    for r in rows {
        let mut config = r
            .config
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        // Monitored runs carry their endpoint and scrape count as
        // circumstance (non-digested) fields; show them inline.
        if let Some(endpoint) = &r.monitor {
            config.push_str(&format!(
                " [monitored {endpoint}, {} scrape(s)]",
                r.monitor_scrapes
            ));
        }
        out.push_str(&format!(
            "{:<17} {:<16} {:<24} {:>5} {:>10}  {config}\n",
            fmt_unix(r.started_unix),
            r.digest(),
            r.experiment,
            r.jobs,
            fmt_wall(r.wall_ms),
        ));
    }
    out.push_str(&format!("{} run(s)\n", rows.len()));
    out
}

/// Renders the history as a JSON array of full records.
#[must_use]
pub fn history_json(rows: &[&RunRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push_str("]\n");
    out
}

/// One code version's samples of a trended metric.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Code version (`<crate-version>+<git-rev>`) the runs were built from.
    pub code: String,
    /// Earliest `started_unix` among the version's matching runs.
    pub first_start: u64,
    /// Number of matching runs that reported the metric.
    pub n: usize,
    /// Mean metric value across those runs.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

/// Tracks one metric across code versions: rows that report the metric are
/// grouped by their `code` field and each group is reduced to
/// n/mean/min/max, ordered by the group's first appearance in time.
#[must_use]
pub fn trend(rows: &[&RunRecord], metric: &str) -> Vec<TrendPoint> {
    let mut points: Vec<TrendPoint> = Vec::new();
    for r in rows {
        let Some(value) = r.metric(metric) else {
            continue;
        };
        match points.iter_mut().find(|p| p.code == r.code) {
            Some(p) => {
                p.first_start = p.first_start.min(r.started_unix);
                p.mean = (p.mean * p.n as f64 + value) / (p.n + 1) as f64;
                p.n += 1;
                p.min = p.min.min(value);
                p.max = p.max.max(value);
            }
            None => points.push(TrendPoint {
                code: r.code.clone(),
                first_start: r.started_unix,
                n: 1,
                mean: value,
                min: value,
                max: value,
            }),
        }
    }
    points.sort_by(|a, b| {
        a.first_start
            .cmp(&b.first_start)
            .then_with(|| a.code.cmp(&b.code))
    });
    points
}

/// Renders the trend table for one metric.
#[must_use]
pub fn render_trend(points: &[TrendPoint], metric: &str) -> String {
    let mut out = String::new();
    if points.is_empty() {
        out.push_str(&format!("no ledger records report metric {metric:?}\n"));
        return out;
    }
    out.push_str(&format!("trend of {metric}:\n"));
    out.push_str(&format!(
        "{:<17} {:<22} {:>4} {:>14} {:>14} {:>14}\n",
        "first seen (UTC)", "code", "n", "mean", "min", "max"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<17} {:<22} {:>4} {:>14.6} {:>14.6} {:>14.6}\n",
            fmt_unix(p.first_start),
            p.code,
            p.n,
            p.mean,
            p.min,
            p.max,
        ));
    }
    out
}

/// Renders the trend as a JSON object with a `points` array.
#[must_use]
pub fn trend_json(points: &[TrendPoint], metric: &str) -> String {
    let mut out = format!("{{\"metric\":\"{}\",\"points\":[", escape(metric));
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"first_start\":{},\"n\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            escape(&p.code),
            p.first_start,
            p.n,
            fmt_f64(p.mean),
            fmt_f64(p.min),
            fmt_f64(p.max),
        ));
    }
    out.push_str("]}\n");
    out
}

/// Regression thresholds: a default plus per-metric overrides, all as
/// relative fractions (0.02 = 2%).
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Threshold for metrics without an override.
    pub default: f64,
    /// `(metric, threshold)` overrides.
    pub per_metric: Vec<(String, f64)>,
}

impl Thresholds {
    /// Uniform thresholds at `default`.
    #[must_use]
    pub fn uniform(default: f64) -> Self {
        Thresholds {
            default,
            per_metric: Vec::new(),
        }
    }

    /// The threshold that applies to `metric`.
    #[must_use]
    pub fn for_metric(&self, metric: &str) -> f64 {
        self.per_metric
            .iter()
            .find(|(name, _)| name == metric)
            .map_or(self.default, |(_, t)| *t)
    }
}

/// The newest matching record for an experiment — the regression baseline.
#[must_use]
pub fn latest_for<'a>(records: &'a [RunRecord], experiment: &str) -> Option<&'a RunRecord> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.experiment == experiment)
        .max_by_key(|(pos, r)| (r.started_unix, *pos))
        .map(|(_, r)| r)
}

/// Compares every metric the baseline and candidate share, each under its
/// own threshold. Metrics present in only one record are skipped, exactly
/// like `diff` (a run that gained or lost a counter is not a regression of
/// the counters it kept).
#[must_use]
pub fn regress(baseline: &RunRecord, candidate: &RunRecord, th: &Thresholds) -> Vec<MetricDelta> {
    let mut out = Vec::new();
    for (name, base_value) in &baseline.metrics {
        if let Some(cand_value) = candidate.metric(name) {
            out.push(compare(
                name.clone(),
                *base_value,
                cand_value,
                th.for_metric(name),
            ));
        }
    }
    out
}

/// Renders the regress comparison, marking flagged rows.
#[must_use]
pub fn render_regress(
    experiment: &str,
    baseline: &RunRecord,
    deltas: &[MetricDelta],
    th: &Thresholds,
) -> String {
    let mut out = format!(
        "regress {experiment}: baseline {} ({}, {})\n",
        baseline.digest(),
        baseline.code,
        fmt_unix(baseline.started_unix),
    );
    if deltas.is_empty() {
        out.push_str("  no shared metrics to compare\n");
        return out;
    }
    for d in deltas {
        out.push_str(&format!(
            "  {:<4} {:<28} {:>14.6} -> {:>14.6}  {:>+8.3}% (limit {}%)\n",
            if d.flagged { "FAIL" } else { "ok" },
            d.metric,
            d.baseline,
            d.candidate,
            d.rel_delta * 100.0,
            th.for_metric(&d.metric) * 100.0,
        ));
    }
    out
}

/// `started_unix` rendered as `YYYY-MM-DD HH:MM` UTC (no external time
/// crates in the offline workspace; civil-from-days per Howard Hinnant's
/// algorithm).
#[must_use]
pub fn fmt_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm) = (rem / 3600, (rem % 3600) / 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02} {hh:02}:{mm:02}")
}

fn fmt_wall(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.1}s", ms / 1e3)
    } else {
        format!("{ms:.0}ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(experiment: &str, code: &str, started: u64, ipc: f64) -> RunRecord {
        let mut r = RunRecord::new(experiment, code);
        r.config_pair("seed", 42);
        r.started_unix = started;
        r.metrics.push(("epoch_ipc_mean".to_string(), ipc));
        r
    }

    #[test]
    fn select_filters_and_limits_from_the_newest_end() {
        let records = vec![
            record("a", "0.1.0+aaaaaaa", 100, 1.0),
            record("b", "0.1.0+aaaaaaa", 200, 2.0),
            record("a", "0.1.0+bbbbbbb", 300, 3.0),
            record("a", "0.1.0+bbbbbbb", 50, 4.0),
        ];
        let filter = Filter {
            experiment: Some("a".to_string()),
            ..Filter::default()
        };
        let rows = select(&records, &filter);
        // Chronological: 50, 100, 300.
        assert_eq!(
            rows.iter().map(|r| r.started_unix).collect::<Vec<_>>(),
            [50, 100, 300]
        );
        let limited = select(
            &records,
            &Filter {
                limit: Some(2),
                ..filter
            },
        );
        assert_eq!(
            limited.iter().map(|r| r.started_unix).collect::<Vec<_>>(),
            [100, 300]
        );
    }

    #[test]
    fn select_honors_config_and_digest_filters() {
        let mut a = record("x", "c", 1, 1.0);
        a.config_pair("quick", true);
        let b = record("x", "c", 2, 2.0);
        let records = vec![a.clone(), b.clone()];
        let by_config = Filter {
            config: vec![("quick".to_string(), "true".to_string())],
            ..Filter::default()
        };
        assert_eq!(select(&records, &by_config).len(), 1);
        let by_digest = Filter {
            digest: Some(b.digest()),
            ..Filter::default()
        };
        let rows = select(&records, &by_digest);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].digest(), b.digest());
    }

    #[test]
    fn trend_groups_by_code_version_in_time_order() {
        let records = [
            record("a", "0.1.0+new1234", 300, 3.0),
            record("a", "0.1.0+old1234", 100, 1.0),
            record("a", "0.1.0+old1234", 150, 2.0),
        ];
        let rows: Vec<&RunRecord> = records.iter().collect();
        let points = trend(&rows, "epoch_ipc_mean");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].code, "0.1.0+old1234");
        assert_eq!(points[0].n, 2);
        assert!((points[0].mean - 1.5).abs() < 1e-12);
        assert_eq!(points[0].min, 1.0);
        assert_eq!(points[0].max, 2.0);
        assert_eq!(points[1].code, "0.1.0+new1234");
        assert_eq!(points[1].n, 1);
    }

    #[test]
    fn trend_skips_records_without_the_metric() {
        let mut bare = record("a", "c", 10, 1.0);
        bare.metrics.clear();
        let records = [bare, record("a", "c", 20, 2.0)];
        let rows: Vec<&RunRecord> = records.iter().collect();
        assert_eq!(trend(&rows, "epoch_ipc_mean")[0].n, 1);
    }

    #[test]
    fn regress_applies_per_metric_thresholds() {
        let mut base = record("a", "c", 10, 1.0);
        base.metrics.push(("wall_proxy".to_string(), 100.0));
        let mut cand = record("a", "c", 20, 0.99);
        cand.metrics.push(("wall_proxy".to_string(), 104.0));

        // Uniform 2%: ipc moved 1% (ok), wall_proxy moved 4% (fail).
        let uniform = regress(&base, &cand, &Thresholds::uniform(0.02));
        let by_name = |deltas: &[MetricDelta], name: &str| {
            deltas.iter().find(|d| d.metric == name).unwrap().flagged
        };
        assert!(!by_name(&uniform, "epoch_ipc_mean"));
        assert!(by_name(&uniform, "wall_proxy"));

        // Loosen wall_proxy to 10%: everything passes.
        let th = Thresholds {
            default: 0.02,
            per_metric: vec![("wall_proxy".to_string(), 0.10)],
        };
        assert!(regress(&base, &cand, &th).iter().all(|d| !d.flagged));
    }

    #[test]
    fn regress_against_self_never_flags_even_at_threshold_zero() {
        let base = record("a", "c", 10, 1.0);
        let deltas = regress(&base, &base.clone(), &Thresholds::uniform(0.0));
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|d| !d.flagged));
    }

    #[test]
    fn regress_boundary_matches_diff_inclusive_rule() {
        // Exactly-at-threshold regressions flag (the CI smoke injects one).
        let base = record("a", "c", 10, 1.0);
        let cand = record("a", "c", 20, 0.98);
        let deltas = regress(&base, &cand, &Thresholds::uniform(0.02));
        assert!(deltas.iter().any(|d| d.flagged), "{deltas:?}");
    }

    #[test]
    fn latest_for_picks_newest_by_time_then_position() {
        let records = vec![
            record("a", "c", 100, 1.0),
            record("a", "c", 300, 2.0),
            record("a", "c", 300, 3.0),
            record("b", "c", 400, 4.0),
        ];
        let latest = latest_for(&records, "a").unwrap();
        assert_eq!(latest.metric("epoch_ipc_mean"), Some(3.0));
        assert!(latest_for(&records, "zzz").is_none());
    }

    #[test]
    fn fmt_unix_renders_civil_utc() {
        assert_eq!(fmt_unix(0), "1970-01-01 00:00");
        // 2026-08-07 12:34:00 UTC.
        assert_eq!(fmt_unix(1_786_106_040), "2026-08-07 12:34");
    }

    #[test]
    fn history_shows_monitor_circumstance_when_present() {
        let mut monitored = record("a", "c", 10, 1.0);
        monitored.monitor = Some("127.0.0.1:9464".to_string());
        monitored.monitor_scrapes = 7;
        let plain = record("a", "c", 20, 2.0);
        let records = [monitored, plain];
        let rows: Vec<&RunRecord> = records.iter().collect();
        let text = render_history(&rows);
        assert!(
            text.contains("[monitored 127.0.0.1:9464, 7 scrape(s)]"),
            "{text}"
        );
        // Exactly one row is marked.
        assert_eq!(text.matches("[monitored").count(), 1, "{text}");
    }

    #[test]
    fn json_renderers_emit_parseable_output() {
        let records = [record("a", "c", 10, 1.5)];
        let rows: Vec<&RunRecord> = records.iter().collect();
        let parsed = mab_telemetry::json::parse(history_json(&rows).trim()).unwrap();
        match parsed {
            mab_telemetry::json::JsonValue::Arr(items) => assert_eq!(items.len(), 1),
            other => panic!("expected array, got {other:?}"),
        }
        let t = trend_json(&trend(&rows, "epoch_ipc_mean"), "epoch_ipc_mean");
        assert!(mab_telemetry::json::parse(t.trim()).is_ok());
    }
}
