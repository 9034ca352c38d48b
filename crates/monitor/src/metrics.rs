//! Prometheus text-exposition rendering for `GET /metrics`.
//!
//! The page is assembled from read-only snapshots: the counter values
//! and histogram bucket loads from the installed `mab-telemetry` recorder
//! (relaxed loads, no locks), and one short lock of the monitor's arm
//! table, which also holds the sweep progress counted from the runner's
//! arm events. Counter metrics follow the `_total` naming convention;
//! histograms are emitted with cumulative `le` buckets exactly as the
//! exposition format requires. ETA and rate figures come from
//! [`mab_telemetry::live`] — the same arithmetic that renders the stderr
//! progress line, so the two planes can never disagree.

use crate::state::MonitorState;
use mab_telemetry::hist::BUCKETS;
use mab_telemetry::live;
use mab_telemetry::{Hist, Recorder, Stat};
use std::sync::atomic::Ordering;

/// Renders the full exposition page with the installed recorder.
pub fn render(state: &MonitorState) -> String {
    render_parts(state, mab_telemetry::recorder())
}

/// Renders the exposition page with an explicit recorder (testable seam:
/// golden tests construct their own recorder and feed the state events).
pub fn render_parts(state: &MonitorState, recorder: Option<&Recorder>) -> String {
    let mut out = String::with_capacity(4096);

    out.push_str("# HELP mab_run_info Static description of the monitored run.\n");
    out.push_str("# TYPE mab_run_info gauge\n");
    out.push_str(&format!(
        "mab_run_info{{experiment=\"{}\",digest=\"{}\",code=\"{}\"}} 1\n",
        escape_label(&state.run.experiment),
        escape_label(&state.run.digest),
        escape_label(&state.run.code),
    ));
    gauge(
        &mut out,
        "mab_run_jobs",
        "Configured worker count.",
        state.run.jobs as f64,
    );

    // Sweep-level gauges, per-worker utilization and monitor
    // self-accounting from the arm table.
    {
        let table = state.table.lock().unwrap();
        if let Some(snap) = table.current {
            let elapsed = snap.elapsed_secs();
            let (done, total) = (snap.done as u64, snap.total as u64);
            gauge(
                &mut out,
                "mab_sweep_arms_total",
                "Arms in the current sweep.",
                total as f64,
            );
            gauge(
                &mut out,
                "mab_sweep_arms_completed",
                "Arms completed in the current sweep.",
                done as f64,
            );
            gauge(
                &mut out,
                "mab_sweep_active",
                "1 while a sweep is in flight.",
                if snap.active { 1.0 } else { 0.0 },
            );
            gauge(
                &mut out,
                "mab_sweep_rate_runs_per_second",
                "Completed runs per second.",
                live::rate_per_sec(done, elapsed),
            );
            if let Some(eta) = live::eta_seconds(done, total, elapsed) {
                gauge(
                    &mut out,
                    "mab_sweep_eta_seconds",
                    "Estimated seconds until the sweep completes.",
                    eta,
                );
            }
        }
        out.push_str("# HELP mab_worker_busy_seconds_total Seconds spent inside completed arms.\n");
        out.push_str("# TYPE mab_worker_busy_seconds_total counter\n");
        for (worker, w) in table.workers.iter().enumerate() {
            out.push_str(&format!(
                "mab_worker_busy_seconds_total{{worker=\"{worker}\"}} {}\n",
                fmt_value(w.busy_ns as f64 / 1e9)
            ));
        }
        out.push_str("# HELP mab_worker_arms_total Arms completed per worker.\n");
        out.push_str("# TYPE mab_worker_arms_total counter\n");
        for (worker, w) in table.workers.iter().enumerate() {
            out.push_str(&format!(
                "mab_worker_arms_total{{worker=\"{worker}\"}} {}\n",
                w.arms_finished
            ));
        }
        counter(
            &mut out,
            "mab_monitor_arm_rows_evicted_total",
            "Arm-table rows evicted to stay under the cap.",
            table.arms.dropped() as f64,
        );
    }
    counter(
        &mut out,
        "mab_monitor_scrapes_total",
        "Metrics and status scrapes served.",
        state.scrape_count() as f64,
    );
    gauge(
        &mut out,
        "mab_monitor_sse_clients",
        "Currently connected /events clients.",
        state.sse_clients.load(Ordering::Relaxed) as f64,
    );
    counter(
        &mut out,
        "mab_monitor_sse_dropped_total",
        "Events dropped across slow /events clients.",
        state.sse_dropped.load(Ordering::Relaxed) as f64,
    );
    counter(
        &mut out,
        "mab_monitor_rejected_connections_total",
        "Connections turned away at the connection cap.",
        state.http.rejected_conns.load(Ordering::Relaxed) as f64,
    );

    // Telemetry registry: counters, ring drop accounting, histograms.
    if let Some(rec) = recorder {
        for stat in Stat::ALL {
            let name = format!("mab_{}_total", sanitize_name(stat.name()));
            counter(
                &mut out,
                &name,
                "Telemetry counter.",
                rec.counters().sum(stat) as f64,
            );
        }
        counter(
            &mut out,
            "mab_event_ring_dropped_total",
            "Telemetry events evicted from the ring.",
            rec.ring().dropped() as f64,
        );
        counter(
            &mut out,
            "mab_trace_ring_dropped_total",
            "Decision records evicted from the trace ring.",
            rec.trace().dropped() as f64,
        );
        for hist in Hist::ALL {
            render_histogram(&mut out, rec, hist);
        }
    }
    out
}

/// Emits one Prometheus histogram with cumulative `le` buckets in display
/// units (micro-unit histograms are scaled back to their natural units).
fn render_histogram(out: &mut String, rec: &Recorder, hist: Hist) {
    let name = format!("mab_{}", sanitize_name(hist.name()));
    let h = rec.hist(hist);
    let counts = h.bucket_counts();
    out.push_str(&format!("# HELP {name} Telemetry histogram.\n"));
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, count) in counts.iter().enumerate().take(BUCKETS - 1) {
        cumulative += count;
        // Skip long runs of empty high buckets but always keep the first
        // bucket and any bucket that changes the cumulative count.
        if *count == 0 && i > 0 && i < BUCKETS - 1 {
            continue;
        }
        let upper = if i == 0 {
            0.0
        } else {
            (1u64 << i) as f64 - 1.0
        };
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            fmt_value(rec.hist_display(hist, upper))
        ));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    let sum = h.mean() * h.count() as f64;
    out.push_str(&format!(
        "{name}_sum {}\n",
        fmt_value(rec.hist_display(hist, sum))
    ));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// Appends one gauge metric (`# HELP` / `# TYPE` / sample) to the page.
/// Public so other exposition surfaces (`mab-serve`'s `/metrics`) render
/// with the exact same conventions as the monitor.
pub fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
        fmt_value(value)
    ));
}

/// Appends one counter metric (`# HELP` / `# TYPE` / sample) to the page.
pub fn counter(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
        fmt_value(value)
    ));
}

/// Formats a sample value: integral values render without a fraction,
/// non-finite values as Prometheus' `NaN`/`+Inf`/`-Inf` tokens.
pub fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Maps an arbitrary identifier onto the Prometheus metric-name alphabet
/// `[a-zA-Z0-9_:]`, replacing invalid characters with `_` and prefixing a
/// `_` when the first character is a digit.
pub fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, ch) in raw.chars().enumerate() {
        let valid = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if valid { ch } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
pub fn escape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RunInfo;
    use mab_runner::{ArmEvent, ArmObservation};

    /// Feeds `state` a sweep of `total` arms on one worker, `done` of them
    /// finished.
    fn sweep_progress(state: &MonitorState, total: usize, done: usize) {
        state.observe(&ArmEvent::SweepBegin {
            sweep: 0,
            total,
            jobs: 1,
        });
        for index in 0..done {
            state.observe(&ArmEvent::ArmFinish(ArmObservation {
                sweep: 0,
                index,
                seed: index as u64,
                wall_ns: 1,
                worker: 0,
            }));
        }
    }

    /// Minimal exposition-format validator: every non-comment line is
    /// `name[{labels}] value`, names are in the legal alphabet, label
    /// values are properly quoted.
    fn assert_parses(page: &str) {
        for line in page.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("no value: {line}"));
            let name = series.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                    && !name.starts_with(|c: char| c.is_ascii_digit()),
                "bad metric name in: {line}"
            );
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(
                        rest.starts_with('{') && rest.ends_with('}'),
                        "bad labels: {line}"
                    );
                }
            }
            assert!(
                value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
                "bad value in: {line}"
            );
        }
    }

    #[test]
    fn sanitize_name_covers_the_edge_cases() {
        assert_eq!(sanitize_name("arm_pulls"), "arm_pulls");
        assert_eq!(sanitize_name("mab.foo-bar"), "mab_foo_bar");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a:b"), "a:b");
        assert_eq!(sanitize_name("héllo métric"), "h_llo_m_tric");
    }

    #[test]
    fn escape_label_covers_the_edge_cases() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    #[test]
    fn golden_exposition_page() {
        let state = MonitorState::new(RunInfo {
            experiment: "fig08 \"quoted\"".to_string(),
            digest: "0123456789abcdef".to_string(),
            code: "0.1.0+abc1234".to_string(),
            jobs: 8,
            started_unix: 0,
        });
        let rec = Recorder::new();
        rec.counters().add(Stat::ArmPulls, 42);
        rec.hist(Hist::MissLatency).record(3);
        rec.hist(Hist::MissLatency).record(200);
        sweep_progress(&state, 64, 16);
        let page = render_parts(&state, Some(&rec));
        assert_parses(&page);

        // Info gauge carries escaped labels.
        assert!(
            page.contains("mab_run_info{experiment=\"fig08 \\\"quoted\\\"\",digest=\"0123456789abcdef\",code=\"0.1.0+abc1234\"} 1"),
            "{page}"
        );
        // Sweep gauges are present.
        assert!(page.contains("mab_sweep_arms_total 64"), "{page}");
        assert!(page.contains("mab_sweep_arms_completed 16"), "{page}");
        assert!(page.contains("mab_sweep_active 1"), "{page}");
        // Counters follow the _total convention.
        assert!(page.contains("mab_arm_pulls_total 42"), "{page}");
        assert!(page.contains("mab_sweep_panics_total 0"), "{page}");
        // Ring drop accounting.
        assert!(page.contains("mab_event_ring_dropped_total 0"), "{page}");
        assert!(page.contains("mab_trace_ring_dropped_total 0"), "{page}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let state = MonitorState::new(RunInfo::default());
        let rec = Recorder::new();
        // Raw-unit histogram: values 3 and 200 land in le=3 and le=255.
        rec.hist(Hist::MissLatency).record(3);
        rec.hist(Hist::MissLatency).record(200);
        let page = render_parts(&state, Some(&rec));
        assert_parses(&page);
        assert!(
            page.contains("mab_miss_latency_bucket{le=\"3\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("mab_miss_latency_bucket{le=\"255\"} 2"),
            "{page}"
        );
        assert!(
            page.contains("mab_miss_latency_bucket{le=\"+Inf\"} 2"),
            "{page}"
        );
        assert!(page.contains("mab_miss_latency_sum 203"), "{page}");
        assert!(page.contains("mab_miss_latency_count 2"), "{page}");

        // Cumulative counts never decrease down the page.
        let mut last = 0u64;
        for line in page
            .lines()
            .filter(|l| l.starts_with("mab_miss_latency_bucket"))
        {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v as u64 >= last, "non-cumulative: {line}");
            last = v as u64;
        }
    }

    #[test]
    fn eta_gauge_appears_only_once_estimable() {
        let state = MonitorState::new(RunInfo::default());
        // No completions yet: rate renders 0, ETA is omitted entirely.
        sweep_progress(&state, 64, 0);
        let page = render_parts(&state, None);
        assert_parses(&page);
        assert!(page.contains("mab_sweep_rate_runs_per_second 0"), "{page}");
        assert!(!page.contains("mab_sweep_eta_seconds"), "{page}");
    }

    #[test]
    fn page_without_recorder_or_sweep_still_parses() {
        let state = MonitorState::new(RunInfo::default());
        let page = render_parts(&state, None);
        assert_parses(&page);
        assert!(page.contains("mab_monitor_scrapes_total 0"), "{page}");
        assert!(!page.contains("mab_arm_pulls_total"), "{page}");
    }
}
