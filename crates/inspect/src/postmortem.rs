//! Rendering for `mab-inspect postmortem`: a `.mabcrash` flight-recorder
//! report as a human timeline or a `--json` document.
//!
//! Parsing and CRC validation live in [`mab_telemetry::blackbox`]
//! ([`read_report`](mab_telemetry::blackbox::read_report)); this module is
//! pure formatting over the already-verified [`CrashReport`]: the crash
//! header (cause, message, signal, thread, wall time), run identity
//! (experiment, digest, config), host circumstance, sweep progress, the
//! failing arm, the span stack, the crashing thread's recent events with
//! the last bandit decisions broken out as a table, and per-thread drop
//! accounting.

use mab_telemetry::blackbox::{CrashEvent, CrashReport};
use mab_telemetry::json::{self, JsonValue};
use mab_telemetry::signal;

/// How many trailing events of the crashing thread the timeline shows.
/// Decisions get their own full table, so the raw tail stays short.
const TIMELINE_TAIL: usize = 16;

/// A decision event's fields, read once for the three views that show
/// them.
struct DecisionFields {
    agent: u64,
    step: u64,
    arm: u64,
    q: f64,
    /// A `null` bound is an arm with no pulls yet, whose UCB bound is
    /// infinite: the text view shows `inf` and `--json` writes `null`.
    bound: f64,
    explore: bool,
}

impl DecisionFields {
    fn of(event: &CrashEvent) -> DecisionFields {
        DecisionFields {
            agent: u64_of(event, "agent"),
            step: u64_of(event, "step"),
            arm: u64_of(event, "arm"),
            q: f64_of(event, "q", f64::NAN),
            bound: f64_of(event, "bound", f64::INFINITY),
            explore: event.fields.get("explore").and_then(JsonValue::as_bool) == Some(true),
        }
    }
}

/// A float field. The report writes non-finite floats as `null`, which
/// reads back as `null_as`.
fn f64_of(event: &CrashEvent, key: &str, null_as: f64) -> f64 {
    match event.fields.get(key) {
        Some(JsonValue::Null) => null_as,
        value => value.and_then(JsonValue::as_f64).unwrap_or(0.0),
    }
}

fn u64_of(event: &CrashEvent, key: &str) -> u64 {
    event
        .fields
        .get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

fn str_of<'a>(event: &'a CrashEvent, key: &str) -> &'a str {
    event
        .fields
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
}

/// One-line summary of an event for the timeline tail.
fn describe(event: &CrashEvent) -> String {
    match event.etype.as_str() {
        "decision" => {
            let d = DecisionFields::of(event);
            format!(
                "decision  agent={} step={} arm={} q={:.4} bound={:.4}{}",
                d.agent,
                d.step,
                d.arm,
                d.q,
                d.bound,
                if d.explore { " explore" } else { "" },
            )
        }
        "epoch" => format!(
            "epoch     sim={} id={} cycle={} value={:.4}",
            str_of(event, "sim"),
            u64_of(event, "id"),
            u64_of(event, "cycle"),
            f64_of(event, "value", f64::NAN),
        ),
        "arm_start" => format!(
            "arm_start index={} seed={}",
            u64_of(event, "index"),
            u64_of(event, "seed"),
        ),
        "arm_finish" => format!("arm_finish index={}", u64_of(event, "index")),
        "sweep_begin" => format!("sweep_begin total={}", u64_of(event, "total")),
        "sweep_end" => format!("sweep_end done={}", u64_of(event, "done")),
        "job" => format!(
            "job       id={} {} {}",
            u64_of(event, "job"),
            str_of(event, "what"),
            str_of(event, "detail"),
        ),
        // Earlier builds recorded free-form notes; their reports still render.
        "note" => format!("note      {}", str_of(event, "text")),
        other => other.to_string(),
    }
}

/// Renders the human postmortem view.
#[must_use]
pub fn render_postmortem(report: &CrashReport) -> String {
    let mut out = String::new();
    let experiment = if report.experiment.is_empty() {
        "<unknown experiment>"
    } else {
        &report.experiment
    };
    out.push_str(&format!("crash postmortem — {experiment}"));
    if !report.digest.is_empty() {
        out.push_str(&format!(" (digest {})", report.digest));
    }
    out.push('\n');
    out.push_str(&format!("  cause:    {}", report.cause));
    if let Some(sig) = report.signal {
        out.push_str(&format!(" ({} {sig})", signal::name(sig)));
    }
    out.push('\n');
    if !report.message.is_empty() {
        out.push_str(&format!("  message:  {}\n", report.message));
    }
    out.push_str(&format!("  thread:   {}\n", report.thread));
    out.push_str(&format!("  time:     {} (unix)\n", report.time_unix));
    if report.cpus > 0 || !report.hostname.is_empty() {
        out.push_str(&format!(
            "  host:     {} cpus, {}\n",
            report.cpus,
            if report.hostname.is_empty() {
                "?"
            } else {
                &report.hostname
            },
        ));
    }
    if let Some((done, total, active)) = report.sweep {
        out.push_str(&format!(
            "  sweep:    {done}/{total} arms done{}\n",
            if active { " (sweep active)" } else { "" }
        ));
    }
    if let Some((index, seed)) = report.arm {
        out.push_str(&format!("  arm:      index {index}, seed {seed}\n"));
    }

    if !report.config.is_empty() {
        out.push_str("\nconfig:\n");
        for (key, value) in &report.config {
            out.push_str(&format!("  {key} = {value}\n"));
        }
    }

    if !report.span_stack.is_empty() {
        out.push_str("\nspan stack (innermost last):\n");
        for (depth, frame) in report.span_stack.iter().enumerate() {
            out.push_str(&format!("  {depth:>2}  {frame}\n"));
        }
    }

    let decisions = report.last_decisions();
    if !decisions.is_empty() {
        out.push_str(&format!(
            "\nlast {} bandit decisions (crashing thread, oldest first):\n",
            decisions.len()
        ));
        out.push_str("  seq        agent  step     arm  q          bound      explore\n");
        for event in &decisions {
            let d = DecisionFields::of(event);
            out.push_str(&format!(
                "  {:<9}  {:<5}  {:<7}  {:<3}  {:<9.4}  {:<9.4}  {}\n",
                event.seq,
                d.agent,
                d.step,
                d.arm,
                d.q,
                d.bound,
                if d.explore { "yes" } else { "no" },
            ));
        }
    }

    if let Some(thread) = report.current_thread() {
        let tail = thread.events.len().saturating_sub(TIMELINE_TAIL);
        out.push_str(&format!(
            "\ntimeline (crashing thread, last {} of {} events):\n",
            thread.events.len() - tail,
            thread.events.len()
        ));
        for event in &thread.events[tail..] {
            out.push_str(&format!("  {:<9}  {}\n", event.seq, describe(event)));
        }
    }

    if !report.threads.is_empty() {
        out.push_str("\nthreads:\n");
        for thread in &report.threads {
            out.push_str(&format!(
                "  {} {:<12}  {} events, {} dropped{}\n",
                if thread.current { "*" } else { " " },
                thread.name,
                thread.events.len(),
                thread.dropped,
                if thread.dropped > 0 {
                    "  (ring overflowed; oldest events lost)"
                } else {
                    ""
                },
            ));
        }
    }
    out
}

/// Renders the `--json` document: the whole report as one JSON object,
/// with the last bandit decisions pre-extracted for scripting.
#[must_use]
pub fn postmortem_json(report: &CrashReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"cause\":\"{}\",\"message\":\"{}\",",
        json::escape(&report.cause),
        json::escape(&report.message)
    ));
    match report.signal {
        Some(sig) => out.push_str(&format!(
            "\"signal\":{sig},\"signal_name\":\"{}\",",
            signal::name(sig)
        )),
        None => out.push_str("\"signal\":null,"),
    }
    out.push_str(&format!(
        "\"thread\":\"{}\",\"time_unix\":{},\"experiment\":\"{}\",\"digest\":\"{}\",",
        json::escape(&report.thread),
        report.time_unix,
        json::escape(&report.experiment),
        json::escape(&report.digest)
    ));
    out.push_str("\"config\":{");
    for (i, (key, value)) in report.config.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":\"{}\"",
            json::escape(key),
            json::escape(value)
        ));
    }
    out.push_str("},");
    out.push_str(&format!(
        "\"host\":{{\"cpus\":{},\"hostname\":\"{}\"}},",
        report.cpus,
        json::escape(&report.hostname)
    ));
    match report.sweep {
        Some((done, total, active)) => out.push_str(&format!(
            "\"sweep\":{{\"done\":{done},\"total\":{total},\"active\":{active}}},"
        )),
        None => out.push_str("\"sweep\":null,"),
    }
    match report.arm {
        Some((index, seed)) => {
            out.push_str(&format!("\"arm\":{{\"index\":{index},\"seed\":{seed}}},"));
        }
        None => out.push_str("\"arm\":null,"),
    }
    out.push_str("\"span_stack\":[");
    for (i, frame) in report.span_stack.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json::escape(frame)));
    }
    out.push_str("],");
    out.push_str("\"last_decisions\":[");
    for (i, event) in report.last_decisions().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let d = DecisionFields::of(event);
        out.push_str(&format!(
            "{{\"seq\":{},\"agent\":{},\"step\":{},\"arm\":{},\"q\":{},\"bound\":{},\"explore\":{}}}",
            event.seq,
            d.agent,
            d.step,
            d.arm,
            json::fmt_f64(d.q),
            json::fmt_f64(d.bound),
            d.explore,
        ));
    }
    out.push_str("],");
    out.push_str("\"threads\":[");
    for (i, thread) in report.threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"current\":{},\"dropped\":{},\"events\":{}}}",
            json::escape(&thread.name),
            thread.current,
            thread.dropped,
            thread.events.len()
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_telemetry::blackbox::{CrashEvent, CrashThread};

    fn event(thread: usize, seq: u64, etype: &str, line: &str) -> CrashEvent {
        CrashEvent {
            thread,
            seq,
            etype: etype.to_string(),
            fields: json::parse(line).unwrap(),
        }
    }

    fn decision_event(thread: usize, seq: u64, arm: u64, q: f64) -> CrashEvent {
        event(
            thread,
            seq,
            "decision",
            &format!(
                "{{\"kind\":\"event\",\"thread\":{thread},\"seq\":{seq},\"type\":\"decision\",\
                 \"agent\":0,\"step\":{seq},\"arm\":{arm},\"q\":{q:.6},\"bound\":{:.6},\"explore\":false}}",
                q + 0.5
            ),
        )
    }

    fn sample_report() -> CrashReport {
        CrashReport {
            cause: "panic".to_string(),
            message: "injected test panic".to_string(),
            signal: None,
            thread: "worker-2".to_string(),
            time_unix: 1_700_000_000,
            experiment: "fig08_singlecore".to_string(),
            digest: "deadbeef".to_string(),
            config: vec![("quick".to_string(), "true".to_string())],
            cpus: 8,
            hostname: "ci-runner".to_string(),
            sweep: Some((3, 12, true)),
            arm: Some((3, 42)),
            span_stack: vec!["sweep".to_string(), "run_single".to_string()],
            threads: vec![
                CrashThread {
                    name: "main".to_string(),
                    current: false,
                    dropped: 0,
                    events: vec![event(
                        0,
                        1,
                        "sweep_begin",
                        "{\"kind\":\"event\",\"thread\":0,\"seq\":1,\
                         \"type\":\"sweep_begin\",\"total\":12}",
                    )],
                },
                CrashThread {
                    name: "worker-2".to_string(),
                    current: true,
                    dropped: 5,
                    events: (2..10).map(|s| decision_event(1, s, s % 4, 0.25)).collect(),
                },
            ],
        }
    }

    #[test]
    fn render_covers_header_arm_decisions_and_drops() {
        let text = render_postmortem(&sample_report());
        assert!(text.contains("crash postmortem — fig08_singlecore (digest deadbeef)"));
        assert!(text.contains("cause:    panic"));
        assert!(text.contains("message:  injected test panic"));
        assert!(text.contains("8 cpus, ci-runner"));
        assert!(text.contains("sweep:    3/12 arms done (sweep active)"));
        assert!(text.contains("arm:      index 3, seed 42"));
        assert!(text.contains("quick = true"));
        assert!(text.contains("run_single"));
        assert!(text.contains("last 8 bandit decisions"));
        assert!(text.contains("5 dropped  (ring overflowed"));
        // The non-crashing thread shows in accounting but not the timeline.
        assert!(text.contains("  main"));
        assert!(!text.contains("timeline (crashing thread, last 1"));
    }

    #[test]
    fn render_signal_crash_names_the_signal() {
        let report = CrashReport {
            cause: "signal".to_string(),
            signal: Some(11),
            ..sample_report()
        };
        assert!(render_postmortem(&report).contains("cause:    signal (SIGSEGV 11)"));
    }

    #[test]
    fn json_output_parses_and_round_trips_key_fields() {
        let doc = postmortem_json(&sample_report());
        let value = json::parse(&doc).expect("postmortem --json must be valid JSON");
        assert_eq!(
            value.get("cause").and_then(JsonValue::as_str),
            Some("panic")
        );
        assert_eq!(
            value
                .get("arm")
                .and_then(|a| a.get("index"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        let decisions = value
            .get("last_decisions")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert_eq!(decisions.len(), 8);
        let threads = value.get("threads").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(threads.len(), 2);
        assert_eq!(
            threads[1].get("dropped").and_then(JsonValue::as_u64),
            Some(5)
        );
    }

    #[test]
    fn a_null_bound_reads_inf_in_text_and_stays_null_in_json() {
        let mut report = sample_report();
        report.threads[1].events = vec![event(
            1,
            2,
            "decision",
            "{\"kind\":\"event\",\"thread\":1,\"seq\":2,\"type\":\"decision\",\
             \"agent\":0,\"step\":0,\"arm\":3,\"q\":0.000000,\"bound\":null,\"explore\":true}",
        )];
        let text = render_postmortem(&report);
        assert!(text.contains("0.0000     inf        yes"), "{text}");
        assert!(text.contains("q=0.0000 bound=inf explore"), "{text}");
        let doc = postmortem_json(&report);
        assert!(doc.contains("\"q\":0,\"bound\":null,"), "{doc}");
        assert!(json::parse(&doc).is_ok(), "{doc}");
    }
}
