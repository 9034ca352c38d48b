//! End-to-end telemetry replay test (requires `--features telemetry`).
//!
//! Runs a bandit-prefetched single-core simulation with the recorder
//! installed, exports the decision trace and the telemetry as JSON lines,
//! and checks that they *reconstruct* the run: per-arm counts of the
//! exported decisions must equal the per-arm counts in the bandit's own
//! selection history, and the exported counters must agree with the
//! simulator's `RunStats`. It then
//! arms the black box, drives a DUCB agent directly and dumps a crash
//! report: every black-box decision must match its trace record, because
//! the agent probes each decision once and feeds both sinks the same values.
//!
//! One test function: the recorder is process-global, so a second test in
//! this binary would push into the same rings and break the exact counts.
#![cfg(feature = "telemetry")]

use mab_core::{AlgorithmKind, BanditAgent, BanditConfig};
use mab_memsim::{config::SystemConfig, System};
use mab_prefetch::{shared::SharedPrefetcher, BanditL2};
use mab_telemetry::blackbox;
use mab_telemetry::json::{self, JsonValue};
use mab_workloads::suites;

const SEED: u64 = 11;
const INSTRUCTIONS: u64 = 150_000;

/// Parses every line of a JSONL export with the workspace's codec.
fn parse_lines(text: &str) -> Vec<JsonValue> {
    text.lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect()
}

/// The string field `key` of a parsed line (`""` when absent).
fn str_field<'a>(line: &'a JsonValue, key: &str) -> &'a str {
    line.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
}

/// The unsigned integer field `key` of a parsed line.
fn u64_field(line: &JsonValue, key: &str) -> u64 {
    line.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no integer {key} in {line:?}"))
}

#[test]
fn exported_decision_log_replays_the_prefetch_run() {
    let rec = mab_telemetry::install();

    let mut bandit = BanditL2::paper_default(SEED);
    bandit.record_history();
    let handle = SharedPrefetcher::new(bandit);
    let mut system = System::single_core(SystemConfig::default());
    system.set_prefetcher(0, Box::new(handle.clone()));
    let app = suites::app_by_name("cactus").expect("catalog app");
    let stats = system.run(&mut app.trace(SEED), INSTRUCTIONS);

    let history = handle.with(|b| b.history().expect("history enabled").to_vec());
    let steps = handle.with(|b| b.agent().steps());
    assert!(
        history.len() >= 8,
        "run too short to exercise the bandit: {} selections",
        history.len()
    );

    let mut out = Vec::new();
    rec.export_jsonl(&mut out).expect("export");
    let text = String::from_utf8(out).expect("utf8");

    let lines = parse_lines(&text);
    let of_kind = |kind: &'static str| lines.iter().filter(move |l| str_field(l, "kind") == kind);

    let meta = lines.first().expect("meta line");
    assert_eq!(str_field(meta, "kind"), "meta", "{meta:?}");
    assert_eq!(u64_field(meta, "events_dropped"), 0, "{meta:?}");
    // The event ring holds occupancy samples only.
    assert!(
        lines.iter().skip(1).all(|l| matches!(
            str_field(l, "kind"),
            "counter" | "histogram" | "span" | "occupancy"
        )),
        "unexpected line kind in the export"
    );

    // Replay: per-arm pull counts reconstructed from the exported decision
    // log must equal the per-arm counts in the bandit's selection history.
    let mut trace_out = Vec::new();
    mab_telemetry::trace::write_trace_jsonl(rec.trace(), &mut trace_out).expect("trace export");
    let trace_lines = parse_lines(&String::from_utf8(trace_out).expect("utf8"));
    let trace_meta = trace_lines.first().expect("trace_meta line");
    assert_eq!(str_field(trace_meta, "kind"), "trace_meta");
    // Nothing may have been evicted, or the replay below would be partial.
    assert_eq!(u64_field(trace_meta, "decisions_dropped"), 0);
    let n_arms = history.iter().map(|&(_, arm)| arm).max().unwrap() + 1;
    let mut from_log = vec![0u64; n_arms];
    let mut pulls_in_log = 0u64;
    for line in trace_lines
        .iter()
        .filter(|l| str_field(l, "kind") == "decision")
    {
        assert_eq!(u64_field(line, "agent"), SEED, "{line:?}");
        from_log[u64_field(line, "arm") as usize] += 1;
        pulls_in_log += 1;
    }
    let mut from_history = vec![0u64; n_arms];
    for &(_, arm) in &history {
        from_history[arm] += 1;
    }
    assert_eq!(from_log, from_history, "per-arm pull counts diverge");

    // Counter lines agree with the decision log and the agent's final
    // state: every selection is one history entry, and all but the final
    // pending selection completed a reward step.
    assert_eq!(pulls_in_log, history.len() as u64);
    let counter = |stat: &str| {
        let line = of_kind("counter")
            .find(|l| str_field(l, "stat") == stat)
            .unwrap_or_else(|| panic!("no {stat} counter in export"));
        u64_field(line, "value")
    };
    assert_eq!(counter("arm_pulls"), history.len() as u64);
    assert_eq!(counter("rewards_observed"), steps);
    assert_eq!(steps, history.len() as u64 - 1);

    // Simulator counters agree with the run's own statistics.
    assert_eq!(counter("prefetch_requested"), stats.prefetch.requested);
    assert_eq!(counter("prefetch_issued"), stats.prefetch.issued);
    assert_eq!(counter("l2_demand_hit"), stats.l2.demand_hits);
    assert_eq!(counter("l2_demand_miss"), stats.l2.demand_misses);
    assert_eq!(counter("l1_fill"), stats.l1.fills);
    assert_eq!(counter("l2_fill"), stats.l2.fills);
    assert_eq!(counter("llc_fill"), stats.llc.fills);

    // The reward histogram saw exactly one observation per completed step.
    let hist = of_kind("histogram")
        .find(|l| str_field(l, "hist") == "reward")
        .expect("reward histogram in export");
    assert_eq!(u64_field(hist, "count"), steps);

    // --- Decision trace replay -------------------------------------------
    // One DecisionRecord per selection, in history order, with every step's
    // delayed reward attributed (only the final pending selection stays
    // unattributed).
    let decisions = rec.trace().decisions();
    assert_eq!(rec.trace().dropped(), 0);
    assert_eq!(rec.trace().unattributed(), 0);
    assert_eq!(decisions.len(), history.len());
    let attributed = decisions
        .iter()
        .filter(|d| d.record.reward.is_finite())
        .count() as u64;
    assert_eq!(attributed, steps);
    for (d, &(_, arm)) in decisions.iter().zip(&history) {
        assert_eq!(d.record.chosen, arm, "trace arm diverges from history");
        assert_eq!(d.record.agent, SEED);
        // The probe covers the full arm set, not just the arms pulled so far.
        assert_eq!(
            d.record.arms.len(),
            mab_prefetch::composite::PAPER_ARMS.len()
        );
    }
    let cycles: Vec<u64> = decisions.iter().map(|d| d.record.cycle).collect();
    assert!(
        cycles.windows(2).all(|w| w[0] <= w[1]),
        "cycles not monotone"
    );
    assert!(cycles.last().copied().unwrap() > 0, "clock never published");

    assert_eq!(
        u64_field(trace_meta, "decisions_retained"),
        history.len() as u64
    );

    // The Perfetto export renders one slice per decision plus the sampled
    // memsim occupancy counters.
    let mut perfetto = Vec::new();
    mab_telemetry::perfetto::write_trace_json(rec, &mut perfetto).expect("perfetto export");
    let perfetto = json::parse(&String::from_utf8(perfetto).expect("utf8")).expect("trace JSON");
    let trace_events = perfetto
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents");
    assert_eq!(
        trace_events
            .iter()
            .filter(|e| str_field(e, "ph") == "X")
            .count(),
        history.len(),
        "one duration slice per decision"
    );
    assert!(
        trace_events
            .iter()
            .any(|e| str_field(e, "name").starts_with("dram_backlog")),
        "occupancy track missing"
    );

    // --- One probe, two sinks ---------------------------------------------
    // A directly driven DUCB agent with the black box armed: each decision
    // the black box kept must have a trace record for the same agent and
    // epoch carrying the same arm, explore flag, q and bound (at the
    // report's six decimals; the report writes an unpulled arm's infinite
    // bound as `null`).
    const AGENT: u64 = 0xD0CB;
    const STEPS: u64 = 60;
    let crash_dir = std::env::temp_dir().join(format!("mab-e2e-blackbox-{}", std::process::id()));
    assert!(
        blackbox::install("telemetry_e2e", "e2e", &[], &crash_dir),
        "MAB_BLACKBOX=0 disarms the black box this check needs"
    );
    let mut agent = BanditAgent::new(
        BanditConfig::builder(6)
            .algorithm(AlgorithmKind::Ducb {
                gamma: 0.975,
                c: 0.01,
            })
            .seed(AGENT)
            .build()
            .expect("valid config"),
    );
    for step in 0..STEPS {
        let arm = agent.select_arm();
        agent.observe_reward(0.4 + 0.1 * arm.index() as f64 + 0.05 * (step % 4) as f64);
    }
    let path = blackbox::dump("test", "e2e probe check", None, false).expect("crash report");
    blackbox::set_enabled(false);
    let report = blackbox::read_report(&path).expect("parse crash report");
    let _ = std::fs::remove_dir_all(&crash_dir);

    let traced: Vec<_> = rec
        .trace()
        .decisions()
        .into_iter()
        .map(|d| d.record)
        .filter(|r| r.agent == AGENT)
        .collect();
    assert_eq!(traced.len() as u64, STEPS);
    let boxed = report.last_decisions();
    assert_eq!(boxed.len() as u64, STEPS, "black box lost decisions");
    let mut explored = 0;
    let mut unpulled = 0;
    for event in boxed {
        let line = &event.fields;
        assert_eq!(u64_field(line, "agent"), AGENT, "{line:?}");
        let step = u64_field(line, "step");
        let record = traced
            .iter()
            .find(|r| r.epoch == step)
            .unwrap_or_else(|| panic!("no trace record for step {step}"));
        let arm = record.chosen;
        assert_eq!(u64_field(line, "arm"), arm as u64, "{line:?}");
        assert_eq!(
            line.get("explore").and_then(JsonValue::as_bool),
            Some(record.explore),
            "{line:?}"
        );
        let six = |v: f64| format!("{v:.6}");
        let float = |key: &str| line.get(key).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(six(float("q")), six(record.arms[arm].q), "{line:?}");
        let bound = if line.get("bound") == Some(&JsonValue::Null) {
            unpulled += 1;
            f64::INFINITY
        } else {
            float("bound")
        };
        assert_eq!(six(bound), six(record.arms[arm].bound), "{line:?}");
        explored += usize::from(record.explore);
    }
    assert!(
        explored > 0 && explored < STEPS as usize,
        "the check should see both explore and exploit decisions ({explored} explored)"
    );
    assert!(
        unpulled > 0,
        "the round-robin warm-up should record unpulled arms' infinite bounds"
    );
}
