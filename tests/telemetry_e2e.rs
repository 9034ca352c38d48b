//! End-to-end telemetry replay test (requires `--features telemetry`).
//!
//! Runs a bandit-prefetched single-core simulation with the recorder
//! installed, exports the telemetry as JSON lines, and checks that the
//! exported event log *reconstructs* the run: per-arm `arm_pulled` counts
//! must equal the per-arm counts in the bandit's own selection history, and
//! the exported counters must agree with the simulator's `RunStats`. It then
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
use mab_telemetry::blackbox::{self, json_bool, json_f64, json_u64};
use mab_workloads::suites;

const SEED: u64 = 11;
const INSTRUCTIONS: u64 = 150_000;

/// Extracts the unsigned integer following `"key":` on a JSONL line.
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} field in: {line}"));
    line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} value in: {line}"))
}

#[test]
fn exported_event_log_replays_the_prefetch_run() {
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

    // Nothing may have been evicted, or the replay below would be partial.
    let meta = text.lines().next().expect("meta line");
    assert!(meta.contains("\"kind\":\"meta\""), "{meta}");
    assert_eq!(field_u64(meta, "events_dropped"), 0, "{meta}");

    // Replay: per-arm pull counts reconstructed from the exported events
    // must equal the per-arm counts in the bandit's selection history.
    let n_arms = history.iter().map(|&(_, arm)| arm).max().unwrap() + 1;
    let mut from_events = vec![0u64; n_arms];
    let mut pulls_in_log = 0u64;
    for line in text
        .lines()
        .filter(|l| l.contains("\"kind\":\"arm_pulled\""))
    {
        assert_eq!(field_u64(line, "agent"), SEED, "{line}");
        from_events[field_u64(line, "arm") as usize] += 1;
        pulls_in_log += 1;
    }
    let mut from_history = vec![0u64; n_arms];
    for &(_, arm) in &history {
        from_history[arm] += 1;
    }
    assert_eq!(from_events, from_history, "per-arm pull counts diverge");

    // Counter lines agree with the event log and the agent's final state:
    // every selection is one history entry, and all but the final pending
    // selection completed a reward step.
    assert_eq!(pulls_in_log, history.len() as u64);
    let counter = |stat: &str| {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"stat\":\"{stat}\"")))
            .unwrap_or_else(|| panic!("no {stat} counter in export"));
        field_u64(line, "value")
    };
    assert_eq!(counter("arm_pulls"), history.len() as u64);
    assert_eq!(counter("rewards_observed"), steps);
    assert_eq!(steps, history.len() as u64 - 1);

    // Simulator counters agree with the run's own statistics.
    assert_eq!(counter("prefetch_issued"), stats.prefetch.issued);
    assert_eq!(counter("l2_demand_hit"), stats.l2.demand_hits);
    assert_eq!(counter("l2_demand_miss"), stats.l2.demand_misses);

    // The reward histogram saw exactly one observation per completed step.
    let hist = text
        .lines()
        .find(|l| l.contains("\"hist\":\"reward\""))
        .expect("reward histogram in export");
    assert_eq!(field_u64(hist, "count"), steps);

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

    // JSONL trace export round-trips the same decision count.
    let mut trace_out = Vec::new();
    mab_telemetry::trace::write_trace_jsonl(rec.trace(), &mut trace_out).expect("trace export");
    let trace_text = String::from_utf8(trace_out).expect("utf8");
    let meta_line = trace_text.lines().next().expect("trace_meta line");
    assert_eq!(
        field_u64(meta_line, "decisions_retained"),
        history.len() as u64
    );
    assert_eq!(
        trace_text
            .lines()
            .filter(|l| l.contains("\"kind\":\"decision\""))
            .count(),
        history.len()
    );

    // The Perfetto export renders one slice per decision plus the sampled
    // memsim occupancy counters.
    let mut perfetto = Vec::new();
    mab_telemetry::perfetto::write_trace_json(rec, &mut perfetto).expect("perfetto export");
    let perfetto = String::from_utf8(perfetto).expect("utf8");
    assert!(perfetto.contains("\"traceEvents\""));
    assert_eq!(
        perfetto.matches("\"ph\":\"X\"").count(),
        history.len(),
        "one duration slice per decision"
    );
    assert!(perfetto.contains("dram_backlog"), "occupancy track missing");

    // --- One probe, two sinks ---------------------------------------------
    // A directly driven DUCB agent with the black box armed: each decision
    // the black box kept must have a trace record for the same agent and
    // epoch carrying the same arm, explore flag, q and bound (at the
    // report's six decimals).
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
    for event in boxed {
        let line = &event.line;
        assert_eq!(json_u64(line, "agent"), Some(AGENT), "{line}");
        let step = json_u64(line, "step").expect("step");
        let record = traced
            .iter()
            .find(|r| r.epoch == step)
            .unwrap_or_else(|| panic!("no trace record for step {step}"));
        let arm = record.chosen;
        assert_eq!(json_u64(line, "arm"), Some(arm as u64), "{line}");
        assert_eq!(json_bool(line, "explore"), Some(record.explore), "{line}");
        let six = |v: f64| format!("{v:.6}");
        assert_eq!(
            six(json_f64(line, "q").unwrap()),
            six(record.arms[arm].q),
            "{line}"
        );
        assert_eq!(
            six(json_f64(line, "bound").unwrap()),
            six(record.arms[arm].bound),
            "{line}"
        );
        explored += usize::from(record.explore);
    }
    assert!(
        explored > 0 && explored < STEPS as usize,
        "the check should see both explore and exploit decisions ({explored} explored)"
    );
}
