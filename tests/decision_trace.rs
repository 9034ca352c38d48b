//! Decision records of concurrent runs (requires `--features telemetry`).
//!
//! A sweep gives every arm's bandit the same `--seed`, so one agent id can
//! belong to several runs at once, and each worker thread publishes its own
//! run's cycle. A decision's record must still take its own reward and its
//! own worker's cycle.
//!
//! The recorder is process-global: each test finds its records by an agent
//! seed no other test uses.
#![cfg(feature = "telemetry")]

use mab_core::{AlgorithmKind, BanditAgent, BanditConfig};
use mab_telemetry::DecisionRecord;
use std::sync::Barrier;

fn agent(seed: u64) -> BanditAgent {
    BanditAgent::new(
        BanditConfig::builder(3)
            .algorithm(AlgorithmKind::Ucb { c: 0.5 })
            .seed(seed)
            .build()
            .expect("valid config"),
    )
}

/// The retained decisions of agent `seed`, oldest first.
fn records(seed: u64) -> Vec<DecisionRecord> {
    mab_telemetry::install()
        .trace()
        .decisions()
        .into_iter()
        .map(|d| d.record)
        .filter(|r| r.agent == seed)
        .collect()
}

#[test]
fn interleaved_same_seed_agents_keep_their_own_rewards() {
    const SEED: u64 = 0xA77;
    let rec = mab_telemetry::install();
    let (mut a, mut b) = (agent(SEED), agent(SEED));
    for _ in 0..4 {
        a.select_arm();
        b.select_arm();
        a.observe_reward(1.0);
        b.observe_reward(2.0);
    }
    let rewards: Vec<f64> = records(SEED).iter().map(|r| r.reward).collect();
    assert_eq!(rewards, [1.0, 2.0].repeat(4));
    assert_eq!(rec.trace().unattributed(), 0);
}

#[test]
fn a_decision_carries_its_own_workers_cycle() {
    const SEED: u64 = 0xC10C;
    mab_telemetry::install();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            mab_telemetry::clock!(100);
            barrier.wait();
            // The other worker publishes its run's cycle here.
            barrier.wait();
            agent(SEED).select_arm();
        });
        s.spawn(|| {
            barrier.wait();
            mab_telemetry::clock!(999_999);
            barrier.wait();
        });
    });
    let cycles: Vec<u64> = records(SEED).iter().map(|r| r.cycle).collect();
    assert_eq!(cycles, [100]);
}
