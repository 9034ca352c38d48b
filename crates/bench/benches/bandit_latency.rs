//! The Bandit agent's own cost: the software analog of §5.4's
//! arm-selection latency, one table of agent cases.
//!
//! - `decision/ducb/N`: one steady-state select + observe of the default
//!   DUCB agent at N arms;
//! - `steps_1000/<case>`: 1,000 decisions from construction at 11 arms,
//!   for each algorithm and for the design choices DESIGN.md calls out
//!   (discounting, reward normalization, the round-robin restart). What
//!   these choices do to achieved IPC is the `ablations` experiment's
//!   subject, not this bench's;
//! - `potential/<type>`: one DUCB potential in `f64` and in Q16.16
//!   (`mab_core::fixed`), the arithmetic a hardware agent would use.
//!
//! Every case is timed by [`mab_bench::time_ns`]. Nothing is gated: the
//! bench prints one line per case.
//!
//! Run with: `cargo bench -p mab-bench --bench bandit_latency`

use mab_bench::time_ns;
use mab_core::fixed::{potential_fixed, Fixed};
use mab_core::{AlgorithmKind, ArmId, BanditAgent, BanditConfig};
use std::hint::black_box;

/// The paper's DUCB, the agent's default algorithm.
const DUCB: AlgorithmKind = AlgorithmKind::Ducb {
    gamma: 0.999,
    c: 0.04,
};

/// Decisions per `steps_1000` run.
const STEPS: u64 = 1000;

/// The `steps_1000` cases: name, algorithm, reward normalization and
/// round-robin restart probability. The default agent (DUCB γ 0.999,
/// c 0.04, normalization on, no restart) appears once, as
/// `ducb_gamma_0.999`.
const RUNS: &[(&str, AlgorithmKind, bool, f64)] = &[
    (
        "epsilon_greedy_0.1",
        AlgorithmKind::EpsilonGreedy { epsilon: 0.1 },
        true,
        0.0,
    ),
    ("ucb_0.04", AlgorithmKind::Ucb { c: 0.04 }, true, 0.0),
    ("ducb_gamma_0.999", DUCB, true, 0.0),
    (
        "ducb_gamma_0.9",
        AlgorithmKind::Ducb {
            gamma: 0.9,
            c: 0.04,
        },
        true,
        0.0,
    ),
    ("single", AlgorithmKind::Single, true, 0.0),
    (
        "periodic_30_4",
        AlgorithmKind::Periodic {
            exploit_len: 30,
            window: 4,
        },
        true,
        0.0,
    ),
    ("ducb_normalization_off", DUCB, false, 0.0),
    ("ducb_rr_restart_0.001", DUCB, true, 0.001),
];

fn agent(arms: usize, algorithm: AlgorithmKind, normalize: bool, restart: f64) -> BanditAgent {
    BanditAgent::new(
        BanditConfig::builder(arms)
            .algorithm(algorithm)
            .normalize_rewards(normalize)
            .rr_restart_prob(restart)
            .build()
            .expect("valid config"),
    )
}

/// One decision: select an arm, then observe a reward that depends on the
/// arm and the step.
fn decide(agent: &mut BanditAgent, step: u64) -> ArmId {
    let arm = agent.select_arm();
    agent.observe_reward(black_box((arm.index() as f64 + (step % 5) as f64) * 0.2));
    arm
}

fn main() {
    for arms in [2, 6, 11, 32, 64] {
        let mut agent = agent(arms, DUCB, true, 0.0);
        let mut step = 0;
        let ns = time_ns(|| {
            step += 1;
            decide(&mut agent, step)
        });
        println!(
            "{:<36} {ns:>12.1} ns/decision",
            format!("decision/ducb/{arms}")
        );
    }

    for &(name, algorithm, normalize, restart) in RUNS {
        let ns = time_ns(|| {
            let mut agent = agent(11, algorithm, normalize, restart);
            for step in 0..STEPS {
                decide(&mut agent, step);
            }
            agent.best_arm()
        });
        println!(
            "{:<36} {ns:>12.1} ns/run {:>8.1} ns/step",
            format!("steps_1000/{name}"),
            ns / STEPS as f64
        );
    }

    let ns = time_ns(|| {
        let (r, n, n_total) = black_box((0.5f64, 7.0f64, 120.0f64));
        r + 0.04 * (n_total.ln() / n).sqrt()
    });
    println!("{:<36} {ns:>12.1} ns/potential", "potential/f64");
    let fixed = [0.5, 7.0, 120.0, 0.04].map(Fixed::from_f64);
    let ns = time_ns(|| {
        let [r, n, n_total, c] = black_box(fixed);
        potential_fixed(r, n, n_total, c)
    });
    println!("{:<36} {ns:>12.1} ns/potential", "potential/q16_16");
}
