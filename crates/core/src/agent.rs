//! The Micro-Armed Bandit agent: Algorithm 1 plus the §4.3 modifications.

use crate::algorithms::{Algorithm, AlgorithmKind};
use crate::arm::ArmId;
use crate::error::ConfigError;
use crate::tables::BanditTables;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Where the agent currently is in the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentPhase {
    /// Initial round-robin phase: every arm is tried once.
    RoundRobin,
    /// Main loop: the configured MAB algorithm drives selection.
    Main,
    /// A probabilistically triggered forced round-robin re-sweep
    /// (§4.3, multicore interference mitigation).
    RestartSweep,
}

impl AgentPhase {
    /// Stable snake_case name used in decision records.
    pub const fn telemetry_name(self) -> &'static str {
        match self {
            AgentPhase::RoundRobin => "round_robin",
            AgentPhase::Main => "main",
            AgentPhase::RestartSweep => "restart_sweep",
        }
    }
}

impl fmt::Display for AgentPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentPhase::RoundRobin => write!(f, "round-robin"),
            AgentPhase::Main => write!(f, "main"),
            AgentPhase::RestartSweep => write!(f, "restart-sweep"),
        }
    }
}

/// Configuration for a [`BanditAgent`].
///
/// Build one with [`BanditConfig::builder`]:
///
/// ```
/// use mab_core::{AlgorithmKind, BanditConfig};
///
/// // The paper's SMT configuration (Table 6): DUCB, γ=0.975, c=0.01, 6 arms.
/// let config = BanditConfig::builder(6)
///     .algorithm(AlgorithmKind::Ducb { gamma: 0.975, c: 0.01 })
///     .build()?;
/// assert_eq!(config.arms(), 6);
/// # Ok::<(), mab_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BanditConfig {
    arms: usize,
    algorithm: AlgorithmKind,
    normalize_rewards: bool,
    rr_restart_prob: f64,
    seed: u64,
}

impl BanditConfig {
    /// Starts building a configuration for `arms` arms.
    pub fn builder(arms: usize) -> BanditConfigBuilder {
        BanditConfigBuilder {
            arms,
            algorithm: AlgorithmKind::Ducb {
                gamma: 0.999,
                c: 0.04,
            },
            normalize_rewards: true,
            rr_restart_prob: 0.0,
            seed: 0xBA_4D17,
        }
    }

    /// Number of arms.
    pub fn arms(&self) -> usize {
        self.arms
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// Whether §4.3 reward normalization is enabled.
    pub fn normalizes_rewards(&self) -> bool {
        self.normalize_rewards
    }

    /// The §4.3 probabilistic round-robin restart probability.
    pub fn rr_restart_prob(&self) -> f64 {
        self.rr_restart_prob
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Builder for [`BanditConfig`].
#[derive(Debug, Clone)]
pub struct BanditConfigBuilder {
    arms: usize,
    algorithm: AlgorithmKind,
    normalize_rewards: bool,
    rr_restart_prob: f64,
    seed: u64,
}

impl BanditConfigBuilder {
    /// Sets the MAB algorithm (default: DUCB with the paper's prefetching
    /// hyperparameters, γ=0.999, c=0.04).
    pub fn algorithm(&mut self, algorithm: AlgorithmKind) -> &mut Self {
        self.algorithm = algorithm;
        self
    }

    /// Enables or disables reward normalization by the post-round-robin
    /// average reward (§4.3 modification 1; default on).
    pub fn normalize_rewards(&mut self, on: bool) -> &mut Self {
        self.normalize_rewards = on;
        self
    }

    /// Sets the probability, per main-loop step, of restarting the
    /// round-robin phase without resetting state (§4.3 modification 2;
    /// default 0; the paper uses 0.001 in 4-core runs).
    pub fn rr_restart_prob(&mut self, p: f64) -> &mut Self {
        self.rr_restart_prob = p;
        self
    }

    /// Seeds the agent's RNG (ε-greedy draws and restart coin flips).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if there are zero arms, the algorithm
    /// hyperparameters are out of range, or the restart probability is not a
    /// probability.
    pub fn build(&self) -> Result<BanditConfig, ConfigError> {
        if self.arms == 0 {
            return Err(ConfigError::NoArms);
        }
        self.algorithm.validate(self.arms)?;
        if !(0.0..=1.0).contains(&self.rr_restart_prob) || self.rr_restart_prob.is_nan() {
            return Err(ConfigError::InvalidRestartProbability(self.rr_restart_prob));
        }
        Ok(BanditConfig {
            arms: self.arms,
            algorithm: self.algorithm,
            normalize_rewards: self.normalize_rewards,
            rr_restart_prob: self.rr_restart_prob,
            seed: self.seed,
        })
    }
}

/// The Micro-Armed Bandit agent (paper §5).
///
/// Drive it with an alternating `select_arm` / `observe_reward` loop; each
/// pair is one *bandit step*. The duration of a step (1,000 L2 demand
/// accesses for prefetching, a number of Hill-Climbing epochs for SMT fetch)
/// is the caller's business — the agent only sees the reward collected at
/// the end of the step.
///
/// # Example
///
/// ```
/// use mab_core::{AlgorithmKind, BanditAgent, BanditConfig};
///
/// let mut agent = BanditAgent::new(
///     BanditConfig::builder(3)
///         .algorithm(AlgorithmKind::Ucb { c: 0.5 })
///         .build()?,
/// );
/// for _ in 0..100 {
///     let arm = agent.select_arm();
///     agent.observe_reward([0.1, 0.2, 0.9][arm.index()]);
/// }
/// assert_eq!(agent.best_arm().index(), 2);
/// # Ok::<(), mab_core::ConfigError>(())
/// ```
///
/// # Panics
///
/// `select_arm` and `observe_reward` must strictly alternate; calling either
/// twice in a row panics, because it would correspond to hardware reading a
/// performance counter for a step that never ran.
pub struct BanditAgent {
    config: BanditConfig,
    tables: BanditTables,
    algorithm: Box<dyn Algorithm + Send>,
    rng: StdRng,
    phase: AgentPhase,
    /// Next arm index within a round-robin (initial or restart) sweep.
    sweep_next: usize,
    /// Arm currently being tested; `None` between steps.
    pending: Option<ArmId>,
    /// Ring number of the pending decision's trace record, while a
    /// recorder is live; its reward is attributed by this number.
    traced: Option<u64>,
    /// Reward normalizer (`r_avg` from §4.3); 1.0 until the initial
    /// round-robin phase completes or when normalization is disabled.
    normalizer: f64,
    steps: u64,
}

impl fmt::Debug for BanditAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BanditAgent")
            .field("config", &self.config)
            .field("phase", &self.phase)
            .field("steps", &self.steps)
            .field("tables", &self.tables)
            .finish()
    }
}

impl BanditAgent {
    /// Creates an agent from a validated configuration.
    pub fn new(config: BanditConfig) -> Self {
        let algorithm = config.algorithm.instantiate(config.arms);
        let rng = StdRng::seed_from_u64(config.seed);
        BanditAgent {
            tables: BanditTables::new(config.arms),
            algorithm,
            rng,
            phase: AgentPhase::RoundRobin,
            sweep_next: 0,
            pending: None,
            traced: None,
            normalizer: 1.0,
            steps: 0,
            config,
        }
    }

    /// Selects the arm to apply for the next bandit step.
    ///
    /// # Panics
    ///
    /// Panics if called again before [`BanditAgent::observe_reward`].
    pub fn select_arm(&mut self) -> ArmId {
        mab_telemetry::span!(BanditSelect);
        assert!(
            self.pending.is_none(),
            "select_arm called twice without an intervening observe_reward"
        );
        let arm = match self.phase {
            AgentPhase::RoundRobin | AgentPhase::RestartSweep => {
                let arm = ArmId::new(self.sweep_next);
                if self.phase == AgentPhase::RestartSweep {
                    // Restart sweeps keep updating counts via the algorithm
                    // (state is NOT reset, per §4.3).
                    self.algorithm.update_selections(&mut self.tables, arm);
                }
                arm
            }
            AgentPhase::Main => {
                if self.config.rr_restart_prob > 0.0
                    && self.rng.gen::<f64>() < self.config.rr_restart_prob
                {
                    self.phase = AgentPhase::RestartSweep;
                    self.sweep_next = 0;
                    mab_telemetry::count!(EpochResets);
                    let arm = ArmId::new(0);
                    self.algorithm.update_selections(&mut self.tables, arm);
                    arm
                } else {
                    let arm = self.algorithm.next_arm(&self.tables, &mut self.rng);
                    self.algorithm.update_selections(&mut self.tables, arm);
                    arm
                }
            }
        };
        self.pending = Some(arm);
        mab_telemetry::count!(ArmPulls);
        self.traced = self.record_decision(arm);
        arm
    }

    /// Captures the decision for both observation sinks from one probe of
    /// the algorithm's selection bounds and one explore/exploit
    /// classification:
    ///
    /// - the always-on black box gets the chosen arm with its mean reward
    ///   and bound (no `telemetry` feature needed);
    /// - a live recorder's trace ring gets the full provenance — per-arm
    ///   Q-values, bounds and pull counts — and [`BanditAgent::observe_reward`]
    ///   later attributes the delayed reward to the ring number returned.
    ///
    /// With neither sink live this costs a relaxed load and a branch per
    /// sink (the recorder's folds away without the `telemetry` feature).
    fn record_decision(&self, arm: ArmId) -> Option<u64> {
        let recorder = if mab_telemetry::enabled() {
            mab_telemetry::recorder()
        } else {
            None
        };
        if recorder.is_none() && !mab_telemetry::blackbox::is_on() {
            return None;
        }
        let mut bounds = Vec::with_capacity(self.config.arms);
        self.algorithm.probe_bounds(&self.tables, &mut bounds);
        let explore = self.phase != AgentPhase::Main || arm != self.tables.best_by_reward();
        let q = self.tables.reward(arm);
        mab_telemetry::blackbox::decision(
            self.config.seed,
            self.steps,
            arm.index(),
            q,
            bounds.get(arm.index()).copied().unwrap_or(q),
            explore,
        );
        recorder.map(|rec| {
            let arms = self
                .tables
                .iter()
                .enumerate()
                .map(|(i, (_, r, n))| mab_telemetry::ArmProbe {
                    q: r,
                    bound: bounds.get(i).copied().unwrap_or(r),
                    pulls: n,
                })
                .collect();
            rec.trace().push(mab_telemetry::DecisionRecord {
                agent: self.config.seed,
                epoch: self.steps,
                cycle: mab_telemetry::clock(),
                chosen: arm.index(),
                explore,
                phase: self.phase.telemetry_name(),
                arms,
                reward: f64::NAN,
                normalized: f64::NAN,
            })
        })
    }

    /// Delivers the reward collected at the end of the current bandit step.
    ///
    /// # Panics
    ///
    /// Panics if no arm selection is pending.
    pub fn observe_reward(&mut self, r_step: f64) {
        mab_telemetry::span!(BanditUpdate);
        let arm = self
            .pending
            .take()
            .expect("observe_reward called without a pending select_arm");
        self.steps += 1;
        mab_telemetry::count!(RewardsObserved);
        mab_telemetry::record!(Reward, r_step);
        if let Some(seq) = self.traced.take() {
            if let Some(rec) = mab_telemetry::recorder() {
                rec.trace().attribute(seq, r_step, r_step / self.normalizer);
            }
        }
        match self.phase {
            AgentPhase::RoundRobin => {
                self.tables.record_initial(arm, r_step);
                self.sweep_next += 1;
                if self.sweep_next == self.config.arms {
                    self.finish_initial_round_robin();
                }
            }
            AgentPhase::RestartSweep => {
                self.algorithm
                    .update_reward(&mut self.tables, arm, r_step / self.normalizer);
                self.sweep_next += 1;
                if self.sweep_next == self.config.arms {
                    self.phase = AgentPhase::Main;
                    mab_telemetry::count!(QSnapshots);
                }
            }
            AgentPhase::Main => {
                self.algorithm
                    .update_reward(&mut self.tables, arm, r_step / self.normalizer);
            }
        }
    }

    fn finish_initial_round_robin(&mut self) {
        if self.config.normalize_rewards {
            let r_avg = self.tables.average_reward();
            if r_avg.abs() > f64::EPSILON {
                self.normalizer = r_avg;
                self.tables.normalize_rewards(r_avg);
            }
        }
        self.phase = AgentPhase::Main;
        mab_telemetry::count!(QSnapshots);
    }

    /// The arm with the highest average (normalized) reward so far.
    pub fn best_arm(&self) -> ArmId {
        self.tables.best_by_reward()
    }

    /// The agent's current phase in Algorithm 1.
    pub fn phase(&self) -> AgentPhase {
        self.phase
    }

    /// Number of completed bandit steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Read access to the nTable/rTable state.
    pub fn tables(&self) -> &BanditTables {
        &self.tables
    }

    /// The configuration the agent was built with.
    pub fn config(&self) -> &BanditConfig {
        &self.config
    }

    /// The reward normalizer `r_avg` in effect (1.0 before the initial
    /// round-robin phase completes or when normalization is disabled).
    pub fn normalizer(&self) -> f64 {
        self.normalizer
    }

    /// True while the agent is in its initial round-robin phase.
    ///
    /// Callers use this to apply the longer *bandit step-RR* duration
    /// (§5.3): during initial round-robin the SMT use case holds each arm
    /// for 32 Hill-Climbing epochs instead of 2.
    pub fn in_initial_round_robin(&self) -> bool {
        self.phase == AgentPhase::RoundRobin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ducb_agent(arms: usize) -> BanditAgent {
        BanditAgent::new(
            BanditConfig::builder(arms)
                .algorithm(AlgorithmKind::Ducb {
                    gamma: 0.99,
                    c: 0.1,
                })
                .seed(1)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn initial_phase_tries_every_arm_once_in_order() {
        let mut agent = ducb_agent(4);
        for expected in 0..4 {
            assert!(agent.in_initial_round_robin());
            let arm = agent.select_arm();
            assert_eq!(arm.index(), expected);
            agent.observe_reward(0.5);
        }
        assert_eq!(agent.phase(), AgentPhase::Main);
    }

    #[test]
    fn normalization_kicks_in_after_round_robin() {
        let mut agent = ducb_agent(2);
        agent.select_arm();
        agent.observe_reward(2.0);
        agent.select_arm();
        agent.observe_reward(4.0);
        // r_avg = 3.0; stored rewards are normalized.
        assert!((agent.normalizer() - 3.0).abs() < 1e-12);
        let r0 = agent.tables().reward(ArmId::new(0));
        let r1 = agent.tables().reward(ArmId::new(1));
        assert!((r0 - 2.0 / 3.0).abs() < 1e-12);
        assert!((r1 - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_can_be_disabled() {
        let mut agent = BanditAgent::new(
            BanditConfig::builder(2)
                .normalize_rewards(false)
                .build()
                .unwrap(),
        );
        agent.select_arm();
        agent.observe_reward(2.0);
        agent.select_arm();
        agent.observe_reward(4.0);
        assert_eq!(agent.normalizer(), 1.0);
        assert_eq!(agent.tables().reward(ArmId::new(1)), 4.0);
    }

    #[test]
    fn zero_average_reward_does_not_divide_by_zero() {
        let mut agent = ducb_agent(2);
        agent.select_arm();
        agent.observe_reward(0.0);
        agent.select_arm();
        agent.observe_reward(0.0);
        assert_eq!(agent.normalizer(), 1.0);
        let arm = agent.select_arm();
        agent.observe_reward(1.0);
        assert!(agent.tables().reward(arm).is_finite());
    }

    #[test]
    fn converges_on_best_arm() {
        let mut agent = ducb_agent(5);
        let rewards = [0.3, 0.1, 0.8, 0.5, 0.2];
        for _ in 0..400 {
            let arm = agent.select_arm();
            agent.observe_reward(rewards[arm.index()]);
        }
        assert_eq!(agent.best_arm().index(), 2);
    }

    #[test]
    fn restart_sweep_revisits_all_arms_without_reset() {
        let mut agent = BanditAgent::new(
            BanditConfig::builder(3)
                .algorithm(AlgorithmKind::Ucb { c: 0.1 })
                .rr_restart_prob(1.0) // force a restart on the first main step
                .seed(3)
                .build()
                .unwrap(),
        );
        // Initial RR.
        for _ in 0..3 {
            let arm = agent.select_arm();
            agent.observe_reward(0.2 * (arm.index() + 1) as f64);
        }
        let n_before: f64 = agent.tables().n_total();
        // Next selections must be the forced sweep 0,1,2.
        for expected in 0..3 {
            assert_eq!(agent.select_arm().index(), expected);
            agent.observe_reward(0.5);
        }
        // Counts kept growing (no reset).
        assert!(agent.tables().n_total() > n_before);
    }

    #[test]
    fn restart_prob_zero_never_sweeps() {
        let mut agent = ducb_agent(2);
        for _ in 0..50 {
            let arm = agent.select_arm();
            agent.observe_reward(arm.index() as f64);
        }
        assert_ne!(agent.phase(), AgentPhase::RestartSweep);
    }

    #[test]
    #[should_panic(expected = "select_arm called twice")]
    fn double_select_panics() {
        let mut agent = ducb_agent(2);
        agent.select_arm();
        agent.select_arm();
    }

    #[test]
    #[should_panic(expected = "without a pending select_arm")]
    fn orphan_reward_panics() {
        let mut agent = ducb_agent(2);
        agent.observe_reward(1.0);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = || {
            let mut agent = BanditAgent::new(
                BanditConfig::builder(4)
                    .algorithm(AlgorithmKind::EpsilonGreedy { epsilon: 0.3 })
                    .seed(99)
                    .build()
                    .unwrap(),
            );
            let mut picks = Vec::new();
            for i in 0..100 {
                let arm = agent.select_arm();
                picks.push(arm);
                agent.observe_reward((arm.index() as f64) * 0.1 + (i % 3) as f64 * 0.01);
            }
            picks
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_accessors_round_trip() {
        let config = BanditConfig::builder(7)
            .algorithm(AlgorithmKind::Single)
            .normalize_rewards(false)
            .rr_restart_prob(0.001)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(config.arms(), 7);
        assert_eq!(config.algorithm(), AlgorithmKind::Single);
        assert!(!config.normalizes_rewards());
        assert_eq!(config.rr_restart_prob(), 0.001);
        assert_eq!(config.seed(), 5);
    }

    #[test]
    fn invalid_restart_probability_is_rejected() {
        let err = BanditConfig::builder(2).rr_restart_prob(1.5).build();
        assert!(matches!(
            err,
            Err(ConfigError::InvalidRestartProbability(_))
        ));
    }

    #[test]
    fn agent_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BanditAgent>();
    }
}
