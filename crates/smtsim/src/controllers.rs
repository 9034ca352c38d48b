//! Fetch Priority & Gating controllers.
//!
//! A controller owns the PG policy and the gating threshold. The pipeline
//! queries [`PgController::policy`] / [`PgController::share`] every cycle
//! and reports each finished Hill-Climbing epoch's per-thread IPC through
//! [`PgController::on_epoch`]; what scalar the Bandit rewards itself with
//! is the controller's [`RewardMetric`].

use crate::hill_climb::HillClimb;
use crate::policies::PgPolicy;
use mab_core::{reward, AlgorithmKind, BanditAgent, BanditConfig, ConfigError};

/// Per-thread IPC observed over one Hill-Climbing epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochIpc {
    /// IPC of each hardware thread over the epoch.
    pub per_thread: [f64; 2],
}

impl EpochIpc {
    /// Builds an observation from a summed IPC split evenly — convenient
    /// for tests that only care about the aggregate.
    pub fn from_sum(sum: f64) -> Self {
        EpochIpc {
            per_thread: [sum / 2.0; 2],
        }
    }

    /// Summed IPC (the paper's default SMT metric, §6.4).
    pub fn sum(&self) -> f64 {
        self.per_thread[0] + self.per_thread[1]
    }
}

/// Which scalar the Bandit extracts from an epoch observation as its reward
/// (§6.4: "Bandit can easily optimize other metrics, such as the average
/// weighted IPC or harmonic mean of weighted IPC by simply changing the
/// Bandit reward").
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RewardMetric {
    /// Sum of per-thread IPCs (throughput; the paper's evaluation metric).
    SumIpc,
    /// Average weighted IPC: mean of per-thread IPCs divided by the
    /// threads' isolated (single-thread) IPCs.
    WeightedIpc {
        /// Isolated IPC of each thread.
        isolated: [f64; 2],
    },
    /// Harmonic mean of weighted IPCs (balances throughput and fairness).
    HarmonicWeighted {
        /// Isolated IPC of each thread.
        isolated: [f64; 2],
    },
}

impl RewardMetric {
    /// Extracts the reward scalar from an epoch observation.
    pub fn reward(&self, epoch: EpochIpc) -> f64 {
        match *self {
            RewardMetric::SumIpc => epoch.sum(),
            RewardMetric::WeightedIpc { isolated } => {
                let w0 = epoch.per_thread[0] / isolated[0].max(1e-9);
                let w1 = epoch.per_thread[1] / isolated[1].max(1e-9);
                (w0 + w1) / 2.0
            }
            RewardMetric::HarmonicWeighted { isolated } => {
                let weighted = [
                    epoch.per_thread[0] / isolated[0].max(1e-9),
                    epoch.per_thread[1] / isolated[1].max(1e-9),
                ];
                reward::harmonic_mean_weighted(&weighted)
            }
        }
    }
}

/// A source of the fetch PG policy and gating shares.
pub trait PgController {
    /// The PG policy in effect.
    fn policy(&self) -> PgPolicy;

    /// The occupancy share thread `thread` may hold in gated structures.
    fn share(&self, thread: usize) -> f64;

    /// Reports a finished Hill-Climbing epoch's per-thread IPC.
    fn on_epoch(&mut self, epoch: EpochIpc);
}

/// A fixed PG policy with Hill-Climbing threshold adaptation — the
/// building block of the Fig. 5 design-space sweep and the best-static-arm
/// oracle of §6.4.
///
/// # Example
///
/// ```
/// use mab_smtsim::controllers::{PgController, StaticPgController};
/// use mab_smtsim::policies::PgPolicy;
///
/// let c = StaticPgController::new("LSQC_1111".parse().unwrap());
/// assert_eq!(c.policy().to_string(), "LSQC_1111");
/// ```
#[derive(Debug, Clone)]
pub struct StaticPgController {
    policy: PgPolicy,
    hill_climb: HillClimb,
}

impl StaticPgController {
    /// Creates a controller pinned to `policy`.
    pub fn new(policy: PgPolicy) -> Self {
        StaticPgController {
            policy,
            hill_climb: HillClimb::new(),
        }
    }

    /// The Hill-Climbing state (for tests and reports).
    pub fn hill_climb(&self) -> &HillClimb {
        &self.hill_climb
    }
}

impl PgController for StaticPgController {
    fn policy(&self) -> PgPolicy {
        self.policy
    }

    fn share(&self, thread: usize) -> f64 {
        self.hill_climb.share(thread)
    }

    fn on_epoch(&mut self, epoch: EpochIpc) {
        self.hill_climb.on_epoch(epoch.sum());
    }
}

/// The Choi policy (`IC_1011` + Hill Climbing), the paper's main SMT
/// baseline.
#[derive(Debug, Clone)]
pub struct ChoiController {
    inner: StaticPgController,
}

impl Default for ChoiController {
    fn default() -> Self {
        ChoiController::new()
    }
}

impl ChoiController {
    /// Creates the Choi controller.
    pub fn new() -> Self {
        ChoiController {
            inner: StaticPgController::new(PgPolicy::CHOI),
        }
    }
}

impl PgController for ChoiController {
    fn policy(&self) -> PgPolicy {
        self.inner.policy()
    }

    fn share(&self, thread: usize) -> f64 {
        self.inner.share(thread)
    }

    fn on_epoch(&mut self, epoch: EpochIpc) {
        self.inner.on_epoch(epoch);
    }
}

/// Bandit step length during the initial round-robin phase, in
/// Hill-Climbing epochs (Table 6: *bandit step-RR* = 32 epochs).
pub const PAPER_STEP_RR_EPOCHS: u32 = 32;
/// Bandit step length in the main loop (Table 6: 2 epochs).
pub const PAPER_STEP_EPOCHS: u32 = 2;

/// The Micro-Armed Bandit controlling the fetch PG policy (paper §5.3).
///
/// The bandit runs *on top of* Hill Climbing: each arm is a PG policy, the
/// reward is the mean epoch IPC over the bandit step, and each arm's
/// Hill-Climbing threshold is saved and restored when the arm changes.
/// During the initial round-robin phase, arms are held for the longer
/// *bandit step-RR* so Hill Climbing has time to converge before the arm
/// is judged.
pub struct BanditController {
    agent: BanditAgent,
    arms: Vec<PgPolicy>,
    metric: RewardMetric,
    hill_climb: HillClimb,
    /// Saved Hill-Climbing base share per arm.
    saved_shares: Vec<f64>,
    current_arm: usize,
    epochs_in_step: u32,
    step_epochs: u32,
    step_rr_epochs: u32,
    ipc_accumulator: f64,
    history: Vec<usize>,
}

impl std::fmt::Debug for BanditController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BanditController")
            .field("arm", &self.arms[self.current_arm])
            .field("steps", &self.agent.steps())
            .finish()
    }
}

impl BanditController {
    /// The paper's tuned SMT configuration (Table 6): DUCB with γ = 0.975,
    /// c = 0.01 over the 6 arms of Table 1, step-RR = 32 epochs, step = 2.
    pub fn paper_default(seed: u64) -> Self {
        BanditController::with_algorithm(
            AlgorithmKind::Ducb {
                gamma: 0.975,
                c: 0.01,
            },
            seed,
        )
    }

    /// Paper arms with a different MAB algorithm (Table 9 comparisons).
    pub fn with_algorithm(algorithm: AlgorithmKind, seed: u64) -> Self {
        let arms = PgPolicy::bandit_arms().to_vec();
        let config = BanditConfig::builder(arms.len())
            .algorithm(algorithm)
            .seed(seed)
            .build()
            .expect("paper configuration is valid");
        BanditController::new(config, arms, PAPER_STEP_EPOCHS, PAPER_STEP_RR_EPOCHS)
            .expect("arm count matches config")
    }

    /// Fully custom construction.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `arms` is empty or its length does not
    /// match the agent configuration.
    pub fn new(
        config: BanditConfig,
        arms: Vec<PgPolicy>,
        step_epochs: u32,
        step_rr_epochs: u32,
    ) -> Result<Self, ConfigError> {
        if arms.is_empty() {
            return Err(ConfigError::NoArms);
        }
        if config.arms() != arms.len() {
            return Err(ConfigError::ArmOutOfRange {
                arm: config.arms(),
                arms: arms.len(),
            });
        }
        let mut agent = BanditAgent::new(config);
        let first = agent.select_arm().index();
        let n = arms.len();
        Ok(BanditController {
            agent,
            arms,
            metric: RewardMetric::SumIpc,
            hill_climb: HillClimb::new(),
            saved_shares: vec![0.5; n],
            current_arm: first,
            epochs_in_step: 0,
            step_epochs: step_epochs.max(1),
            step_rr_epochs: step_rr_epochs.max(1),
            ipc_accumulator: 0.0,
            history: vec![first],
        })
    }

    /// Replaces the reward metric (§6.4; default [`RewardMetric::SumIpc`]).
    pub fn set_reward_metric(&mut self, metric: RewardMetric) {
        self.metric = metric;
    }

    /// The reward metric in effect.
    pub fn reward_metric(&self) -> RewardMetric {
        self.metric
    }

    /// Sequence of arm indices selected so far (Fig. 7).
    pub fn history(&self) -> &[usize] {
        &self.history
    }

    /// Read access to the underlying agent.
    pub fn agent(&self) -> &BanditAgent {
        &self.agent
    }

    fn step_target(&self) -> u32 {
        if self.agent.in_initial_round_robin() {
            self.step_rr_epochs
        } else {
            self.step_epochs
        }
    }
}

impl PgController for BanditController {
    fn policy(&self) -> PgPolicy {
        self.arms[self.current_arm]
    }

    fn share(&self, thread: usize) -> f64 {
        self.hill_climb.share(thread)
    }

    fn on_epoch(&mut self, epoch: EpochIpc) {
        // Hill Climbing always optimizes the summed IPC (as in the original
        // paper); the Bandit's reward follows the configured metric.
        self.hill_climb.on_epoch(epoch.sum());
        self.ipc_accumulator += self.metric.reward(epoch);
        self.epochs_in_step += 1;
        let target = self.step_target();
        if self.epochs_in_step < target {
            return;
        }
        let reward = self.ipc_accumulator / self.epochs_in_step as f64;
        self.epochs_in_step = 0;
        self.ipc_accumulator = 0.0;
        self.agent.observe_reward(reward);
        // Save this arm's threshold, switch, restore the new arm's.
        self.saved_shares[self.current_arm] = self.hill_climb.base_share();
        let next = self.agent.select_arm().index();
        if next != self.current_arm {
            mab_telemetry::count!(ArmSwitches);
            self.hill_climb.restore(self.saved_shares[next]);
        }
        self.current_arm = next;
        self.history.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_controller_keeps_its_policy() {
        let mut c = StaticPgController::new(PgPolicy::ICOUNT);
        for _ in 0..100 {
            c.on_epoch(EpochIpc::from_sum(1.0));
        }
        assert_eq!(c.policy(), PgPolicy::ICOUNT);
    }

    #[test]
    fn choi_controller_uses_ic_1011() {
        assert_eq!(ChoiController::new().policy(), PgPolicy::CHOI);
    }

    #[test]
    fn bandit_round_robin_holds_arms_for_step_rr() {
        let mut c = BanditController::paper_default(1);
        let first = c.policy();
        // 31 epochs in: still the same (RR step is 32 epochs).
        for _ in 0..31 {
            c.on_epoch(EpochIpc::from_sum(1.0));
        }
        assert_eq!(c.policy(), first);
        c.on_epoch(EpochIpc::from_sum(1.0));
        assert_ne!(c.policy(), first, "arm advances after step-RR epochs");
    }

    #[test]
    fn bandit_walks_all_arms_in_round_robin() {
        let mut c = BanditController::paper_default(2);
        for _ in 0..(6 * 32) {
            c.on_epoch(EpochIpc::from_sum(1.0));
        }
        let h = c.history();
        assert_eq!(&h[..6], &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bandit_prefers_the_rewarding_arm() {
        let mut c = BanditController::with_algorithm(
            AlgorithmKind::Ducb {
                gamma: 0.98,
                c: 0.05,
            },
            3,
        );
        // Arm 4 (LSQC_1111) yields double IPC.
        for _ in 0..2000 {
            let ipc = if c.current_arm == 4 { 2.0 } else { 1.0 };
            c.on_epoch(EpochIpc::from_sum(ipc));
        }
        let tail = &c.history()[c.history().len() - 50..];
        let arm4 = tail.iter().filter(|&&a| a == 4).count();
        assert!(arm4 > 25, "arm 4 picked {arm4}/50 in the tail");
    }

    #[test]
    fn thresholds_are_saved_and_restored_per_arm() {
        let mut c = BanditController::paper_default(4);
        // Drive the RR phase with IPCs that push the threshold up under arm 0.
        for i in 0..32 {
            let share = c.share(0);
            let _ = i;
            c.on_epoch(EpochIpc::from_sum(1.0 + share)); // higher share pays
        }
        // After switching away from arm 0, its share was saved.
        let saved = c.saved_shares[0];
        assert!(saved >= 0.5, "saved share {saved}");
        // The fresh arm starts from its own (default) share.
        assert_eq!(c.hill_climb.base_share(), 0.5);
    }

    #[test]
    fn reward_metrics_extract_expected_scalars() {
        let epoch = EpochIpc {
            per_thread: [1.0, 0.5],
        };
        assert_eq!(RewardMetric::SumIpc.reward(epoch), 1.5);
        let weighted = RewardMetric::WeightedIpc {
            isolated: [2.0, 1.0],
        };
        assert!((weighted.reward(epoch) - 0.5).abs() < 1e-12);
        let harmonic = RewardMetric::HarmonicWeighted {
            isolated: [2.0, 1.0],
        };
        assert!((harmonic.reward(epoch) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn harmonic_metric_prefers_fair_arms() {
        // Arm 0: fair (both threads at half speed). Arm 1: starves thread 1
        // but has the same summed IPC. The harmonic-weighted bandit must
        // prefer the fair arm.
        let mut c = BanditController::with_algorithm(
            AlgorithmKind::Ducb {
                gamma: 0.98,
                c: 0.05,
            },
            7,
        );
        c.set_reward_metric(RewardMetric::HarmonicWeighted {
            isolated: [1.0, 1.0],
        });
        for _ in 0..1500 {
            let epoch = if c.current_arm == 0 {
                EpochIpc {
                    per_thread: [0.5, 0.5],
                }
            } else {
                EpochIpc {
                    per_thread: [0.9, 0.1],
                }
            };
            c.on_epoch(epoch);
        }
        let tail = &c.history()[c.history().len() - 50..];
        let fair = tail.iter().filter(|&&a| a == 0).count();
        assert!(
            fair > 25,
            "fair arm picked {fair}/50 under the harmonic metric"
        );
    }

    #[test]
    fn mismatched_arms_are_rejected() {
        let config = BanditConfig::builder(3).build().unwrap();
        assert!(BanditController::new(config, PgPolicy::bandit_arms().to_vec(), 2, 32).is_err());
    }
}
