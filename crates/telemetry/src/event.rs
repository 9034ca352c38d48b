//! Structured telemetry events.
//!
//! Bandit events trace every agent decision (`ArmPulled`, `RewardObserved`,
//! `EpochReset`, `QSnapshot`); simulators add sampled `Occupancy` readings
//! at bandit-epoch granularity. All of them are low-frequency — per-access
//! and per-cycle simulator activity is counted by [`crate::Stat`] counters,
//! never logged as events.

/// A single structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The agent selected an arm (one per bandit step).
    ArmPulled {
        /// Agent identity (its RNG seed — unique per agent in practice).
        agent: u64,
        /// Completed agent steps at emission time.
        step: u64,
        /// Selected arm index.
        arm: usize,
        /// Agent phase: `round_robin`, `main` or `restart_sweep`.
        phase: &'static str,
    },
    /// The agent received a reward for the previously pulled arm.
    RewardObserved {
        /// Agent identity.
        agent: u64,
        /// Completed agent steps at emission time.
        step: u64,
        /// Arm the reward applies to.
        arm: usize,
        /// Raw reward (e.g. step IPC).
        reward: f64,
        /// Reward after normalization by the agent's running normalizer.
        normalized: f64,
    },
    /// The agent triggered a §4.3 round-robin restart sweep.
    EpochReset {
        /// Agent identity.
        agent: u64,
        /// Completed agent steps at emission time.
        step: u64,
    },
    /// Periodic snapshot of the agent's learned state.
    QSnapshot {
        /// Agent identity.
        agent: u64,
        /// Completed agent steps at emission time.
        step: u64,
        /// Arm with the highest empirical reward.
        best_arm: usize,
        /// That arm's empirical mean reward.
        best_q: f64,
        /// Total (possibly discounted) pull mass across arms.
        n_total: f64,
    },
    /// A sampled occupancy/utilization reading from a simulator resource
    /// (DRAM backlog, MSHR fill, per-thread fetch share). Sampled at bandit
    /// epoch granularity; these become counter tracks in the Perfetto
    /// export.
    Occupancy {
        /// Resource track name (e.g. `dram_backlog`, `fetch_share`).
        track: &'static str,
        /// Resource instance (core or thread index; 0 for shared resources).
        id: usize,
        /// The sampled value, in track-specific units.
        value: f64,
        /// Cycle of the sample.
        cycle: u64,
    },
}

impl Event {
    /// Stable snake_case discriminant name used by the exporters.
    pub const fn kind(&self) -> &'static str {
        match self {
            Event::ArmPulled { .. } => "arm_pulled",
            Event::RewardObserved { .. } => "reward_observed",
            Event::EpochReset { .. } => "epoch_reset",
            Event::QSnapshot { .. } => "q_snapshot",
            Event::Occupancy { .. } => "occupancy",
        }
    }
}
