//! Lock-free counters: one [`AtomicU64`] per statistic.
//!
//! Writers increment with a relaxed fetch-add, no locks. No counter is
//! bumped per access or per cycle: the simulators add their statistics
//! once per run or per epoch, the agent a few times per decision and the
//! runner once per arm, so the threads seldom meet on a line. Reads are
//! monotone but not a point-in-time snapshot, which is fine for end-of-run
//! reporting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Every counted statistic, across the agent, both simulators and the
/// prefetch subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stat {
    // Per-level cache probes.
    L1DemandHit,
    L1DemandMiss,
    L1Fill,
    L2DemandHit,
    L2DemandMiss,
    L2Fill,
    LlcDemandHit,
    LlcDemandMiss,
    LlcFill,
    DramAccess,
    // Prefetch lifecycle.
    PrefetchRequested,
    PrefetchIssued,
    PrefetchDropped,
    PrefetchTimely,
    PrefetchLate,
    PrefetchWrong,
    // Bandit agent.
    ArmPulls,
    RewardsObserved,
    EpochResets,
    QSnapshots,
    AlgExplore,
    AlgExploit,
    ArmSwitches,
    // SMT pipeline.
    SmtFetchGrant,
    SmtFetchGated,
    SmtEpochs,
    // Parallel sweep engine. Only scheduling-invariant quantities are
    // counted (runs completed, panics observed), never worker counts, so
    // telemetry exports stay byte-identical at any `--jobs` setting.
    SweepRuns,
    SweepPanics,
    /// Total simulated cycles across all runs (memsim core cycles plus SMT
    /// pipeline cycles) — the denominator for per-cycle profiler costs.
    SimCycles,
}

impl Stat {
    /// Number of distinct statistics.
    pub const COUNT: usize = 29;

    /// All statistics, in declaration order.
    pub const ALL: [Stat; Stat::COUNT] = [
        Stat::L1DemandHit,
        Stat::L1DemandMiss,
        Stat::L1Fill,
        Stat::L2DemandHit,
        Stat::L2DemandMiss,
        Stat::L2Fill,
        Stat::LlcDemandHit,
        Stat::LlcDemandMiss,
        Stat::LlcFill,
        Stat::DramAccess,
        Stat::PrefetchRequested,
        Stat::PrefetchIssued,
        Stat::PrefetchDropped,
        Stat::PrefetchTimely,
        Stat::PrefetchLate,
        Stat::PrefetchWrong,
        Stat::ArmPulls,
        Stat::RewardsObserved,
        Stat::EpochResets,
        Stat::QSnapshots,
        Stat::AlgExplore,
        Stat::AlgExploit,
        Stat::ArmSwitches,
        Stat::SmtFetchGrant,
        Stat::SmtFetchGated,
        Stat::SmtEpochs,
        Stat::SweepRuns,
        Stat::SweepPanics,
        Stat::SimCycles,
    ];

    /// Stable snake_case name used by the exporters.
    pub const fn name(self) -> &'static str {
        match self {
            Stat::L1DemandHit => "l1_demand_hit",
            Stat::L1DemandMiss => "l1_demand_miss",
            Stat::L1Fill => "l1_fill",
            Stat::L2DemandHit => "l2_demand_hit",
            Stat::L2DemandMiss => "l2_demand_miss",
            Stat::L2Fill => "l2_fill",
            Stat::LlcDemandHit => "llc_demand_hit",
            Stat::LlcDemandMiss => "llc_demand_miss",
            Stat::LlcFill => "llc_fill",
            Stat::DramAccess => "dram_access",
            Stat::PrefetchRequested => "prefetch_requested",
            Stat::PrefetchIssued => "prefetch_issued",
            Stat::PrefetchDropped => "prefetch_dropped",
            Stat::PrefetchTimely => "prefetch_timely",
            Stat::PrefetchLate => "prefetch_late",
            Stat::PrefetchWrong => "prefetch_wrong",
            Stat::ArmPulls => "arm_pulls",
            Stat::RewardsObserved => "rewards_observed",
            Stat::EpochResets => "epoch_resets",
            Stat::QSnapshots => "q_snapshots",
            Stat::AlgExplore => "alg_explore",
            Stat::AlgExploit => "alg_exploit",
            Stat::ArmSwitches => "arm_switches",
            Stat::SmtFetchGrant => "smt_fetch_grant",
            Stat::SmtFetchGated => "smt_fetch_gated",
            Stat::SmtEpochs => "smt_epochs",
            Stat::SweepRuns => "sweep_runs",
            Stat::SweepPanics => "sweep_panics",
            Stat::SimCycles => "sim_cycles",
        }
    }
}

/// The counter registry: one slot per [`Stat`].
pub struct Counters {
    slots: [AtomicU64; Stat::COUNT],
}

impl Default for Counters {
    fn default() -> Self {
        Counters::new()
    }
}

impl Counters {
    /// An all-zero registry.
    pub fn new() -> Self {
        Counters {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `n` to `stat` (relaxed, lock-free).
    #[inline]
    pub fn add(&self, stat: Stat, n: u64) {
        self.slots[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `stat`.
    pub fn sum(&self, stat: Stat) -> u64 {
        self.slots[stat as usize].load(Ordering::Relaxed)
    }

    /// Values of every statistic, in [`Stat::ALL`] order.
    pub fn snapshot(&self) -> [u64; Stat::COUNT] {
        std::array::from_fn(|i| self.sum(Stat::ALL[i]))
    }

    /// Statistics with a non-zero value.
    pub fn nonzero(&self) -> Vec<(Stat, u64)> {
        Stat::ALL
            .iter()
            .map(|&s| (s, self.sum(s)))
            .filter(|&(_, v)| v != 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_all_matches_count_and_indices() {
        for (i, s) in Stat::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{}", s.name());
        }
    }

    #[test]
    fn add_and_sum_round_trip() {
        let c = Counters::new();
        c.add(Stat::L2DemandHit, 3);
        c.add(Stat::L2DemandHit, 4);
        c.add(Stat::ArmPulls, 1);
        assert_eq!(c.sum(Stat::L2DemandHit), 7);
        assert_eq!(c.sum(Stat::ArmPulls), 1);
        assert_eq!(c.sum(Stat::DramAccess), 0);
    }

    #[test]
    fn concurrent_adds_are_lossless() {
        let c = std::sync::Arc::new(Counters::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(Stat::SmtFetchGrant, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.sum(Stat::SmtFetchGrant), 80_000);
    }
}
