//! Multi-Armed Bandit algorithms (paper Table 3) and heuristic baselines.
//!
//! Every algorithm implements the three functions of the paper's general MAB
//! template (Algorithm 1): `nextArm()`, `updSels(arm)` and `updRew(r_step)`,
//! expressed here as the [`Algorithm`] trait operating on the shared
//! [`BanditTables`] state.
//!
//! | Algorithm | `nextArm` | `updSels` | `updRew` |
//! |---|---|---|---|
//! | [`EpsilonGreedy`] | `arg max r_i` w.p. `1−ε`, random w.p. `ε` | `n_arm += 1` | running average |
//! | [`Ucb`] | `arg max r_i + c√(ln n_total / n_i)` | `n_arm += 1` | running average |
//! | [`Ducb`] | same as UCB | `n_i *= γ ∀i; n_arm += 1` | running average |
//!
//! The heuristics of §7.1 — [`Single`] and [`Periodic`] — and the fixed
//! [`StaticArm`] policy (used to realize the *Best Static* oracle) share the
//! same interface so that the experiment harness can swap them freely.

mod ducb;
mod epsilon_greedy;
mod heuristics;
mod ucb;

pub use ducb::Ducb;
pub use epsilon_greedy::EpsilonGreedy;
pub use heuristics::{Periodic, Single, StaticArm};
pub use ucb::Ucb;

use crate::arm::ArmId;
use crate::error::ConfigError;
use crate::tables::BanditTables;
use rand::rngs::StdRng;

/// The three per-step functions a MAB algorithm must provide
/// (paper Algorithm 1, main loop).
///
/// Implementations mutate only the shared [`BanditTables`] plus any private
/// bookkeeping of their own. The initial round-robin phase is handled by
/// [`crate::BanditAgent`], not by the algorithm.
pub trait Algorithm {
    /// `nextArm()` — selects the arm to try next.
    fn next_arm(&mut self, tables: &BanditTables, rng: &mut StdRng) -> ArmId;

    /// `updSels(arm)` — updates the selection counts after `arm` was chosen.
    fn update_selections(&mut self, tables: &mut BanditTables, arm: ArmId);

    /// `updRew(r_step)` — folds the step reward into the tables once the
    /// bandit step is over.
    fn update_reward(&mut self, tables: &mut BanditTables, arm: ArmId, r_step: f64);

    /// Telemetry: fills `out` with the per-arm selection bound the algorithm
    /// is currently using — the UCB/DUCB potential. Captured into
    /// [decision records](mab_telemetry::DecisionRecord) so traces show not
    /// just *what* was picked but what the alternatives scored. Must not
    /// mutate algorithm state or draw randomness. The default is the
    /// pure-greedy view: the empirical mean rewards.
    fn probe_bounds(&self, tables: &BanditTables, out: &mut Vec<f64>) {
        out.clear();
        out.extend(tables.iter().map(|(_, r, _)| r));
    }
}

/// Configuration-level description of which algorithm to run.
///
/// Converted into a live [`Algorithm`] by [`AlgorithmKind::instantiate`].
///
/// # Example
///
/// ```
/// use mab_core::AlgorithmKind;
///
/// // The paper's prefetching configuration (Table 6).
/// let kind = AlgorithmKind::Ducb { gamma: 0.999, c: 0.04 };
/// assert!(kind.validate(11).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AlgorithmKind {
    /// ε-Greedy with exploration probability `epsilon`.
    EpsilonGreedy {
        /// Probability of picking a uniformly random arm instead of the best.
        epsilon: f64,
    },
    /// Upper Confidence Bound with exploration constant `c`.
    Ucb {
        /// Exploration constant.
        c: f64,
    },
    /// Discounted UCB with forgetting factor `gamma` and exploration
    /// constant `c` — the algorithm the Micro-Armed Bandit ships with.
    Ducb {
        /// Forgetting factor in `(0, 1]`; `1.0` degenerates to plain UCB.
        gamma: f64,
        /// Exploration constant.
        c: f64,
    },
    /// The *Single* heuristic: explore only during the initial round-robin
    /// phase, then exploit the winner forever.
    Single,
    /// The *Periodic* heuristic: alternate round-robin sweeps with
    /// exploitation of the best arm in a recent-reward moving average,
    /// in the spirit of the POWER7 adaptive prefetcher.
    Periodic {
        /// Number of exploitation steps between exploration sweeps.
        exploit_len: u32,
        /// Moving-average window (per arm, in observed rewards).
        window: usize,
    },
    /// Always plays one fixed arm (realizes the *Best Static* oracle when the
    /// harness sweeps it over every arm).
    Static {
        /// The arm to play.
        arm: usize,
    },
}

impl AlgorithmKind {
    /// Validates the hyperparameters against the number of arms.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter.
    pub fn validate(&self, arms: usize) -> Result<(), ConfigError> {
        match *self {
            AlgorithmKind::EpsilonGreedy { epsilon } => {
                if !(0.0..=1.0).contains(&epsilon) || epsilon.is_nan() {
                    return Err(ConfigError::InvalidEpsilon(epsilon));
                }
            }
            AlgorithmKind::Ucb { c } => {
                if !c.is_finite() || c < 0.0 {
                    return Err(ConfigError::InvalidExplorationConstant(c));
                }
            }
            AlgorithmKind::Ducb { gamma, c } => {
                if !(gamma > 0.0 && gamma <= 1.0) {
                    return Err(ConfigError::InvalidGamma(gamma));
                }
                if !c.is_finite() || c < 0.0 {
                    return Err(ConfigError::InvalidExplorationConstant(c));
                }
            }
            AlgorithmKind::Single => {}
            AlgorithmKind::Periodic { exploit_len, .. } => {
                if exploit_len == 0 {
                    return Err(ConfigError::InvalidPeriod);
                }
            }
            AlgorithmKind::Static { arm } => {
                if arm >= arms {
                    return Err(ConfigError::ArmOutOfRange { arm, arms });
                }
            }
        }
        Ok(())
    }

    /// Builds the runtime algorithm object.
    pub fn instantiate(&self, arms: usize) -> Box<dyn Algorithm + Send> {
        match *self {
            AlgorithmKind::EpsilonGreedy { epsilon } => Box::new(EpsilonGreedy::new(epsilon)),
            AlgorithmKind::Ucb { c } => Box::new(Ucb::new(c)),
            AlgorithmKind::Ducb { gamma, c } => Box::new(Ducb::new(gamma, c)),
            AlgorithmKind::Single => Box::new(Single::new()),
            AlgorithmKind::Periodic {
                exploit_len,
                window,
            } => Box::new(Periodic::new(arms, exploit_len, window)),
            AlgorithmKind::Static { arm } => Box::new(StaticArm::new(ArmId::new(arm))),
        }
    }

    /// Short machine-friendly name used by the experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::EpsilonGreedy { .. } => "epsilon-greedy",
            AlgorithmKind::Ucb { .. } => "ucb",
            AlgorithmKind::Ducb { .. } => "ducb",
            AlgorithmKind::Single => "single",
            AlgorithmKind::Periodic { .. } => "periodic",
            AlgorithmKind::Static { .. } => "static",
        }
    }
}

/// Computes the UCB/DUCB *potential* of an arm:
/// `r_i + c * sqrt(ln(n_total) / n_i)`.
///
/// Arms whose (discounted) count has decayed to (near) zero get an infinite
/// potential so they are re-tried, mirroring the growth of the exploration
/// factor for rarely selected arms.
///
/// Production scans go through [`potential_with_ln`]; this form is the
/// reference the unit tests check the split against.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn potential(r: f64, n: f64, n_total: f64, c: f64) -> f64 {
    potential_with_ln(r, n, n_total.max(1.0).ln(), c)
}

/// [`potential`] with `ln(max(n_total, 1))` precomputed: the logarithm is
/// identical for every arm of a selection scan, so callers hoist it out of
/// the per-arm loop (and cache it across calls via [`LnCache`]) without
/// changing a single bit of the result.
pub(crate) fn potential_with_ln(r: f64, n: f64, ln_total: f64, c: f64) -> f64 {
    const N_FLOOR: f64 = 1e-9;
    if n <= N_FLOOR {
        return f64::INFINITY;
    }
    r + c * (ln_total / n).sqrt()
}

/// One-entry memo of `n_total → ln(max(n_total, 1))`.
///
/// The pull-count total only changes when a selection is folded in, but the
/// logarithm is consulted several times per bandit step: once per
/// `next_arm` scan and again by `probe_bounds` when tracing is live.
/// Interior mutability keeps the read-only [`Algorithm::probe_bounds`]
/// signature honest.
#[derive(Debug, Clone)]
pub(crate) struct LnCache {
    arg: std::cell::Cell<f64>,
    value: std::cell::Cell<f64>,
}

impl LnCache {
    pub(crate) fn new() -> Self {
        // ln(1) = 0 seeds a valid entry for the empty-tables case.
        LnCache {
            arg: std::cell::Cell::new(1.0),
            value: std::cell::Cell::new(0.0),
        }
    }

    /// `ln(max(n_total, 1))`, recomputed only when `n_total` moved.
    pub(crate) fn ln_total(&self, n_total: f64) -> f64 {
        let x = n_total.max(1.0);
        if x != self.arg.get() {
            self.arg.set(x);
            self.value.set(x.ln());
        }
        self.value.get()
    }
}

/// The cache is invisible state: algorithms holding different memo entries
/// are still the same policy.
impl PartialEq for LnCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Telemetry: classifies a pull as exploration or exploitation by comparing
/// the selected arm against the pure-greedy (highest empirical reward)
/// choice. Compiles to nothing without the `telemetry` feature; the extra
/// argmax scan is only paid while a recorder is live.
pub(crate) fn count_explore_exploit(tables: &BanditTables, arm: ArmId) {
    if mab_telemetry::enabled() {
        if arm == tables.best_by_reward() {
            mab_telemetry::count!(AlgExploit);
        } else {
            mab_telemetry::count!(AlgExplore);
        }
    }
}

/// Selects the arm with the highest potential; ties resolve to the lowest
/// index (hardware priority encoder). The `ln(n_total)` term is shared by
/// every arm, so it is looked up once through `ln_cache` instead of being
/// recomputed inside the scan.
pub(crate) fn argmax_potential(tables: &BanditTables, c: f64, ln_cache: &LnCache) -> ArmId {
    let ln_total = ln_cache.ln_total(tables.n_total());
    let mut best = ArmId::new(0);
    let mut best_p = f64::NEG_INFINITY;
    for (arm, r, n) in tables.iter() {
        let p = potential_with_ln(r, n, ln_total, c);
        if p > best_p {
            best_p = p;
            best = arm;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn potential_is_reward_plus_bonus() {
        let p = potential(0.5, 4.0, 16.0, 1.0);
        let expected = 0.5 + (16.0f64.ln() / 4.0).sqrt();
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn decayed_arm_gets_infinite_potential() {
        assert!(potential(0.1, 0.0, 100.0, 0.5).is_infinite());
    }

    #[test]
    fn zero_c_reduces_to_greedy() {
        let mut t = BanditTables::new(3);
        t.record_initial(ArmId::new(0), 0.2);
        t.record_initial(ArmId::new(1), 0.9);
        t.record_initial(ArmId::new(2), 0.4);
        assert_eq!(argmax_potential(&t, 0.0, &LnCache::new()), ArmId::new(1));
    }

    #[test]
    fn rarely_tried_arm_is_favored_with_large_c() {
        let mut t = BanditTables::new(2);
        t.record_initial(ArmId::new(0), 0.9);
        t.record_initial(ArmId::new(1), 0.8);
        // Arm 0 selected many more times.
        for _ in 0..200 {
            t.increment_selection(ArmId::new(0));
        }
        assert_eq!(argmax_potential(&t, 10.0, &LnCache::new()), ArmId::new(1));
    }

    #[test]
    fn validate_rejects_bad_hyperparameters() {
        assert!(AlgorithmKind::EpsilonGreedy { epsilon: 1.5 }
            .validate(2)
            .is_err());
        assert!(AlgorithmKind::Ucb { c: f64::NAN }.validate(2).is_err());
        assert!(AlgorithmKind::Ducb { gamma: 0.0, c: 0.1 }
            .validate(2)
            .is_err());
        assert!(AlgorithmKind::Ducb { gamma: 1.1, c: 0.1 }
            .validate(2)
            .is_err());
        assert!(AlgorithmKind::Ducb {
            gamma: 0.9,
            c: -1.0
        }
        .validate(2)
        .is_err());
        assert!(AlgorithmKind::Static { arm: 5 }.validate(2).is_err());
        assert!(AlgorithmKind::Periodic {
            exploit_len: 0,
            window: 4
        }
        .validate(2)
        .is_err());
    }

    #[test]
    fn validate_accepts_paper_configurations() {
        // Table 6: prefetching and SMT configurations.
        assert!(AlgorithmKind::Ducb {
            gamma: 0.999,
            c: 0.04
        }
        .validate(11)
        .is_ok());
        assert!(AlgorithmKind::Ducb {
            gamma: 0.975,
            c: 0.01
        }
        .validate(6)
        .is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AlgorithmKind::Ducb { gamma: 0.9, c: 0.1 }.name(), "ducb");
        assert_eq!(AlgorithmKind::Single.name(), "single");
    }
}
