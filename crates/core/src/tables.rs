//! The two hardware tables of the Bandit microarchitecture.
//!
//! Per §5.1 of the paper, the agent consists of two tables — the *nTable*
//! (selection counts `n_i`) and the *rTable* (average rewards `r_i`) — plus
//! an arithmetic unit and control logic. [`BanditTables`] models exactly that
//! state: one `(r, n)` pair per arm and the running total `n_total`.

use crate::arm::ArmId;

/// The nTable/rTable pair holding all per-arm bandit state.
///
/// Rewards are stored as `f64` in the reference implementation; the
/// [`crate::fixed`] module demonstrates the hardware-faithful fixed-point
/// alternative. Storage accounting ([`crate::cost`]) assumes the paper's
/// 8 bytes per arm (an `f32` reward plus a `u32` count).
///
/// # Example
///
/// ```
/// use mab_core::{ArmId, BanditTables};
///
/// let mut t = BanditTables::new(3);
/// t.record_initial(ArmId::new(0), 0.5);
/// assert_eq!(t.n(ArmId::new(0)), 1.0);
/// assert_eq!(t.reward(ArmId::new(0)), 0.5);
/// assert_eq!(t.n_total(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BanditTables {
    rewards: Vec<f64>,
    selections: Vec<f64>,
    n_total: f64,
}

impl BanditTables {
    /// Creates zeroed tables for `arms` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0`; configuration validation in
    /// [`crate::BanditConfig`] rejects that case before tables are built.
    pub fn new(arms: usize) -> Self {
        assert!(arms > 0, "bandit tables require at least one arm");
        BanditTables {
            rewards: vec![0.0; arms],
            selections: vec![0.0; arms],
            n_total: 0.0,
        }
    }

    /// Number of arms tracked.
    pub fn arms(&self) -> usize {
        self.rewards.len()
    }

    /// Average reward `r_i` of `arm`.
    pub fn reward(&self, arm: ArmId) -> f64 {
        self.rewards[arm.index()]
    }

    /// (Possibly discounted) selection count `n_i` of `arm`.
    pub fn n(&self, arm: ArmId) -> f64 {
        self.selections[arm.index()]
    }

    /// Total number of selections `n_total` across all arms.
    ///
    /// Under DUCB this is the discounted total, i.e. the sum of the
    /// discounted per-arm counts.
    pub fn n_total(&self) -> f64 {
        self.n_total
    }

    /// Records the outcome of the initial round-robin try of `arm`
    /// (Algorithm 1 lines 5–9): `n_arm ← 1`, `r_arm ← r_step`.
    pub fn record_initial(&mut self, arm: ArmId, r_step: f64) {
        self.selections[arm.index()] = 1.0;
        self.rewards[arm.index()] = r_step;
        self.n_total += 1.0;
    }

    /// Increments `n_arm` and `n_total` (the ε-Greedy/UCB `updSels`).
    pub fn increment_selection(&mut self, arm: ArmId) {
        self.selections[arm.index()] += 1.0;
        self.n_total += 1.0;
    }

    /// Discounts every `n_i` by `gamma`, then increments the selected arm
    /// (the DUCB `updSels`). `n_total` is kept equal to the discounted sum.
    pub fn discount_and_select(&mut self, arm: ArmId, gamma: f64) {
        for n in &mut self.selections {
            *n *= gamma;
        }
        self.selections[arm.index()] += 1.0;
        self.n_total = self.n_total * gamma + 1.0;
    }

    /// Folds `r_step` into the running average of `arm`
    /// (`r_arm ← r_arm + (r_step − r_arm) / n_arm`, the UCB/DUCB `updRew`).
    ///
    /// With a discounted `n_arm` this becomes an exponential-style moving
    /// average, which is exactly what lets DUCB forget stale behaviour.
    pub fn fold_reward(&mut self, arm: ArmId, r_step: f64) {
        let i = arm.index();
        let n = self.selections[i].max(1.0);
        self.rewards[i] += (r_step - self.rewards[i]) / n;
    }

    /// Divides every stored reward by `r_avg` (reward normalization, §4.3).
    pub fn normalize_rewards(&mut self, r_avg: f64) {
        for r in &mut self.rewards {
            *r /= r_avg;
        }
    }

    /// The arm with the highest average reward (`arg max r_i`); ties resolve
    /// to the lowest index, matching a hardware priority encoder.
    pub fn best_by_reward(&self) -> ArmId {
        let mut best = 0;
        for i in 1..self.rewards.len() {
            if self.rewards[i] > self.rewards[best] {
                best = i;
            }
        }
        ArmId::new(best)
    }

    /// Mean of all stored rewards (`r_avg` of §4.3, computed after the
    /// initial round-robin phase).
    pub fn average_reward(&self) -> f64 {
        self.rewards.iter().sum::<f64>() / self.rewards.len() as f64
    }

    /// Iterates over `(arm, r_i, n_i)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ArmId, f64, f64)> + '_ {
        self.rewards
            .iter()
            .zip(&self.selections)
            .enumerate()
            .map(|(i, (&r, &n))| (ArmId::new(i), r, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_round_robin_sets_unit_counts() {
        let mut t = BanditTables::new(2);
        t.record_initial(ArmId::new(0), 0.3);
        t.record_initial(ArmId::new(1), 0.9);
        assert_eq!(t.n(ArmId::new(0)), 1.0);
        assert_eq!(t.n(ArmId::new(1)), 1.0);
        assert_eq!(t.n_total(), 2.0);
        assert_eq!(t.best_by_reward(), ArmId::new(1));
    }

    #[test]
    fn fold_reward_computes_running_average() {
        let mut t = BanditTables::new(1);
        t.record_initial(ArmId::new(0), 1.0);
        t.increment_selection(ArmId::new(0));
        t.fold_reward(ArmId::new(0), 3.0);
        // average of [1.0, 3.0]
        assert!((t.reward(ArmId::new(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn discount_decays_unselected_arms() {
        let mut t = BanditTables::new(2);
        t.record_initial(ArmId::new(0), 0.5);
        t.record_initial(ArmId::new(1), 0.5);
        t.discount_and_select(ArmId::new(0), 0.5);
        assert!((t.n(ArmId::new(0)) - 1.5).abs() < 1e-12);
        assert!((t.n(ArmId::new(1)) - 0.5).abs() < 1e-12);
        assert!((t.n_total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn n_total_tracks_sum_under_discounting() {
        let mut t = BanditTables::new(3);
        for i in 0..3 {
            t.record_initial(ArmId::new(i), 0.1 * i as f64);
        }
        for step in 0..50 {
            t.discount_and_select(ArmId::new(step % 3), 0.9);
            let sum: f64 = (0..3).map(|i| t.n(ArmId::new(i))).sum();
            assert!((t.n_total() - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn normalization_divides_all_rewards() {
        let mut t = BanditTables::new(2);
        t.record_initial(ArmId::new(0), 2.0);
        t.record_initial(ArmId::new(1), 4.0);
        let avg = t.average_reward();
        assert_eq!(avg, 3.0);
        t.normalize_rewards(avg);
        assert!((t.reward(ArmId::new(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.reward(ArmId::new(1)) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        let mut t = BanditTables::new(3);
        for i in 0..3 {
            t.record_initial(ArmId::new(i), 1.0);
        }
        assert_eq!(t.best_by_reward(), ArmId::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_panics() {
        let _ = BanditTables::new(0);
    }
}
