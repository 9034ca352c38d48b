//! Choi & Yeung's Hill-Climbing threshold adaptation (ISCA 2006, §3.2).
//!
//! The fetch-gating threshold is a per-thread share of the shared
//! structures. Hill Climbing runs trial epochs: it perturbs thread 0's
//! share by ±δ, measures the epoch's summed IPC, and moves toward the
//! best-performing setting. The paper observes these thresholds are mostly
//! *temporally stable* — the same property that motivates MABs.

/// δ expressed as a share of the IQ (the paper defines δ = 2 IQ entries).
pub const DELTA_SHARE: f64 = 2.0 / 97.0;
/// Minimum share either thread may hold.
pub const MIN_SHARE: f64 = 0.10;

/// Which trial the climber is running this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trial {
    Base,
    Up,
    Down,
}

/// The Hill-Climbing state for a 2-thread gating threshold.
///
/// Call [`HillClimb::share`] to read thread 0's current share (thread 1
/// gets the complement) and [`HillClimb::on_epoch`] at the end of every
/// epoch with that epoch's summed IPC.
///
/// # Example
///
/// ```
/// use mab_smtsim::hill_climb::HillClimb;
///
/// let mut hc = HillClimb::new();
/// let base = hc.share(0);
/// // Feed epochs where "more share for thread 0" pays off.
/// for _ in 0..12 {
///     let ipc = 1.0 + hc.share(0);
///     hc.on_epoch(ipc);
/// }
/// assert!(hc.share(0) > base);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HillClimb {
    base_share: f64,
    trial: Trial,
    base_ipc: f64,
    up_ipc: f64,
    delta: f64,
}

impl Default for HillClimb {
    fn default() -> Self {
        HillClimb::new()
    }
}

impl HillClimb {
    /// Starts at an even split with the paper's δ.
    pub fn new() -> Self {
        HillClimb::with_delta(DELTA_SHARE)
    }

    /// Starts with a custom δ (in share units).
    pub fn with_delta(delta: f64) -> Self {
        HillClimb {
            base_share: 0.5,
            trial: Trial::Base,
            base_ipc: 0.0,
            up_ipc: 0.0,
            delta,
        }
    }

    fn clamp(share: f64) -> f64 {
        share.clamp(MIN_SHARE, 1.0 - MIN_SHARE)
    }

    /// The share of every gated structure thread `thread` may occupy under
    /// the *current trial*.
    pub fn share(&self, thread: usize) -> f64 {
        let s0 = match self.trial {
            Trial::Base => self.base_share,
            Trial::Up => HillClimb::clamp(self.base_share + self.delta),
            Trial::Down => HillClimb::clamp(self.base_share - self.delta),
        };
        if thread == 0 {
            s0
        } else {
            1.0 - s0
        }
    }

    /// The converged (base) share of thread 0, ignoring the trial phase.
    pub fn base_share(&self) -> f64 {
        self.base_share
    }

    /// Restores a previously saved base share (Bandit saves/restores the
    /// threshold per arm when switching policies, §5.3).
    pub fn restore(&mut self, base_share: f64) {
        self.base_share = HillClimb::clamp(base_share);
        self.trial = Trial::Base;
    }

    /// Consumes the finished epoch's summed IPC and advances the trial
    /// sequence (base → up → down → move-to-best → base …).
    pub fn on_epoch(&mut self, epoch_ipc: f64) {
        match self.trial {
            Trial::Base => {
                self.base_ipc = epoch_ipc;
                self.trial = Trial::Up;
            }
            Trial::Up => {
                self.up_ipc = epoch_ipc;
                self.trial = Trial::Down;
            }
            Trial::Down => {
                let down_ipc = epoch_ipc;
                if self.up_ipc >= self.base_ipc && self.up_ipc >= down_ipc {
                    self.base_share = HillClimb::clamp(self.base_share + self.delta);
                } else if down_ipc >= self.base_ipc && down_ipc >= self.up_ipc {
                    self.base_share = HillClimb::clamp(self.base_share - self.delta);
                }
                self.trial = Trial::Base;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the climber against a concave IPC function of the share with
    /// its maximum at `optimum`.
    fn converge(optimum: f64, epochs: usize) -> f64 {
        let mut hc = HillClimb::new();
        for _ in 0..epochs {
            let share = hc.share(0);
            let ipc = 2.0 - (share - optimum).abs();
            hc.on_epoch(ipc);
        }
        hc.base_share()
    }

    #[test]
    fn climbs_toward_a_high_optimum() {
        let share = converge(0.8, 300);
        assert!((share - 0.8).abs() < 0.05, "share {share}");
    }

    #[test]
    fn climbs_toward_a_low_optimum() {
        let share = converge(0.2, 300);
        assert!((share - 0.2).abs() < 0.05, "share {share}");
    }

    #[test]
    fn stays_at_even_split_if_optimal() {
        let share = converge(0.5, 120);
        assert!((share - 0.5).abs() < 0.05, "share {share}");
    }

    #[test]
    fn shares_are_complementary_and_bounded() {
        let mut hc = HillClimb::new();
        for i in 0..50 {
            let s0 = hc.share(0);
            let s1 = hc.share(1);
            assert!((s0 + s1 - 1.0).abs() < 1e-12);
            assert!((MIN_SHARE..=1.0 - MIN_SHARE).contains(&s0));
            hc.on_epoch(1.0 + (i % 3) as f64 * 0.1);
        }
    }

    #[test]
    fn restore_resets_trial_state() {
        let mut hc = HillClimb::new();
        hc.on_epoch(1.0); // now in the Up trial
        hc.restore(0.7);
        assert_eq!(hc.share(0), 0.7);
        assert_eq!(hc.base_share(), 0.7);
    }

    #[test]
    fn restore_clamps_extreme_shares() {
        let mut hc = HillClimb::new();
        hc.restore(0.01);
        assert_eq!(hc.base_share(), MIN_SHARE);
    }
}
