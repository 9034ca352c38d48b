//! Reward computation from hardware performance counters.
//!
//! In both of the paper's use cases the bandit reward is the core's average
//! IPC over the bandit step (§5.1, Fig. 6(d)): the arithmetic unit subtracts
//! the committed-instruction counter value latched at the previous step
//! boundary and divides by the elapsed cycles.

/// Computes per-step IPC rewards from monotonically increasing
/// `(instructions, cycles)` counters.
///
/// # Example
///
/// ```
/// use mab_core::IpcMeter;
///
/// let mut meter = IpcMeter::new();
/// meter.latch(0, 0);
/// // 2000 instructions committed over 1000 cycles since the latch: IPC 2.0.
/// assert_eq!(meter.step(2000, 1000), 2.0);
/// // Next step: 500 more instructions over 1000 more cycles.
/// assert_eq!(meter.step(2500, 2000), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpcMeter {
    last_instructions: u64,
    last_cycles: u64,
}

impl IpcMeter {
    /// Creates a meter latched at counter value zero.
    pub fn new() -> Self {
        IpcMeter::default()
    }

    /// Latches the counters at a step boundary without producing a reward
    /// (used at episode start).
    pub fn latch(&mut self, instructions: u64, cycles: u64) {
        self.last_instructions = instructions;
        self.last_cycles = cycles;
    }

    /// Computes the IPC since the previous boundary and re-latches.
    ///
    /// Returns `0.0` for a zero-cycle step (which only happens if the caller
    /// invokes two boundaries at the same cycle).
    pub fn step(&mut self, instructions: u64, cycles: u64) -> f64 {
        let d_instr = instructions.saturating_sub(self.last_instructions);
        let d_cycles = cycles.saturating_sub(self.last_cycles);
        self.latch(instructions, cycles);
        if d_cycles == 0 {
            0.0
        } else {
            d_instr as f64 / d_cycles as f64
        }
    }
}

/// Sum-of-IPCs reward for multiprogrammed experiments (§6.4: 4-core
/// prefetching and SMT runs score the sum of per-thread IPCs).
///
/// # Example
///
/// ```
/// assert_eq!(mab_core::reward::sum_ipc(&[1.5, 0.5]), 2.0);
/// ```
pub fn sum_ipc(ipcs: &[f64]) -> f64 {
    ipcs.iter().sum()
}

/// Harmonic mean of weighted IPCs — one of the alternative SMT metrics the
/// paper notes Bandit can optimize by simply swapping the reward (§6.4).
///
/// `weighted[i]` is thread *i*'s IPC divided by its isolated (single-thread)
/// IPC. Returns `0.0` if any weighted IPC is zero.
///
/// # Example
///
/// ```
/// let hm = mab_core::reward::harmonic_mean_weighted(&[1.0, 0.5]);
/// assert!((hm - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean_weighted(weighted: &[f64]) -> f64 {
    if weighted.is_empty() || weighted.iter().any(|&w| w <= 0.0) {
        return 0.0;
    }
    weighted.len() as f64 / weighted.iter().map(|w| 1.0 / w).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_delta_ratio() {
        let mut m = IpcMeter::new();
        assert_eq!(m.step(100, 100), 1.0);
        assert_eq!(m.step(400, 200), 3.0);
    }

    #[test]
    fn zero_cycle_step_is_zero_not_nan() {
        let mut m = IpcMeter::new();
        m.latch(10, 10);
        assert_eq!(m.step(20, 10), 0.0);
    }

    #[test]
    fn counter_wrap_saturates() {
        let mut m = IpcMeter::new();
        m.latch(100, 100);
        // Counters went "backwards" (e.g. context switch in a model): clamp.
        assert_eq!(m.step(50, 200), 0.0);
    }

    #[test]
    fn sum_ipc_of_empty_is_zero() {
        assert_eq!(sum_ipc(&[]), 0.0);
    }

    #[test]
    fn harmonic_mean_of_equal_values_is_that_value() {
        assert!((harmonic_mean_weighted(&[0.7, 0.7]) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_rejects_zero() {
        assert_eq!(harmonic_mean_weighted(&[0.0, 1.0]), 0.0);
    }
}
