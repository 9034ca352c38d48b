//! Hardware cost accounting for the Bandit microarchitecture (paper §5.4, §6.5).
//!
//! The paper's storage/latency/area/power claims are simple arithmetic over
//! table sizes and functional-unit latencies; this module encodes them so the
//! `tab_storage` experiment can regenerate the numbers.

/// Bytes to store one arm's reward (`f32`, per §5.4).
pub const REWARD_BYTES: usize = 4;
/// Bytes to store one arm's selection count (`u32`, per §5.4).
pub const COUNT_BYTES: usize = 4;

/// Latencies (cycles) of the arithmetic operations used when computing an
/// arm's potential, conservatively taken from Intel instruction tables as in
/// the paper (§5.4: 20 cycles for each of divide and square root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLatencies {
    /// Table read (nTable or rTable), cycles.
    pub read: u32,
    /// Floating-point divide, cycles.
    pub divide: u32,
    /// Floating-point square root, cycles.
    pub sqrt: u32,
    /// Floating-point multiply, cycles.
    pub multiply: u32,
    /// Floating-point add / compare, cycles.
    pub add: u32,
}

impl Default for OpLatencies {
    fn default() -> Self {
        OpLatencies {
            read: 1,
            divide: 20,
            sqrt: 20,
            multiply: 2,
            add: 1,
        }
    }
}

/// Storage overhead in bytes of a Bandit agent with `arms` arms:
/// one rTable entry plus one nTable entry per arm.
///
/// # Example
///
/// ```
/// // The paper's largest configuration: 11 arms → < 100 bytes (§5.4).
/// assert_eq!(mab_core::cost::storage_bytes(11), 88);
/// assert!(mab_core::cost::storage_bytes(11) < 100);
/// ```
pub const fn storage_bytes(arms: usize) -> usize {
    arms * (REWARD_BYTES + COUNT_BYTES)
}

/// Storage of the Pythia MDP-RL prefetcher's state-action values for
/// comparison (paper: 24 KB for the QVStore alone, 25.5 KB total).
pub const PYTHIA_QVSTORE_BYTES: usize = 24 * 1024;
/// Total Pythia storage including auxiliary structures (paper §7.2.1).
pub const PYTHIA_TOTAL_BYTES: usize = 25 * 1024 + 512;
/// MLOP storage (paper §7.2.1).
pub const MLOP_BYTES: usize = 8 * 1024;
/// Bingo storage (paper §7.2.1).
pub const BINGO_BYTES: usize = 46 * 1024;

/// Cycles to pick the next arm in the *naive* design: the potential of every
/// arm is computed sequentially on a single non-pipelined arithmetic unit
/// after the step reward arrives (§5.4 estimates < 500 cycles for 11 arms).
///
/// Per arm: two table reads, one divide (`ln(n_total)/n_i`), one square
/// root, one multiply (`c·√…`), one add, one compare — `ln(n_total)` itself
/// is computed once and reused.
///
/// # Example
///
/// ```
/// use mab_core::cost::{naive_selection_latency, OpLatencies};
///
/// let cycles = naive_selection_latency(11, OpLatencies::default());
/// assert!(cycles < 500, "paper bound: {cycles}");
/// ```
pub fn naive_selection_latency(arms: usize, ops: OpLatencies) -> u32 {
    // `ln(n_total)` is computed once and reused for all arms (§5.4), so the
    // per-arm work is: two reads, one divide, one square root, one multiply,
    // one add. Compares ride along with the adds in the control logic.
    let per_arm = 2 * ops.read + ops.divide + ops.sqrt + ops.multiply + ops.add;
    arms as u32 * per_arm
}

/// Cycles on the critical path of the *advanced* design (§5.4): potentials of
/// all untested arms are precomputed in the background during the step, so
/// only the tested arm's reward fold, potential, and a final compare remain.
///
/// # Example
///
/// ```
/// use mab_core::cost::{overlapped_selection_latency, OpLatencies};
///
/// let cycles = overlapped_selection_latency(OpLatencies::default());
/// assert!(cycles <= 50, "paper estimate ~50 cycles: {cycles}");
/// ```
pub fn overlapped_selection_latency(ops: OpLatencies) -> u32 {
    // The reward fold's divide and the potential's divide overlap with the
    // reward arrival; the critical path is the tested arm's potential
    // (divide + sqrt + multiply + add) plus the final compare.
    ops.divide + ops.sqrt + ops.multiply + ops.add + ops.add
}

/// Area/power estimate of one Bandit agent, scaled to 10 nm (§6.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPower {
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// Paper-reported figures for one agent at 10 nm: 0.00044 mm², 0.11 mW.
pub const BANDIT_AGENT_10NM: AreaPower = AreaPower {
    area_mm2: 0.00044,
    power_mw: 0.11,
};

/// Reference server CPU used for relative overheads: 40-core Intel Icelake,
/// 628 mm² die, 270 W TDP (§6.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceCpu {
    /// Core count.
    pub cores: usize,
    /// Die area, mm².
    pub die_mm2: f64,
    /// TDP, W.
    pub tdp_w: f64,
}

/// The Icelake reference point of §6.5.
pub const ICELAKE_40C: ReferenceCpu = ReferenceCpu {
    cores: 40,
    die_mm2: 628.0,
    tdp_w: 270.0,
};

/// Relative area and power overhead (as fractions) of equipping every core of
/// `cpu` with one Bandit agent.
///
/// # Example
///
/// ```
/// use mab_core::cost::{relative_overheads, BANDIT_AGENT_10NM, ICELAKE_40C};
///
/// let (area, power) = relative_overheads(BANDIT_AGENT_10NM, ICELAKE_40C);
/// // Paper: both overheads are below 0.003%.
/// assert!(area < 0.003e-2);
/// assert!(power < 0.003e-2);
/// ```
pub fn relative_overheads(agent: AreaPower, cpu: ReferenceCpu) -> (f64, f64) {
    let area = agent.area_mm2 * cpu.cores as f64 / cpu.die_mm2;
    let power = agent.power_mw * 1e-3 * cpu.cores as f64 / cpu.tdp_w;
    (area, power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_arms_fit_in_100_bytes() {
        assert!(storage_bytes(11) < 100);
    }

    #[test]
    fn storage_scales_linearly() {
        assert_eq!(storage_bytes(6), 48);
        assert_eq!(storage_bytes(22), 2 * storage_bytes(11));
    }

    #[test]
    fn bandit_is_orders_of_magnitude_smaller_than_pythia() {
        let ratio = PYTHIA_QVSTORE_BYTES as f64 / storage_bytes(11) as f64;
        assert!(ratio > 200.0, "ratio {ratio}");
    }

    #[test]
    fn naive_latency_within_paper_bound() {
        let cycles = naive_selection_latency(11, OpLatencies::default());
        assert!(cycles < 500, "{cycles}");
        assert!(cycles > 300, "should be a conservative estimate: {cycles}");
    }

    #[test]
    fn overlapped_latency_around_fifty_cycles() {
        let cycles = overlapped_selection_latency(OpLatencies::default());
        assert!((40..=55).contains(&cycles), "{cycles}");
    }

    #[test]
    fn overheads_match_paper_claim() {
        let (area, power) = relative_overheads(BANDIT_AGENT_10NM, ICELAKE_40C);
        assert!(area < 3e-5);
        assert!(power < 3e-5);
        assert!(area > 0.0 && power > 0.0);
    }
}
