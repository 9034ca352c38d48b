//! SMT pipeline parameters (paper Table 5, the SecSMT configuration).

/// Parameters of the simulated 2-way SMT core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtParams {
    /// Instructions fetched per cycle from the selected thread
    /// (Table 5's 16-byte fetch ≈ 4 x86 instructions).
    pub fetch_width: u32,
    /// Instructions renamed/dispatched per cycle (5 uops).
    pub decode_width: u32,
    /// Instructions issued per cycle (8 uops).
    pub issue_width: u32,
    /// Instructions committed per cycle (8 uops).
    pub commit_width: u32,
    /// Shared instruction-queue entries.
    pub iq_size: u32,
    /// Shared reorder-buffer entries.
    pub rob_size: u32,
    /// Shared load-queue entries.
    pub lq_size: u32,
    /// Shared store-queue entries.
    pub sq_size: u32,
    /// Shared integer physical registers.
    pub irf_size: u32,
    /// Shared floating-point physical registers.
    pub frf_size: u32,
    /// Per-thread fetch-buffer (front-end queue) entries.
    pub fetch_buffer: u32,
    /// Load latencies by class: L1 hit, L2 hit, memory.
    pub load_latency: [u32; 3],
    /// Extra cycles a memory-class store holds its SQ entry after commit.
    pub store_drain_latency: u32,
    /// Long-latency ALU operation latency (FP divide and friends).
    pub long_alu_latency: u32,
    /// Front-end refill penalty after a mispredicted branch.
    pub mispredict_penalty: u32,
    /// How many of the oldest un-issued instructions the scheduler scans
    /// per thread per cycle.
    pub scheduler_window: usize,
    /// Hill-Climbing epoch length in cycles (64k in Table 6).
    pub epoch_cycles: u64,
}

impl Default for SmtParams {
    /// Table 5: Skylake-like SMT core at 3.3 GHz, 4 MB L2, no L3.
    fn default() -> Self {
        SmtParams {
            fetch_width: 4,
            decode_width: 5,
            issue_width: 8,
            commit_width: 8,
            iq_size: 97,
            rob_size: 224,
            lq_size: 72,
            sq_size: 56,
            irf_size: 180,
            frf_size: 164,
            fetch_buffer: 16,
            load_latency: [4, 18, 160],
            store_drain_latency: 40,
            long_alu_latency: 12,
            mispredict_penalty: 12,
            scheduler_window: 24,
            epoch_cycles: 64 * 1024,
        }
    }
}

impl SmtParams {
    /// A scaled-down configuration for fast unit tests: identical structure,
    /// short epochs.
    pub fn test_scale() -> Self {
        SmtParams {
            epoch_cycles: 2048,
            ..SmtParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table5() {
        let p = SmtParams::default();
        assert_eq!(p.iq_size, 97);
        assert_eq!(p.rob_size, 224);
        assert_eq!(p.lq_size, 72);
        assert_eq!(p.sq_size, 56);
        assert_eq!(p.irf_size, 180);
        assert_eq!(p.frf_size, 164);
        assert_eq!(p.decode_width, 5);
        assert_eq!(p.issue_width, 8);
        assert_eq!(p.commit_width, 8);
        assert_eq!(p.epoch_cycles, 65_536);
    }

    #[test]
    fn test_scale_only_shortens_epochs() {
        let t = SmtParams::test_scale();
        let d = SmtParams::default();
        assert_eq!(t.rob_size, d.rob_size);
        assert!(t.epoch_cycles < d.epoch_cycles);
    }
}
