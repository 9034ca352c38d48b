//! Simulated system parameters (paper Table 4 and §6.1 variants).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Access latency in cycles (cumulative from the core's point of view is
    /// computed by the system).
    pub latency: u32,
}

impl CacheParams {
    /// Number of sets for 64-byte lines.
    pub fn sets(&self) -> u64 {
        (self.capacity_bytes / 64 / self.ways as u64).max(1)
    }
}

/// Core pipeline parameters relevant to the interval timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreParams {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries (the lookahead window for MLP).
    pub rob_size: u32,
    /// Core frequency in MHz (4 GHz in Table 4).
    pub freq_mhz: u64,
}

/// Full single/multi-core system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Core parameters (identical across cores).
    pub core: CoreParams,
    /// L1 data cache.
    pub l1: CacheParams,
    /// Private L2.
    pub l2: CacheParams,
    /// Shared last-level cache capacity *per core*.
    pub llc_per_core: CacheParams,
    /// DRAM bandwidth in megatransfers per second (8-byte transfers;
    /// 2400 MTPS is the paper's baseline, Fig. 10 sweeps 150–9600).
    pub dram_mtps: u64,
    /// Effective DRAM access latency in cycles (stands in for the loaded
    /// row-access latency of a detailed DRAM model; queueing on the data bus
    /// is modeled separately).
    pub dram_latency: u32,
    /// Maximum in-flight prefetches per core.
    pub prefetch_queue: usize,
    /// Maximum outstanding demand misses per core (L1 MSHRs). This is what
    /// limits a core's natural memory-level parallelism and what makes
    /// prefetching (which does not occupy demand MSHRs) valuable.
    pub demand_mshrs: usize,
}

impl Default for SystemConfig {
    /// The paper's Table 4 configuration: Skylake-like core, 32 KB L1,
    /// 256 KB L2, 2 MB LLC/core, 2400 MTPS DRAM.
    fn default() -> Self {
        SystemConfig {
            core: CoreParams {
                fetch_width: 6,
                commit_width: 4,
                rob_size: 256,
                freq_mhz: 4000,
            },
            l1: CacheParams {
                capacity_bytes: 32 * 1024,
                ways: 8,
                latency: 4,
            },
            l2: CacheParams {
                capacity_bytes: 256 * 1024,
                ways: 8,
                latency: 10,
            },
            llc_per_core: CacheParams {
                capacity_bytes: 2 * 1024 * 1024,
                ways: 16,
                latency: 26,
            },
            dram_mtps: 2400,
            dram_latency: 180,
            prefetch_queue: 32,
            demand_mshrs: 12,
        }
    }
}

impl SystemConfig {
    /// The alternative hierarchy of Fig. 11: L2 = 1 MB, LLC = 1.5 MB/core.
    pub fn alt_cache() -> Self {
        let mut cfg = SystemConfig::default();
        cfg.l2.capacity_bytes = 1024 * 1024;
        cfg.llc_per_core.capacity_bytes = 3 * 1024 * 1024 / 2;
        cfg
    }

    /// Replaces the DRAM bandwidth (Fig. 10 sweep).
    pub fn with_dram_mtps(mut self, mtps: u64) -> Self {
        self.dram_mtps = mtps;
        self
    }

    /// Cycles the DRAM data bus is busy transferring one 64-byte line:
    /// `freq · 64 B / (MTPS · 8 B)`.
    pub fn dram_service_cycles(&self) -> f64 {
        self.core.freq_mhz as f64 * 64.0 / (self.dram_mtps as f64 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table4_sizes() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.l1.sets(), 64); // 32KB / 64B / 8 ways
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.llc_per_core.sets(), 2048);
        assert_eq!(cfg.core.rob_size, 256);
    }

    #[test]
    fn alt_cache_changes_only_l2_and_llc() {
        let alt = SystemConfig::alt_cache();
        let base = SystemConfig::default();
        assert_eq!(alt.l2.capacity_bytes, 1024 * 1024);
        assert_eq!(alt.llc_per_core.capacity_bytes, 3 * 1024 * 1024 / 2);
        assert_eq!(alt.l1, base.l1);
        assert_eq!(alt.core, base.core);
    }

    #[test]
    fn dram_service_time_scales_inversely_with_bandwidth() {
        let base = SystemConfig::default();
        let slow = base.with_dram_mtps(150);
        let fast = base.with_dram_mtps(9600);
        assert!((base.dram_service_cycles() - 13.333).abs() < 0.01);
        assert!((slow.dram_service_cycles() / base.dram_service_cycles() - 16.0).abs() < 0.01);
        assert!((base.dram_service_cycles() / fast.dram_service_cycles() - 4.0).abs() < 0.01);
    }
}
