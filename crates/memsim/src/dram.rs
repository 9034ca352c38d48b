//! Bandwidth-constrained DRAM model.
//!
//! The paper's Fig. 10 sweeps the available DRAM bandwidth from 150 to
//! 9600 MTPS and shows that Bandit learns to throttle aggressive prefetching
//! under bandwidth pressure *without* any explicit bandwidth signal — the
//! IPC reward carries the information. That effect only appears if the
//! simulator makes prefetch traffic contend with demand traffic, which is
//! exactly what this single-queue service model does.

/// DRAM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Line transfers served.
    pub transfers: u64,
    /// Sum of queueing delays (cycles), for average-occupancy reporting.
    pub total_queue_delay: f64,
}

impl DramStats {
    /// Average queueing delay per transfer, in cycles.
    pub fn avg_queue_delay(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.total_queue_delay / self.transfers as f64
        }
    }
}

/// A single-channel DRAM with a fixed unloaded latency and a line-transfer
/// service rate derived from the configured MTPS.
///
/// Requests are serviced in arrival order; when the channel is busy the
/// request queues, so sustained over-subscription (e.g. useless prefetch
/// floods) inflates everyone's latency.
///
/// # Example
///
/// ```
/// use mab_memsim::dram::Dram;
///
/// let mut dram = Dram::new(13.33, 90);
/// let first = dram.access(0);
/// let second = dram.access(0); // queues behind the first
/// assert!(second > first);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dram {
    service_cycles: f64,
    latency: u32,
    busy_until: f64,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM with `service_cycles` of bus occupancy per 64-byte
    /// line and `latency` cycles of unloaded access latency.
    pub fn new(service_cycles: f64, latency: u32) -> Self {
        Dram {
            service_cycles,
            latency,
            busy_until: 0.0,
            stats: DramStats::default(),
        }
    }

    /// Issues a line transfer at cycle `now`; returns the total latency in
    /// cycles (queueing + unloaded latency + transfer).
    pub fn access(&mut self, now: u64) -> u64 {
        let now = now as f64;
        let start = now.max(self.busy_until);
        let queue_delay = start - now;
        self.busy_until = start + self.service_cycles;
        self.stats.transfers += 1;
        self.stats.total_queue_delay += queue_delay;
        (queue_delay + self.latency as f64 + self.service_cycles).round() as u64
    }

    /// Outstanding channel busy time at cycle `now`, in cycles (0 when the
    /// channel is idle). This is the queueing pressure a request arriving now
    /// would see — the occupancy signal sampled into telemetry traces.
    pub fn backlog(&self, now: u64) -> f64 {
        (self.busy_until - now as f64).max(0.0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Unloaded latency plus one transfer time (the minimum access latency).
    pub fn min_latency(&self) -> u64 {
        (self.latency as f64 + self.service_cycles).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_access_pays_min_latency() {
        let mut d = Dram::new(10.0, 90);
        assert_eq!(d.access(1000), 100);
    }

    #[test]
    fn back_to_back_accesses_queue() {
        let mut d = Dram::new(10.0, 90);
        let a = d.access(0);
        let b = d.access(0);
        let c = d.access(0);
        assert_eq!(a, 100);
        assert_eq!(b, 110);
        assert_eq!(c, 120);
        assert!(d.stats().avg_queue_delay() > 0.0);
    }

    #[test]
    fn queue_drains_when_idle() {
        let mut d = Dram::new(10.0, 90);
        d.access(0);
        // Long idle gap: the next access sees an idle channel again.
        assert_eq!(d.access(10_000), 100);
    }

    #[test]
    fn lower_bandwidth_means_longer_service() {
        let mut slow = Dram::new(213.0, 90);
        let mut fast = Dram::new(3.3, 90);
        assert!(slow.access(0) > fast.access(0));
    }

    #[test]
    fn backlog_tracks_channel_pressure() {
        let mut d = Dram::new(10.0, 90);
        assert_eq!(d.backlog(0), 0.0);
        d.access(0);
        d.access(0);
        assert_eq!(d.backlog(0), 20.0);
        assert_eq!(d.backlog(5), 15.0);
        assert_eq!(d.backlog(10_000), 0.0);
    }

    #[test]
    fn transfer_count_tracks_accesses() {
        let mut d = Dram::new(5.0, 50);
        for i in 0..7 {
            d.access(i * 1000);
        }
        assert_eq!(d.stats().transfers, 7);
    }
}
