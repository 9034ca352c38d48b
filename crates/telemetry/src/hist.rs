//! Lock-free log2-bucket histograms.
//!
//! Values are recorded into power-of-two buckets with atomic counters, so
//! recording is a single relaxed fetch-add. Floating-point values (rewards,
//! IPC) are scaled to fixed-point micro-units first. Percentile queries
//! return the upper bound of the bucket containing the target rank, which
//! makes them monotone in the requested percentile by construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Scale factor mapping f64 measurements into integer micro-units.
const MICRO: f64 = 1e6;

/// Number of buckets: one for zero plus one per possible leading-bit
/// position of a `u64`.
pub const BUCKETS: usize = 65;

/// Every histogram tracked by the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Raw per-step rewards handed to the bandit agent (micro-units).
    Reward,
    /// Per-epoch IPC observed by the SMT controllers (micro-units).
    EpochIpc,
    /// Demand-miss service latency in cycles.
    MissLatency,
}

impl Hist {
    /// Number of distinct histograms.
    pub const COUNT: usize = 3;

    /// All histograms, in declaration order.
    pub const ALL: [Hist; Hist::COUNT] = [Hist::Reward, Hist::EpochIpc, Hist::MissLatency];

    /// Stable snake_case name used by the exporters.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::Reward => "reward",
            Hist::EpochIpc => "epoch_ipc",
            Hist::MissLatency => "miss_latency",
        }
    }
}

/// A single lock-free histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

#[inline]
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one integer observation (lock-free).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records one floating-point observation in micro-units. Negative and
    /// non-finite values clamp to zero.
    #[inline]
    pub fn record_f64(&self, value: f64) {
        let scaled = if value.is_finite() && value > 0.0 {
            (value * MICRO) as u64
        } else {
            0
        };
        self.record(scaled);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-quantile (`p` in 0..=1).
    /// Returns 0 for an empty histogram. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.buckets[i].load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// [`Histogram::percentile`] in original units.
    pub fn percentile_f64(&self, p: f64) -> f64 {
        self.percentile(p) as f64 / MICRO
    }

    /// Per-bucket counts (used by exporters and tests).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let v = other.buckets[i].load(Ordering::Relaxed);
            if v != 0 {
                self.buckets[i].fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            assert!(bucket_upper(i) > bucket_upper(i - 1));
        }
    }

    #[test]
    fn percentiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!(p50 >= 500, "p50 {p50}");
        assert!(p99 >= 990, "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn f64_values_round_trip_through_micro_units() {
        let h = Histogram::new();
        h.record_f64(1.5);
        h.record_f64(-3.0); // clamps to 0
        h.record_f64(f64::NAN); // clamps to 0
        assert_eq!(h.count(), 3);
        let p100 = h.percentile_f64(1.0);
        assert!(p100 >= 1.5, "p100 {p100}");
    }

    #[test]
    fn merge_accumulates_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..10 {
            a.record(v);
            b.record(v * 100);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert!(a.percentile(1.0) >= 900);
    }
}
