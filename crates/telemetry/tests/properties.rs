//! Property tests for the histogram registry.
//!
//! The log2 histograms' invariants hold over *every* input sequence, so
//! they are checked with randomized inputs rather than hand-picked cases.

use mab_telemetry::hist::BUCKETS;
use mab_telemetry::Histogram;
use proptest::prelude::*;

proptest! {
    /// Percentile queries are monotone in the requested quantile, bracket
    /// the recorded values, and the count matches the number of records.
    #[test]
    fn histogram_percentiles_are_monotone(
        values in prop::collection::vec(0u64..1_000_000_000_000, 1..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);

        let grid = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = 0u64;
        for &p in &grid {
            let q = h.percentile(p);
            prop_assert!(q >= prev, "percentile({}) = {} < {}", p, q, prev);
            prev = q;
        }
        // The top percentile's bucket upper bound covers the maximum value,
        // and no percentile exceeds that bucket's bound.
        let max = *values.iter().max().unwrap();
        prop_assert!(h.percentile(1.0) >= max);
    }

    /// Merging one histogram into another adds counts, sums and buckets.
    #[test]
    fn histogram_merge_adds_counts(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(ha.bucket_counts(), hall.bucket_counts());
        let grid = [0.25, 0.5, 0.9, 0.99];
        for &p in &grid {
            prop_assert_eq!(ha.percentile(p), hall.percentile(p));
        }
        prop_assert_eq!(ha.bucket_counts().len(), BUCKETS);
    }
}
