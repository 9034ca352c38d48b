//! Exact integer draws: the generators' random decisions made from the
//! raw bits of their draws, with thresholds computed once from the float
//! expressions the decisions were first written in.
//!
//! The rand shim samples `gen::<f64>()` as `k · 2^-53` with
//! `k = next_u64() >> 11` ([`unit_bits`]), so a float decision on one draw
//! is an integer compare on `k`, and a draw from `0..span` is
//! `next_u64() % span`. Each helper here consumes exactly the draws the
//! float form consumed, in the same order, so a stream keeps its values.

use rand::rngs::StdRng;
use rand::RngCore;

/// The comparison a [`draw_threshold`] stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    /// `gen::<f64>() < p`, decided as `bits < threshold`.
    Below,
    /// `gen::<f64>() > p`, decided as `bits >= threshold`.
    Above,
}

/// `2^53`, the scale of the rand shim's unit draws: `gen::<f64>()` is
/// `(next_u64() >> 11) · 2^-53`.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The 53 random bits behind one `gen::<f64>()` draw, without the float.
#[inline]
pub(crate) fn unit_bits(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

/// The integer threshold that decides a comparison of one `gen::<f64>()`
/// draw `x` with a fixed `p` from the draw's [`unit_bits`] `k`.
///
/// `x = k · 2^-53`, and scaling by 2^53 is exact, so with `q = p · 2^53`:
/// `x < p` ⇔ `k < ceil(q)`, and `x > p` ⇔ `k > floor(q)` ⇔
/// `k >= floor(q) + 1`. The `as u64` cast saturates, which keeps the float
/// compare's answer at the extremes: a negative bound (negative `p`, −∞)
/// becomes 0, and one at or past 2^53 (`p >= 1`, +∞) lies past every draw.
/// NaN compares false both ways: the cast sends it to 0, which no draw is
/// below, and [`Cmp::Above`] sends it past every draw.
pub(crate) fn draw_threshold(p: f64, cmp: Cmp) -> u64 {
    let q = p * UNIT_SCALE;
    match cmp {
        Cmp::Below => q.ceil() as u64,
        Cmp::Above if p.is_nan() => u64::MAX,
        Cmp::Above => (q.floor() + 1.0) as u64,
    }
}

/// A weighted choice of one of `n` items from one draw, decided by `n - 1`
/// bounds on the draw's [`unit_bits`].
///
/// It reproduces the float pick: scale the draw by the total weight, then
/// walk the items, subtracting each weight until the rest falls below the
/// next one (the last item takes what is left). Every step of that walk is
/// monotone in the draw — a product with a total of at least zero, then
/// rounded subtractions of constants and compares with constants, and
/// IEEE rounding is monotone — so the item picked never falls as the draw
/// grows. Bound `i` is the least draw that picks past item `i`, found by
/// bisecting the float walk over the draw's 53 bits, so the bounds keep
/// every rounding of the running subtraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WeightedPick {
    bounds: Box<[u64]>,
}

impl WeightedPick {
    /// The pick among `weights`, totalled in order as the float pick did.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums below zero (a negative total
    /// turns the float pick's order around).
    pub(crate) fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "a pick needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(total >= 0.0 || total.is_nan(), "weights sum below zero");
        let mut least = 0;
        let bounds = (0..weights.len() - 1)
            .map(|i| {
                let (mut lo, mut hi) = (least, 1u64 << 53);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if float_pick(weights, total, mid) > i {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                least = lo;
                lo
            })
            .collect();
        WeightedPick { bounds }
    }

    /// The item picked by a fresh draw.
    #[inline]
    pub(crate) fn pick(&self, rng: &mut StdRng) -> usize {
        self.decide(unit_bits(rng))
    }

    /// The item a draw of `bits` picks.
    #[inline]
    fn decide(&self, bits: u64) -> usize {
        self.bounds
            .iter()
            .position(|&bound| bits < bound)
            .unwrap_or(self.bounds.len())
    }
}

/// The float walk [`WeightedPick`] reproduces, for a draw of `bits`.
fn float_pick(weights: &[f64], total: f64, bits: u64) -> usize {
    let mut rest = bits as f64 * (1.0 / UNIT_SCALE) * total;
    for (i, &weight) in weights.iter().enumerate() {
        if rest < weight {
            return i;
        }
        rest -= weight;
    }
    weights.len() - 1
}

/// A draw from `0..span` as the rand shim's `gen_range(0..span)` makes it,
/// `next_u64() % span`, taken by mask when `span` is a power of two (every
/// footprint in the catalog is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanDraw {
    span: u64,
    pow2: bool,
}

impl SpanDraw {
    /// Draws from `0..span.max(1)`.
    pub(crate) fn new(span: u64) -> Self {
        let span = span.max(1);
        SpanDraw {
            span,
            pow2: span.is_power_of_two(),
        }
    }

    /// The next value in `0..span`, from one `next_u64()`.
    #[inline]
    pub(crate) fn draw(self, rng: &mut StdRng) -> u64 {
        let bits = rng.next_u64();
        if self.pow2 {
            bits & (self.span - 1)
        } else {
            bits % self.span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::PatternSpec;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Probabilities where a threshold is easy to get wrong, beside the
    /// draw `x` a case is about to make: `x` itself and its neighbours,
    /// the half-way points on either side (where `floor` and `ceil` part),
    /// the specials, and every sum and clamp the catalogs feed in.
    fn edge_probabilities(x: f64) -> Vec<f64> {
        let half_step = 1.0 / (1u64 << 54) as f64;
        let mut ps = vec![
            x,
            x + half_step,
            x - half_step,
            f64::from_bits(x.to_bits() + 1),
            f64::from_bits(x.to_bits().saturating_sub(1)),
            0.0,
            -0.0,
            1.0,
            1.0 - 2.0 * half_step,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.25,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1e300,
        ];
        for s in crate::smt::smt_apps() {
            ps.extend([
                s.load_ratio + s.store_ratio,
                s.load_ratio + s.store_ratio + s.branch_ratio,
                s.load_l1 + s.load_l2,
                (1.0 / s.dep_mean).clamp(0.02, 1.0),
            ]);
        }
        for phase in crate::suites::all_apps().iter().flat_map(|a| &a.phases) {
            ps.extend([
                phase.mem_ratio,
                phase.mem_ratio + phase.branch_ratio,
                phase.store_frac,
            ]);
            for (pattern, _) in &phase.patterns {
                if let PatternSpec::HotCold { hot_frac, .. } = *pattern {
                    ps.push(hot_frac.clamp(0.0, 1.0));
                }
            }
        }
        ps
    }

    /// The float weighted pick `AppTrace` made per memory record before
    /// [`WeightedPick`], on a draw `x` of `gen::<f64>()`.
    fn reference_pick(weights: &[f64], x: f64) -> usize {
        let total: f64 = weights.iter().sum();
        let mut pick = x * total;
        let mut chosen = weights.len() - 1;
        for (i, &weight) in weights.iter().enumerate() {
            if pick < weight {
                chosen = i;
                break;
            }
            pick -= weight;
        }
        chosen
    }

    /// The weight vectors the pick is checked on: every phase of the
    /// catalog, as `AppTrace` splits it into kernels, and edge vectors (one
    /// item, zero weights, a running subtraction that rounds, totals of 0,
    /// +∞ and NaN).
    fn weight_vectors() -> Vec<Vec<f64>> {
        let mut vectors: Vec<Vec<f64>> = crate::suites::all_apps()
            .iter()
            .flat_map(|a| &a.phases)
            .map(crate::apps::kernel_weights)
            .collect();
        vectors.extend([
            vec![1.0],
            vec![0.3],
            vec![0.5, 0.0, 0.5],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0, 0.0],
            vec![0.1; 10],
            vec![1.0 / 3.0; 7],
            vec![0.35, 0.35, 0.3],
            vec![1e-300, 1.0, 1e-300],
            vec![1e308, 1e308, 1.0],
            vec![f64::NAN, 1.0],
        ]);
        vectors
    }

    #[test]
    fn weighted_pick_decides_like_the_float_walk_at_every_bound() {
        for weights in weight_vectors() {
            let pick = WeightedPick::new(&weights);
            assert_eq!(pick.bounds.len(), weights.len() - 1, "{weights:?}");
            let x = |bits: u64| bits as f64 / UNIT_SCALE;
            let mut draws = vec![0, 1, (1 << 52) - 1, 1 << 52, (1 << 53) - 2, (1 << 53) - 1];
            for &bound in pick.bounds.iter() {
                draws.extend([bound.saturating_sub(1), bound, bound + 1]);
            }
            for bits in draws.into_iter().filter(|&bits| bits < 1 << 53) {
                assert_eq!(
                    pick.decide(bits),
                    reference_pick(&weights, x(bits)),
                    "{weights:?} at draw {bits:#x}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn draw_thresholds_decide_like_the_float_compare(
            seed in 0u64..u64::MAX,
            p in -0.5f64..1.5,
        ) {
            let rng = StdRng::seed_from_u64(seed);
            let x: f64 = rng.clone().gen();
            let mut ps = edge_probabilities(x);
            ps.push(p);
            for p in ps {
                for cmp in [Cmp::Below, Cmp::Above] {
                    let (mut int_rng, mut float_rng) = (rng.clone(), rng.clone());
                    let bits = unit_bits(&mut int_rng);
                    let threshold = draw_threshold(p, cmp);
                    let x: f64 = float_rng.gen();
                    let (int, float) = match cmp {
                        Cmp::Below => (bits < threshold, x < p),
                        Cmp::Above => (bits >= threshold, x > p),
                    };
                    prop_assert_eq!(int, float, "{:?} p={:e} x={:e}", cmp, p, x);
                    // Each decision consumed exactly one draw.
                    prop_assert_eq!(int_rng.next_u64(), float_rng.next_u64());
                }
            }
        }

        #[test]
        fn weighted_picks_match_the_float_pick_at_random_draws(seed in 0u64..u64::MAX) {
            let rng = StdRng::seed_from_u64(seed);
            for weights in weight_vectors() {
                let (mut int_rng, mut float_rng) = (rng.clone(), rng.clone());
                let picked = WeightedPick::new(&weights).pick(&mut int_rng);
                let x: f64 = float_rng.gen();
                prop_assert_eq!(picked, reference_pick(&weights, x), "{:?} x={:e}", weights, x);
                // Each pick consumed exactly one draw.
                prop_assert_eq!(int_rng.next_u64(), float_rng.next_u64());
            }
        }

        #[test]
        fn span_draws_match_gen_range(seed in 0u64..u64::MAX, span in 1u64..u64::MAX, shift in 0u32..64) {
            let rng = StdRng::seed_from_u64(seed);
            for span in [span, 1 << shift, (1 << shift) + 1] {
                let (mut int_rng, mut float_rng) = (rng.clone(), rng.clone());
                prop_assert_eq!(
                    SpanDraw::new(span).draw(&mut int_rng),
                    float_rng.gen_range(0..span)
                );
                prop_assert_eq!(int_rng.next_u64(), float_rng.next_u64());
            }
        }
    }
}
