//! Pythia — a customizable MDP-RL (SARSA) prefetcher (Bera et al.,
//! MICRO 2021), reimplemented in simplified form.
//!
//! Pythia decomposes the environment into states built from program features
//! (here: `PC ⊕ last delta`, and the recent delta history), tracks a Q-value
//! per state/action pair in a feature-hashed QVStore, selects actions
//! ε-greedily, and assigns rewards based on prefetch usefulness and
//! timeliness (not IPC — the contrast §7.2.1 draws against Bandit).
//!
//! The action space matches the paper's description of Pythia: 16 offsets ×
//! 4 degrees = 64 actions (one offset is "no prefetch").

use crate::linemap::{mix, LineMap};
use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// The 16 prefetch offsets (0 = no prefetch).
pub const OFFSETS: [i64; 16] = [0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, -1, -2, -3, -4];
/// The 4 prefetch degrees.
pub const DEGREES: [u32; 4] = [1, 2, 3, 4];
/// Total actions (paper: 64).
pub const ACTIONS: usize = OFFSETS.len() * DEGREES.len();

/// Rows per feature table in the QVStore.
const TABLE_ROWS: usize = 1024;
/// Learning rate α.
const ALPHA: f64 = 0.10;
/// Discount γ.
const GAMMA: f64 = 0.55;
/// Exploration probability.
const EPSILON: f64 = 0.01;
/// Rewards: accurate & timely, accurate but late, wrong, and the immediate
/// no-prefetch rewards on hit/miss.
const R_TIMELY: f64 = 20.0;
const R_LATE: f64 = 12.0;
const R_WRONG: f64 = -12.0;
const R_NP_HIT: f64 = 4.0;
const R_NP_MISS: f64 = -2.0;
/// Outstanding prefetches tracked for reward assignment.
const TRACK_CAPACITY: usize = 2048;
/// Mild negative reward when a tracked prefetch ages out with no outcome
/// (it has not been used for a long time — treat as not useful). Without
/// this, most prefetches in large caches would never produce any feedback
/// and the agent could not learn.
const R_AGED_OUT: f64 = -4.0;

#[derive(Debug, Clone, Copy)]
struct StateAction {
    f1: usize,
    f2: usize,
    action: usize,
}

/// The Pythia prefetcher.
///
/// # Example
///
/// ```
/// use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
/// use mab_prefetch::Pythia;
/// use mab_workloads::MemKind;
///
/// let mut pythia = Pythia::new(7);
/// let mut q = PrefetchQueue::new();
/// for line in 0..100u64 {
///     pythia.train(&L2Access { pc: 0x400, line, hit: false, cycle: 0, instructions: 0, kind: MemKind::Load }, &mut q);
/// }
/// assert_eq!(pythia.action_histogram().len(), 64);
/// ```
pub struct Pythia {
    q1: Vec<[f32; ACTIONS]>,
    q2: Vec<[f32; ACTIONS]>,
    rng: StdRng,
    /// Per-PC last line (direct-mapped), so the delta feature tracks each
    /// instruction's own stream instead of cross-stream noise.
    last_line_per_pc: Box<[(u64, u64); 64]>,
    deltas: [i64; 3],
    last: Option<StateAction>,
    /// Outstanding prefetched lines awaiting an outcome.
    tracked: LineMap<StateAction>,
    tracked_order: VecDeque<u64>,
    action_counts: Vec<u64>,
}

impl std::fmt::Debug for Pythia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pythia")
            .field("tracked", &self.tracked.len())
            .finish()
    }
}

impl Pythia {
    /// Creates a Pythia prefetcher seeded for its ε-greedy exploration.
    pub fn new(seed: u64) -> Self {
        Pythia {
            q1: vec![[0.0; ACTIONS]; TABLE_ROWS],
            q2: vec![[0.0; ACTIONS]; TABLE_ROWS],
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9),
            last_line_per_pc: Box::new([(0, 0); 64]),
            deltas: [0; 3],
            last: None,
            tracked: LineMap::default(),
            tracked_order: VecDeque::new(),
            action_counts: vec![0; ACTIONS],
        }
    }

    /// Paper-reported storage of the hardware Pythia design: 25.5 KB total,
    /// 24 KB of which is the (quantized) QVStore (§7.2.1). The simulation
    /// model uses full-precision tables; the hardware figure is what the
    /// storage comparison reports.
    pub fn storage_bytes() -> usize {
        25 * 1024 + 512
    }

    /// Per-action selection counts — the data behind the paper's Fig. 2
    /// temporal-homogeneity analysis.
    pub fn action_histogram(&self) -> &[u64] {
        &self.action_counts
    }

    /// Decodes an action index into `(offset, degree)`.
    pub fn decode_action(action: usize) -> (i64, u32) {
        (
            OFFSETS[action / DEGREES.len()],
            DEGREES[action % DEGREES.len()],
        )
    }

    fn features(&self, pc: u64) -> (usize, usize) {
        let d = self.deltas;
        let f1 = mix(pc ^ (d[0] as u64).wrapping_mul(31)) as usize % TABLE_ROWS;
        let f2 = mix((d[0] as u64)
            .wrapping_mul(1_000_003)
            .wrapping_add((d[1] as u64).wrapping_mul(10_007))
            .wrapping_add(d[2] as u64)) as usize
            % TABLE_ROWS;
        (f1, f2)
    }

    fn q(&self, f1: usize, f2: usize, action: usize) -> f64 {
        (self.q1[f1][action] + self.q2[f2][action]) as f64
    }

    fn select_action(&mut self, f1: usize, f2: usize) -> usize {
        if self.rng.gen::<f64>() < EPSILON {
            return self.rng.gen_range(0..ACTIONS);
        }
        greedy(&self.q1[f1], &self.q2[f2])
    }

    /// SARSA update: `Q(s,a) += α (r + γ Q(s',a') − Q(s,a))`, where
    /// `(s',a')` is the most recent state/action at reward-assignment time.
    fn update(&mut self, sa: StateAction, reward: f64) {
        let next_q = self.last.map_or(0.0, |n| self.q(n.f1, n.f2, n.action));
        let current = self.q(sa.f1, sa.f2, sa.action);
        let delta = ALPHA * (reward + GAMMA * next_q - current);
        // Split the update across the two feature tables.
        self.q1[sa.f1][sa.action] += (delta / 2.0) as f32;
        self.q2[sa.f2][sa.action] += (delta / 2.0) as f32;
    }

    fn track(&mut self, line: u64, sa: StateAction) {
        let Entry::Vacant(slot) = self.tracked.entry(line) else {
            return;
        };
        slot.insert(sa);
        self.tracked_order.push_back(line);
        while self.tracked.len() > TRACK_CAPACITY {
            if let Some(old) = self.tracked_order.pop_front() {
                if let Some(sa) = self.tracked.remove(&old) {
                    self.update(sa, R_AGED_OUT);
                }
            }
        }
    }

    fn resolve(&mut self, line: u64, reward: f64) {
        if let Some(sa) = self.tracked.remove(&line) {
            self.update(sa, reward);
        }
    }
}

/// The greedy action for Q-value rows `q1` and `q2`: the first index of the
/// largest sum `q1[a] + q2[a]`, ignoring NaN sums, or 0 when no sum exceeds
/// −∞. That is the index a strict-`>` scan from `(0, −∞)` returns: the scan
/// moves only to a larger sum, so it stops on the first index equal to the
/// maximum. Equality, not bit identity, decides that index, so ±0 tie.
fn greedy(q1: &[f32; ACTIONS], q2: &[f32; ACTIONS]) -> usize {
    let mut sums = [0.0f32; ACTIONS];
    for (sum, (a, b)) in sums.iter_mut().zip(q1.iter().zip(q2)) {
        *sum = a + b;
    }
    // Eight running maxima, so the pass vectorises; NaN never wins `>`.
    let mut lanes = [f32::NEG_INFINITY; 8];
    for chunk in sums.chunks_exact(8) {
        for (lane, &sum) in lanes.iter_mut().zip(chunk) {
            if sum > *lane {
                *lane = sum;
            }
        }
    }
    let max = lanes
        .into_iter()
        .fold(f32::NEG_INFINITY, |m, x| if x > m { x } else { m });
    if max == f32::NEG_INFINITY {
        return 0;
    }
    sums.iter().position(|&sum| sum == max).unwrap_or(0)
}

impl Prefetcher for Pythia {
    fn name(&self) -> &str {
        "pythia"
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        let slot = (mix(access.pc) % 64) as usize;
        let (tag, last_line) = self.last_line_per_pc[slot];
        let delta = if tag == access.pc {
            access.line as i64 - last_line as i64
        } else {
            0
        };
        self.last_line_per_pc[slot] = (access.pc, access.line);
        self.deltas = [delta.clamp(-4096, 4096), self.deltas[0], self.deltas[1]];

        let (f1, f2) = self.features(access.pc);
        let action = self.select_action(f1, f2);
        self.action_counts[action] += 1;
        let sa = StateAction { f1, f2, action };
        let (offset, degree) = Pythia::decode_action(action);

        if offset == 0 {
            // Immediate reward for choosing not to prefetch.
            let reward = if access.hit { R_NP_HIT } else { R_NP_MISS };
            self.update(sa, reward);
        } else {
            for k in 1..=degree as i64 {
                let target = access.line as i64 + offset * k;
                if target >= 0 {
                    queue.push(target as u64);
                    self.track(target as u64, sa);
                }
            }
        }
        self.last = Some(sa);
    }

    fn on_prefetch_used(&mut self, line: u64, _cycle: u64) {
        self.resolve(line, R_TIMELY);
    }

    fn on_prefetch_late(&mut self, line: u64, _cycle: u64) {
        self.resolve(line, R_LATE);
    }

    fn on_prefetch_evicted_unused(&mut self, line: u64) {
        self.resolve(line, R_WRONG);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(pc: u64, line: u64, hit: bool) -> L2Access {
        L2Access {
            pc,
            line,
            hit,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    #[test]
    fn action_space_is_sixty_four() {
        assert_eq!(ACTIONS, 64);
        assert_eq!(Pythia::decode_action(0), (0, 1));
        let (o, d) = Pythia::decode_action(ACTIONS - 1);
        assert_eq!((o, d), (-4, 4));
    }

    /// Drives Pythia over a stream and simulates the memory system's
    /// feedback: every prefetch within +1..+4 of the stream front is "used".
    fn drive_stream(p: &mut Pythia, n: u64) {
        let mut q = PrefetchQueue::new();
        for line in 0..n {
            p.train(&access(0x400, line, false), &mut q);
            for target in q.drain().collect::<Vec<_>>() {
                if target > line && target <= line + 8 {
                    p.on_prefetch_used(target, 0);
                } else {
                    p.on_prefetch_evicted_unused(target);
                }
            }
        }
    }

    #[test]
    fn learns_to_prefetch_on_a_stream() {
        let mut p = Pythia::new(1);
        drive_stream(&mut p, 20_000);
        // After training, the no-prefetch actions should not dominate:
        // forward offsets accumulate positive Q via the +20 rewards.
        let counts = p.action_histogram();
        let np: u64 = (0..DEGREES.len()).map(|d| counts[d]).sum();
        let total: u64 = counts.iter().sum();
        assert!(
            (np as f64) < 0.5 * total as f64,
            "no-prefetch fraction too high: {np}/{total}"
        );
    }

    #[test]
    fn action_histogram_is_concentrated_on_streams() {
        // The temporal-homogeneity property of Fig. 2: a regular workload
        // concentrates Pythia's selections on few actions.
        let mut p = Pythia::new(2);
        drive_stream(&mut p, 30_000);
        let mut counts: Vec<u64> = p.action_histogram().to_vec();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top2: u64 = counts.iter().take(2).sum();
        assert!(
            top2 as f64 / total as f64 > 0.5,
            "top-2 fraction {}",
            top2 as f64 / total as f64
        );
    }

    #[test]
    fn wrong_prefetches_are_punished() {
        let mut p = Pythia::new(3);
        let mut q = PrefetchQueue::new();
        // Random accesses; every prefetch is wrong.
        for i in 0..10_000u64 {
            let line = (i * 7919) % 1_000_000;
            p.train(&access(0x400, line, false), &mut q);
            for target in q.drain().collect::<Vec<_>>() {
                p.on_prefetch_evicted_unused(target);
            }
        }
        // Pythia should mostly stop prefetching (select offset 0).
        let mut q2 = PrefetchQueue::new();
        let mut issued = 0;
        for i in 0..1000u64 {
            let line = (i * 104729) % 1_000_000;
            p.train(&access(0x400, line, false), &mut q2);
            issued += q2.drain().count();
        }
        assert!(issued < 1500, "still issuing {issued} prefetches");
    }

    #[test]
    fn tracked_set_is_bounded() {
        let mut p = Pythia::new(4);
        let mut q = PrefetchQueue::new();
        for line in 0..50_000u64 {
            p.train(&access(0x400, line * 3, false), &mut q);
            q.drain().count();
        }
        assert!(p.tracked.len() <= TRACK_CAPACITY);
    }

    #[test]
    fn a_stale_order_key_ages_out_a_re_tracked_line() {
        // Resolving a tracked line leaves its key in `tracked_order`; when
        // the line is tracked again, that stale key, not the new one, ages
        // the new entry out, a full capacity of tracks after the first.
        let mut p = Pythia::new(5);
        let old = StateAction {
            f1: 1,
            f2: 1,
            action: 1,
        };
        let new = StateAction {
            f1: 5,
            f2: 6,
            action: 7,
        };
        let filler = StateAction {
            f1: 0,
            f2: 0,
            action: 2,
        };
        let line = 1 << 30;
        p.track(line, old);
        p.resolve(line, R_TIMELY);
        p.track(line, new);
        assert_eq!(p.tracked_order.len(), 2);
        for other in 0..TRACK_CAPACITY as u64 - 1 {
            p.track(other, filler);
        }
        assert!(p.tracked.contains_key(&line));
        assert_eq!(p.q1[new.f1][new.action], 0.0);
        p.track(TRACK_CAPACITY as u64, filler);
        assert!(!p.tracked.contains_key(&line), "aged out by the stale key");
        assert_eq!(p.tracked.len(), TRACK_CAPACITY);
        let aged = (ALPHA * R_AGED_OUT / 2.0) as f32;
        assert_eq!(p.q1[new.f1][new.action], aged);
        assert_eq!(p.q2[new.f2][new.action], aged);
        // The live key behind it finds nothing and ages the oldest filler.
        p.track(TRACK_CAPACITY as u64 + 1, filler);
        assert!(!p.tracked.contains_key(&0));
        assert!(p.tracked.contains_key(&1));
        assert_eq!(p.tracked.len(), TRACK_CAPACITY);
    }

    #[test]
    fn tracking_a_tracked_line_keeps_the_first_entry() {
        let mut p = Pythia::new(6);
        let first = StateAction {
            f1: 1,
            f2: 2,
            action: 3,
        };
        p.track(42, first);
        p.track(
            42,
            StateAction {
                f1: 4,
                f2: 5,
                action: 6,
            },
        );
        assert_eq!(p.tracked_order.len(), 1);
        p.resolve(42, R_TIMELY);
        assert!(p.q1[1][3] > 0.0);
        assert_eq!(p.q1[4][6], 0.0);
    }

    mod reference {
        use super::*;
        use proptest::prelude::*;

        /// Reference greedy choice: a strict-`>` scan over the sums
        /// widened to `f64`.
        fn scan(q1: &[f32; ACTIONS], q2: &[f32; ACTIONS]) -> usize {
            let mut best = 0;
            let mut best_q = f64::NEG_INFINITY;
            for a in 0..ACTIONS {
                let q = (q1[a] + q2[a]) as f64;
                if q > best_q {
                    best_q = q;
                    best = a;
                }
            }
            best
        }

        /// Values that stress the comparison: NaN, signed zeros and
        /// infinities, and a few small numbers that tie often.
        const SALT: [f32; 9] = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
            0.5,
            -12.0,
        ];
        /// Salt with nothing above zero, so the maximum is often a zero of
        /// either sign, or −∞ behind a NaN.
        const NON_POSITIVE: [f32; 5] = [f32::NAN, 0.0, -0.0, f32::NEG_INFINITY, -1.0];

        fn row(rng: &mut StdRng, salt: &[f32], salt_percent: u32) -> [f32; ACTIONS] {
            std::array::from_fn(|_| {
                if rng.gen_range(0u32..100) < salt_percent {
                    salt[rng.gen_range(0..salt.len())]
                } else {
                    rng.gen_range(-20.0f32..20.0)
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The two-pass argmax picks the strict-`>` scan's index on
            /// rows salted with NaN, ±0, ±∞ and ties.
            #[test]
            fn greedy_matches_the_strict_scan(
                case in 0u64..u64::MAX,
                non_positive in 0u32..2,
                salt_percent in 0u32..=100,
            ) {
                let salt: &[f32] = if non_positive == 1 { &NON_POSITIVE } else { &SALT };
                let mut rng = StdRng::seed_from_u64(case);
                for _ in 0..16 {
                    let q1 = row(&mut rng, salt, salt_percent);
                    let q2 = row(&mut rng, salt, salt_percent);
                    prop_assert_eq!(greedy(&q1, &q2), scan(&q1, &q2));
                }
            }
        }

        #[test]
        fn greedy_handles_degenerate_rows() {
            let zeros = [0.0; ACTIONS];
            for fill in [f32::NAN, f32::NEG_INFINITY, 0.0, -0.0, f32::INFINITY] {
                let mut q1 = [fill; ACTIONS];
                assert_eq!(greedy(&q1, &zeros), scan(&q1, &zeros), "{fill}");
                // A NaN row with one −∞: nothing exceeds −∞, the scan stays at 0.
                q1[37] = f32::NEG_INFINITY;
                assert_eq!(greedy(&q1, &zeros), scan(&q1, &zeros), "{fill}");
                q1[40] = -0.0;
                assert_eq!(greedy(&q1, &zeros), scan(&q1, &zeros), "{fill}");
            }
            // The first zero is +0 in lane 1, but lane 0 meets −0 first.
            let mut q1 = [-1.0; ACTIONS];
            q1[8] = -0.0;
            q1[1] = 0.0;
            assert_eq!(greedy(&q1, &zeros), 1);
            assert_eq!(scan(&q1, &zeros), 1);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut p = Pythia::new(seed);
            drive_stream(&mut p, 5000);
            p.action_histogram().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
