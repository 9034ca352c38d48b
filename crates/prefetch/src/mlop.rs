//! MLOP — Multi-Lookahead Offset Prefetching (Shakerinava et al., DPC-3),
//! reimplemented in simplified form.
//!
//! MLOP scores candidate *offsets*: an offset `o` earns a point whenever the
//! line `X − o` of the current access `X` was itself accessed recently (i.e.
//! prefetching `X' + o` at time of `X'` would have been useful). Every
//! evaluation epoch the best-scoring offsets are (re)selected, and each
//! access then prefetches with all selected offsets.

use crate::linemap::LineMap;
use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Candidate offsets, in lines.
const CANDIDATES: [i64; 30] = [
    1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 32, -1, -2, -3, -4, -5, -6, -7, -8, -10, -12,
    -14, -16, -20, -24, -32,
];
/// Largest candidate offset magnitude, in lines.
const MAX_OFFSET: u64 = 32;
/// Lines per presence-mask region are `1 << REGION_SHIFT` (one `u64`).
const REGION_SHIFT: u32 = 6;
/// Accesses per evaluation epoch.
const EPOCH_ACCESSES: u32 = 512;
/// Recent-access window used for scoring (lines).
const WINDOW: usize = 1024;
/// Maximum offsets selected per epoch (the "multi-lookahead" degree).
const MAX_SELECTED: usize = 3;
/// Minimum score (fraction of the epoch) for an offset to be selected.
const MIN_SCORE_FRAC: f64 = 0.15;

/// The MLOP prefetcher.
///
/// # Example
///
/// ```
/// use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
/// use mab_prefetch::Mlop;
/// use mab_workloads::MemKind;
///
/// let access = |line| L2Access { pc: 0, line, hit: false, cycle: 0, instructions: 0, kind: MemKind::Load };
/// let mut mlop = Mlop::new();
/// let mut q = PrefetchQueue::new();
/// for line in 0..2000u64 {
///     mlop.train(&access(line), &mut q);
///     q.drain();
/// }
/// // A pure stream selects offset +1 (and friends) after the first epoch …
/// assert!(mlop.selected_offsets().contains(&1));
/// // … and every later access prefetches the line after it.
/// mlop.train(&access(2000), &mut q);
/// assert!(q.drain().any(|line| line == 2001));
/// ```
#[derive(Debug, Clone)]
pub struct Mlop {
    /// Recently accessed lines with a reference count.
    recent: LineMap<u32>,
    /// The lines of `recent` as presence bits: bit `line % 64` of the mask
    /// keyed `line / 64`. A region with no recent line has no entry.
    present: LineMap<u64>,
    recent_order: VecDeque<u64>,
    scores: [u32; CANDIDATES.len()],
    epoch_accesses: u32,
    /// Offsets currently selected for prefetching.
    selected: Vec<i64>,
}

impl Default for Mlop {
    fn default() -> Self {
        Mlop::new()
    }
}

impl Mlop {
    /// Creates an MLOP prefetcher with no offsets selected yet.
    pub fn new() -> Self {
        Mlop {
            recent: LineMap::default(),
            present: LineMap::default(),
            recent_order: VecDeque::new(),
            scores: [0; CANDIDATES.len()],
            epoch_accesses: 0,
            selected: Vec::new(),
        }
    }

    /// Paper-reported storage of the full MLOP design (§7.2.1).
    pub fn storage_bytes() -> usize {
        8 * 1024
    }

    /// The offsets currently selected for prefetching.
    pub fn selected_offsets(&self) -> &[i64] {
        &self.selected
    }

    fn remember(&mut self, line: u64) {
        let count = self.recent.entry(line).or_insert(0);
        *count += 1;
        if *count == 1 {
            *self.present.entry(line >> REGION_SHIFT).or_insert(0) |= 1 << (line % 64);
        }
        self.recent_order.push_back(line);
        while self.recent_order.len() > WINDOW {
            if let Some(old) = self.recent_order.pop_front() {
                self.forget(old);
            }
        }
    }

    fn forget(&mut self, line: u64) {
        let Entry::Occupied(mut count) = self.recent.entry(line) else {
            return;
        };
        *count.get_mut() -= 1;
        if *count.get() > 0 {
            return;
        }
        count.remove();
        if let Entry::Occupied(mut mask) = self.present.entry(line >> REGION_SHIFT) {
            *mask.get_mut() &= !(1 << (line % 64));
            if *mask.get() == 0 {
                mask.remove();
            }
        }
    }

    /// Presence mask of region `region` (0 when no line of it is recent).
    fn mask(&self, region: u64) -> u64 {
        self.present.get(&region).copied().unwrap_or(0)
    }

    fn end_epoch(&mut self) {
        let mut ranked: Vec<(u32, i64)> = self
            .scores
            .iter()
            .zip(CANDIDATES)
            .map(|(&s, o)| (s, o))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.abs().cmp(&b.1.abs())));
        let threshold = (EPOCH_ACCESSES as f64 * MIN_SCORE_FRAC) as u32;
        self.selected = ranked
            .into_iter()
            .take(MAX_SELECTED)
            .filter(|&(s, _)| s >= threshold)
            .map(|(_, o)| o)
            .collect();
        self.scores = [0; CANDIDATES.len()];
        self.epoch_accesses = 0;
    }
}

impl Prefetcher for Mlop {
    fn name(&self) -> &str {
        "mlop"
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        let line = access.line;
        // Score: would offset o have predicted this access? Every source
        // line `line - o` lies in `line - 32 ..= line + 32`, which spans at
        // most two regions: read their masks as one 128-line window.
        let region = line.saturating_sub(MAX_OFFSET) >> REGION_SHIFT;
        let window = u128::from(self.mask(region)) | u128::from(self.mask(region + 1)) << 64;
        let origin = region << REGION_SHIFT;
        for (i, &o) in CANDIDATES.iter().enumerate() {
            let source = line as i64 - o;
            if source >= 0 {
                self.scores[i] += (window >> (source as u64 - origin)) as u32 & 1;
            }
        }
        self.remember(line);
        self.epoch_accesses += 1;
        if self.epoch_accesses >= EPOCH_ACCESSES {
            self.end_epoch();
        }
        for &o in &self.selected {
            let target = line as i64 + o;
            if target >= 0 {
                queue.push(target as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(line: u64) -> L2Access {
        L2Access {
            pc: 0,
            line,
            hit: false,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    fn drive(m: &mut Mlop, lines: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut q = PrefetchQueue::new();
        let mut all = Vec::new();
        for l in lines {
            m.train(&access(l), &mut q);
            all.extend(q.drain());
        }
        all
    }

    #[test]
    fn selects_plus_one_for_a_stream() {
        let mut m = Mlop::new();
        drive(&mut m, 0..EPOCH_ACCESSES as u64 + 1);
        assert!(
            m.selected_offsets().contains(&1),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn selects_the_dominant_stride() {
        let mut m = Mlop::new();
        drive(&mut m, (0..EPOCH_ACCESSES as u64 + 1).map(|i| i * 4));
        assert!(
            m.selected_offsets().contains(&4),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn random_accesses_select_nothing() {
        let mut m = Mlop::new();
        // Widely spaced lines: no candidate offset ever scores.
        drive(&mut m, (0..EPOCH_ACCESSES as u64 + 1).map(|i| i * 1000));
        assert!(
            m.selected_offsets().is_empty(),
            "{:?}",
            m.selected_offsets()
        );
    }

    #[test]
    fn prefetches_with_selected_offsets() {
        let mut m = Mlop::new();
        drive(&mut m, 0..EPOCH_ACCESSES as u64 + 1);
        let issued = drive(&mut m, [10_000u64].into_iter());
        assert!(issued.contains(&10_001), "{issued:?}");
    }

    #[test]
    fn adapts_when_the_pattern_changes() {
        let mut m = Mlop::new();
        drive(&mut m, 0..EPOCH_ACCESSES as u64 + 1); // stream (+1)
                                                     // Now a descending stream for two epochs.
        drive(
            &mut m,
            (0..2 * EPOCH_ACCESSES as u64 + 1).map(|i| 1_000_000 - i),
        );
        assert!(
            m.selected_offsets().contains(&-1),
            "{:?}",
            m.selected_offsets()
        );
    }

    /// The region masks hold exactly the lines of `recent`, and no empty
    /// mask is kept.
    fn assert_masks_mirror_recent(m: &Mlop) {
        for &line in m.recent.keys() {
            assert_ne!(m.mask(line >> REGION_SHIFT) & 1 << (line % 64), 0, "{line}");
        }
        let bits: u32 = m.present.values().map(|mask| mask.count_ones()).sum();
        assert_eq!(bits as usize, m.recent.len());
        assert!(m.present.values().all(|&mask| mask != 0));
    }

    #[test]
    fn recent_window_is_bounded() {
        let mut m = Mlop::new();
        drive(&mut m, (0..10 * WINDOW as u64).map(|i| i * 7));
        assert!(m.recent.len() <= WINDOW);
        assert!(m.recent_order.len() <= WINDOW);
        assert_masks_mirror_recent(&m);
        // Repeated lines: counts above one, and regions emptied as the
        // window slides past them.
        drive(
            &mut m,
            (0..3 * WINDOW as u64).map(|i| (i / 3) % 200 + 50_000),
        );
        assert!(m.recent.len() <= WINDOW);
        assert_masks_mirror_recent(&m);
    }

    mod reference {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        /// Reference MLOP: a SipHash map of recent lines, probed once per
        /// candidate offset.
        #[derive(Default)]
        struct RefMlop {
            recent: HashMap<u64, u32>,
            recent_order: VecDeque<u64>,
            scores: [u32; CANDIDATES.len()],
            epoch_accesses: u32,
            selected: Vec<i64>,
        }

        impl RefMlop {
            fn remember(&mut self, line: u64) {
                *self.recent.entry(line).or_insert(0) += 1;
                self.recent_order.push_back(line);
                while self.recent_order.len() > WINDOW {
                    if let Some(old) = self.recent_order.pop_front() {
                        if let Some(count) = self.recent.get_mut(&old) {
                            *count -= 1;
                            if *count == 0 {
                                self.recent.remove(&old);
                            }
                        }
                    }
                }
            }

            fn end_epoch(&mut self) {
                let mut ranked: Vec<(u32, i64)> = self
                    .scores
                    .iter()
                    .zip(CANDIDATES)
                    .map(|(&s, o)| (s, o))
                    .collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.abs().cmp(&b.1.abs())));
                let threshold = (EPOCH_ACCESSES as f64 * MIN_SCORE_FRAC) as u32;
                self.selected = ranked
                    .into_iter()
                    .take(MAX_SELECTED)
                    .filter(|&(s, _)| s >= threshold)
                    .map(|(_, o)| o)
                    .collect();
                self.scores = [0; CANDIDATES.len()];
                self.epoch_accesses = 0;
            }

            fn train(&mut self, line: u64, queue: &mut PrefetchQueue) {
                for (i, &o) in CANDIDATES.iter().enumerate() {
                    let source = line as i64 - o;
                    if source >= 0 && self.recent.contains_key(&(source as u64)) {
                        self.scores[i] += 1;
                    }
                }
                self.remember(line);
                self.epoch_accesses += 1;
                if self.epoch_accesses >= EPOCH_ACCESSES {
                    self.end_epoch();
                }
                for &o in &self.selected {
                    let target = line as i64 + o;
                    if target >= 0 {
                        queue.push(target as u64);
                    }
                }
            }
        }

        /// A line stream mixing the shapes MLOP meets: unit, negative and
        /// wide strides, repeats, lines below 32 (negative sources) and
        /// lines around 64-line region boundaries.
        fn stream(rng: &mut StdRng, len: usize) -> Vec<u64> {
            const STRIDES: [i64; 11] = [1, -1, -3, 5, 24, 32, 33, -32, -40, 64, 100];
            let mut lines = Vec::with_capacity(len);
            let mut line: u64 = rng.gen_range(0..1 << 20);
            while lines.len() < len {
                let run = rng.gen_range(1..300);
                match rng.gen_range(0..5) {
                    0 => {
                        let stride = STRIDES[rng.gen_range(0..STRIDES.len())];
                        for _ in 0..run {
                            lines.push(line);
                            line = line.saturating_add_signed(stride);
                        }
                    }
                    1 => lines.extend((0..run).map(|_| line + rng.gen_range(0u64..4) * 7)),
                    2 => lines.extend((0..run).map(|_| rng.gen_range(0u64..40))),
                    3 => {
                        let edge = rng.gen_range(1u64..1 << 14) * 64;
                        lines.extend((0..run).map(|_| edge - 40 + rng.gen_range(0u64..80)));
                    }
                    _ => line = rng.gen_range(0..1 << 20),
                }
            }
            lines.truncate(len);
            lines
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The masked MLOP queues the same lines after every access and
            /// selects the same offsets as the reference.
            #[test]
            fn masked_mlop_matches_reference(case in 0u64..u64::MAX, len in 1usize..3000) {
                let mut rng = StdRng::seed_from_u64(case);
                let mut fast = Mlop::new();
                let mut slow = RefMlop::default();
                let (mut qf, mut qs) = (PrefetchQueue::new(), PrefetchQueue::new());
                for line in stream(&mut rng, len) {
                    fast.train(&access(line), &mut qf);
                    slow.train(line, &mut qs);
                    prop_assert_eq!(qf.drain().collect::<Vec<_>>(), qs.drain().collect::<Vec<_>>());
                    prop_assert_eq!(fast.selected_offsets(), &slow.selected[..]);
                }
                prop_assert_eq!(fast.scores, slow.scores);
            }
        }
    }
}
