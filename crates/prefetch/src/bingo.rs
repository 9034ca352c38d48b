//! Bingo spatial data prefetcher (Bakhshalipour et al., HPCA 2019),
//! reimplemented in simplified form.
//!
//! Bingo learns the *spatial footprint* of memory regions: which lines of a
//! region a program touches after first entering it, associated with the
//! `PC+offset` event that triggered the region visit. On a later trigger
//! with the same signature, the whole recorded footprint is prefetched at
//! once.

use crate::linemap::LineMap;
use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Lines per region (2 KB regions as in the Bingo paper).
pub const REGION_LINES: u64 = 32;
/// Concurrently tracked region generations.
const ACCUM_CAPACITY: usize = 64;
/// Footprint history capacity (signatures).
const HISTORY_CAPACITY: usize = 4096;
/// Maximum lines replayed per trigger (paces full-region footprints).
const REPLAY_CAP: usize = 12;

#[derive(Debug, Clone, Copy)]
struct Generation {
    trigger_sig: u64,
    footprint: u32,
}

#[derive(Debug, Clone, Copy)]
struct HistoryEntry {
    footprint: u32,
    /// Consistent-generation count; replay requires `>= 2` so one noisy
    /// generation cannot trigger useless footprint floods.
    confidence: u8,
}

/// The Bingo prefetcher.
///
/// # Example
///
/// ```
/// use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
/// use mab_prefetch::Bingo;
/// use mab_workloads::MemKind;
///
/// let mut bingo = Bingo::new();
/// let mut q = PrefetchQueue::new();
/// let access = |line| L2Access { pc: 0x400, line, hit: false, cycle: 0, instructions: 0, kind: MemKind::Load };
/// // Two visits to regions entered at offset 0 touch the same footprint
/// // {0, 1, 3, 6}; visiting 100 other regions in between retires each
/// // visit's footprint into the history.
/// for base in [64, 6400] {
///     for l in [base, base + 1, base + 3, base + 6] { bingo.train(&access(l), &mut q); }
///     for r in 1..=100 { bingo.train(&access(base + r * 32), &mut q); }
/// }
/// q.drain();
/// // Entering a new region at offset 0 replays the footprint, nearest first.
/// bingo.train(&access(32_000), &mut q);
/// assert_eq!(q.drain().collect::<Vec<_>>(), [32_001, 32_003, 32_006]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bingo {
    accumulating: LineMap<Generation>,
    accum_order: VecDeque<u64>,
    history: LineMap<HistoryEntry>,
    history_order: VecDeque<u64>,
}

impl Bingo {
    /// Creates an empty Bingo prefetcher.
    pub fn new() -> Self {
        Bingo::default()
    }

    /// Paper-reported storage of the full Bingo design (§7.2.1).
    pub fn storage_bytes() -> usize {
        46 * 1024
    }

    fn signature(pc: u64, offset: u64) -> u64 {
        (pc << 6) ^ offset
    }

    fn commit(&mut self, generation: Generation) {
        // Only footprints with some spatial structure are worth remembering.
        if generation.footprint.count_ones() < 2 {
            return;
        }
        match self.history.entry(generation.trigger_sig) {
            Entry::Occupied(mut slot) => {
                // Confidence grows only when generations agree.
                let entry = slot.get_mut();
                let overlap = (entry.footprint & generation.footprint).count_ones();
                let union = (entry.footprint | generation.footprint).count_ones();
                if overlap * 2 >= union {
                    entry.confidence = entry.confidence.saturating_add(1).min(3);
                } else {
                    entry.confidence = 1;
                }
                entry.footprint = generation.footprint;
            }
            Entry::Vacant(slot) => {
                self.history_order.push_back(generation.trigger_sig);
                slot.insert(HistoryEntry {
                    footprint: generation.footprint,
                    confidence: 1,
                });
            }
        }
        while self.history.len() > HISTORY_CAPACITY {
            if let Some(old) = self.history_order.pop_front() {
                self.history.remove(&old);
            }
        }
    }
}

/// Queues up to [`REPLAY_CAP`] lines of `footprint` (bits are offsets from
/// `base`) other than the trigger `offset`, walking outward from it: nearest
/// first and, at equal distance, the lower line first.
fn replay(base: u64, offset: u64, footprint: u32, queue: &mut PrefetchQueue) {
    let mut rest = footprint & !(1 << offset);
    let mut left = REPLAY_CAP;
    for distance in 1..REGION_LINES {
        for bit in [offset.wrapping_sub(distance), offset + distance] {
            if bit < REGION_LINES && rest & (1 << bit) != 0 {
                queue.push(base + bit);
                rest &= !(1 << bit);
                left -= 1;
                if left == 0 || rest == 0 {
                    return;
                }
            }
        }
    }
}

impl Prefetcher for Bingo {
    fn name(&self) -> &str {
        "bingo"
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        let region = access.line / REGION_LINES;
        let offset = access.line % REGION_LINES;

        let sig = Bingo::signature(access.pc, offset);
        match self.accumulating.entry(region) {
            Entry::Occupied(mut generation) => {
                generation.get_mut().footprint |= 1 << offset;
                return;
            }
            // Trigger access: a region is entered anew. Start accumulating
            // its new generation.
            Entry::Vacant(slot) => {
                slot.insert(Generation {
                    trigger_sig: sig,
                    footprint: 1 << offset,
                });
            }
        }

        // Replay the stored footprint, nearest lines first, capped so a
        // full-region footprint does not flood the memory bus in one burst.
        if let Some(&entry) = self.history.get(&sig) {
            if entry.confidence >= 2 {
                replay(region * REGION_LINES, offset, entry.footprint, queue);
            }
        }

        self.accum_order.push_back(region);
        while self.accumulating.len() > ACCUM_CAPACITY {
            if let Some(old_region) = self.accum_order.pop_front() {
                if let Some(generation) = self.accumulating.remove(&old_region) {
                    self.commit(generation);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_workloads::MemKind;

    fn access(pc: u64, line: u64) -> L2Access {
        L2Access {
            pc,
            line,
            hit: false,
            cycle: 0,
            instructions: 0,
            kind: MemKind::Load,
        }
    }

    fn drive(b: &mut Bingo, seq: &[(u64, u64)]) -> Vec<u64> {
        let mut q = PrefetchQueue::new();
        let mut all = Vec::new();
        for &(pc, l) in seq {
            b.train(&access(pc, l), &mut q);
            all.extend(q.drain());
        }
        all
    }

    /// Forces commitment of accumulating generations by touching many
    /// fresh regions.
    fn flush(b: &mut Bingo) {
        let mut q = PrefetchQueue::new();
        for r in 10_000..10_000 + ACCUM_CAPACITY as u64 + 2 {
            b.train(&access(0xdead, r * REGION_LINES), &mut q);
            q.drain().count();
        }
    }

    #[test]
    fn replays_learned_footprint_after_two_consistent_generations() {
        let mut b = Bingo::new();
        // Two generations with the same trigger (PC 0x42, offset 0) and the
        // same relative footprint {0, 1, 3, 7}, in different regions.
        drive(&mut b, &[(0x42, 64), (0x42, 65), (0x42, 67), (0x42, 71)]);
        flush(&mut b);
        drive(
            &mut b,
            &[(0x42, 128), (0x42, 129), (0x42, 131), (0x42, 135)],
        );
        flush(&mut b);
        // Third region with the same trigger signature: replay.
        let issued = drive(&mut b, &[(0x42, 320)]); // region 10, offset 0
        let base = 320;
        assert!(issued.contains(&(base + 1)), "{issued:?}");
        assert!(issued.contains(&(base + 3)));
        assert!(issued.contains(&(base + 7)));
        assert!(
            !issued.contains(&base),
            "trigger line itself not prefetched"
        );
    }

    #[test]
    fn one_generation_is_not_confident_enough() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64), (0x42, 65), (0x42, 67)]);
        flush(&mut b);
        let issued = drive(&mut b, &[(0x42, 320)]);
        assert!(issued.is_empty(), "{issued:?}");
    }

    #[test]
    fn inconsistent_generations_reset_confidence() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64), (0x42, 65), (0x42, 67)]); // {0,1,3}
        flush(&mut b);
        drive(
            &mut b,
            &[(0x42, 128 + 20), (0x42, 128 + 25), (0x42, 128 + 30)],
        ); // {20,25,30}
        flush(&mut b);
        let issued = drive(&mut b, &[(0x42, 320 + 20)]);
        assert!(issued.is_empty(), "disagreeing footprints: {issued:?}");
    }

    #[test]
    fn different_trigger_pc_does_not_match() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64), (0x42, 66)]);
        flush(&mut b);
        let issued = drive(&mut b, &[(0x99, 320)]);
        assert!(issued.is_empty());
    }

    #[test]
    fn single_line_footprints_are_not_stored() {
        let mut b = Bingo::new();
        drive(&mut b, &[(0x42, 64)]); // only one line touched
        flush(&mut b);
        let issued = drive(&mut b, &[(0x42, 320)]);
        assert!(issued.is_empty());
    }

    #[test]
    fn accumulation_is_per_region() {
        let mut b = Bingo::new();
        // Interleave two regions twice (for confidence); footprints must
        // not mix across regions.
        for base in [0, 64 * REGION_LINES] {
            drive(
                &mut b,
                &[
                    (7, base),
                    (9, 1000 * REGION_LINES + base),
                    (7, base + 2),
                    (9, 1000 * REGION_LINES + base + 5),
                ],
            );
            flush(&mut b);
        }
        let issued = drive(&mut b, &[(7, 50 * REGION_LINES)]);
        assert!(issued.contains(&(50 * REGION_LINES + 2)));
        assert!(!issued.contains(&(50 * REGION_LINES + 5)));
    }

    mod reference {
        use super::*;
        use proptest::prelude::*;

        /// Reference replay: collect the footprint's other lines and
        /// stable-sort them by distance from the trigger.
        fn replay_sorted(base: u64, offset: u64, footprint: u32) -> Vec<u64> {
            let mut lines: Vec<u64> = (0..REGION_LINES)
                .filter(|&bit| bit != offset && footprint & (1 << bit) != 0)
                .collect();
            lines.sort_by_key(|&bit| bit.abs_diff(offset));
            lines
                .into_iter()
                .take(REPLAY_CAP)
                .map(|bit| base + bit)
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The outward walk queues the same lines in the same order as
            /// the sort, for any footprint density and trigger offset.
            #[test]
            fn outward_walk_matches_the_sort(
                bits in 0u64..u64::MAX,
                density in 0u32..8,
                offset in 0u64..REGION_LINES,
                region in 0u64..1 << 40,
            ) {
                // Sparser footprints AND shifted copies of the bits into
                // them, denser ones OR them in.
                let mut footprint = bits as u32;
                for k in 1..=density % 4 {
                    let other = (bits >> (8 * k)) as u32;
                    footprint = if density < 4 { footprint & other } else { footprint | other };
                }
                let base = region * REGION_LINES;
                let mut q = PrefetchQueue::new();
                replay(base, offset, footprint, &mut q);
                prop_assert_eq!(q.drain().collect::<Vec<_>>(), replay_sorted(base, offset, footprint));
            }
        }

        #[test]
        fn edge_footprints_replay_like_the_sort() {
            for footprint in [0, u32::MAX, 1, 1 << 31, 0x8000_0001, 0x5555_5555] {
                for offset in 0..REGION_LINES {
                    let mut q = PrefetchQueue::new();
                    replay(64, offset, footprint, &mut q);
                    let walked: Vec<u64> = q.drain().collect();
                    assert_eq!(
                        walked,
                        replay_sorted(64, offset, footprint),
                        "{footprint:#x} @ {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn history_capacity_is_bounded() {
        let mut b = Bingo::new();
        // Insert far more signatures than the capacity.
        for i in 0..(HISTORY_CAPACITY as u64 + 500) {
            let region_base = i * 2 * REGION_LINES;
            drive(&mut b, &[(i, region_base), (i, region_base + 3)]);
        }
        flush(&mut b);
        assert!(b.history.len() <= HISTORY_CAPACITY);
    }
}
