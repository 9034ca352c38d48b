//! The one bounded buffer behind every observation ring.
//!
//! [`Ring`] keeps the most recent `capacity` entries; pushing into a full
//! ring evicts the oldest entry and counts it as dropped. Every push is
//! numbered (0-based, never reused). Eviction only ever removes the oldest
//! entry, so the retained entries always carry contiguous numbers ending at
//! `total - 1`, and the number of the oldest one equals the drop count —
//! consumers detect gaps after wraparound without a per-entry stamp.
//!
//! The ring is deliberately unsynchronised: each owner keeps it under the
//! lock it already holds for its own state (the recorder's event ring, the
//! decision trace with its reward attribution, each black-box thread ring
//! with its current-arm slot, the monitor's SSE ring with its condition
//! variable, the monitor's arm table).

use std::collections::VecDeque;

/// The most slots a ring reserves up front; beyond this it grows on demand
/// up to its capacity.
const MAX_RESERVE: usize = 4096;

/// Fixed-capacity, evict-oldest buffer with push numbering and drop
/// accounting.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    total: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries (minimum 1), with
    /// `min(capacity, MAX_RESERVE)` slots reserved up front.
    pub fn new(capacity: usize) -> Self {
        Ring::with_reserve(capacity, capacity.min(MAX_RESERVE))
    }

    /// An empty ring holding at most `capacity` entries (minimum 1), with
    /// `reserve` slots reserved up front.
    pub fn with_reserve(capacity: usize, reserve: usize) -> Self {
        Ring {
            buf: VecDeque::with_capacity(reserve),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `value`, evicting the oldest entry if the ring is full, and
    /// returns its push number.
    pub fn push(&mut self, value: T) -> u64 {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
        self.total += 1;
        self.total - 1
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total entries ever pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Entries evicted to stay within capacity — also the number of the
    /// oldest retained entry.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The entry pushed as number `number`, unless it was evicted.
    pub fn get_mut(&mut self, number: u64) -> Option<&mut T> {
        let index = number.checked_sub(self.dropped())?;
        self.buf.get_mut(usize::try_from(index).ok()?)
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + ExactSizeIterator {
        self.buf.iter()
    }

    /// The retained entries, oldest first, mutably.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut T> + ExactSizeIterator {
        self.buf.iter_mut()
    }

    /// The retained entries with their push numbers, oldest first.
    pub fn numbered(&self) -> impl DoubleEndedIterator<Item = (u64, &T)> + ExactSizeIterator {
        let first = self.dropped();
        self.buf
            .iter()
            .enumerate()
            .map(move |(i, value)| (first + i as u64, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn keeps_the_newest_entries_numbered_in_push_order(cap in 0usize..=8, n in 0u64..=40) {
            let mut ring = Ring::new(cap);
            for i in 0..n {
                prop_assert_eq!(ring.push(i), i);
            }
            let kept = n.min(cap.max(1) as u64);
            prop_assert_eq!(ring.capacity(), cap.max(1));
            prop_assert_eq!(ring.len() as u64, kept);
            prop_assert_eq!(ring.is_empty(), n == 0);
            prop_assert_eq!(ring.dropped() + ring.len() as u64, ring.total());
            prop_assert_eq!(ring.total(), n);
            // The newest `kept` pushes survive, in push order, each under
            // its own (hence contiguous) number.
            let numbered: Vec<(u64, u64)> = ring.numbered().map(|(seq, &v)| (seq, v)).collect();
            let expected: Vec<(u64, u64)> = (n - kept..n).map(|i| (i, i)).collect();
            prop_assert_eq!(numbered, expected);
            prop_assert!(ring.iter().copied().eq(n - kept..n));
            // Each push number reaches its own entry until it is evicted.
            for i in 0..n + 2 {
                let retained = (n - kept..n).contains(&i);
                prop_assert_eq!(ring.get_mut(i).copied(), retained.then_some(i));
            }
        }
    }
}
