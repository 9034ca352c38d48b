//! Set-associative cache with LRU replacement and prefetch bookkeeping.
//!
//! Both structures here sit on the simulator's per-access hot path, so they
//! are laid out for scan speed rather than convenience:
//!
//! - [`Cache`] keeps tags, LRU stamps and status flags in parallel arrays
//!   (structure-of-arrays) so a set probe touches one contiguous run of
//!   tags — one cache line for an 8-way set — instead of striding over
//!   wider per-line structs. Set indexing uses a mask when the set count is
//!   a power of two (the common case; the Fig. 11 alternate LLC with 1536
//!   sets falls back to a modulo).
//! - [`Mshr`] indexes in-flight lines with an open-addressed table
//!   (multiplicative hashing, tombstone deletion) instead of a `HashMap`'s
//!   SipHash, and keeps the earliest completion cycle cached so the
//!   per-access drain is a single compare when nothing has landed.

use crate::config::CacheParams;

/// Lane count for the chunked (SIMD-shaped) way scans. Eight `u64` tags are
/// one 64-byte chunk — exactly the L1/L2 associativity, half the LLC's — so
/// the per-chunk compare/min loops below run over fixed-size arrays the
/// autovectorizer can turn into vector ops.
const WAY_CHUNK: usize = 8;

/// Result of a demand lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present; `first_prefetch_use` is true if this is the first
    /// demand touch of a prefetched line (a *timely* prefetch).
    Hit {
        /// True exactly once per usefully prefetched line.
        first_prefetch_use: bool,
    },
    /// Line absent.
    Miss,
}

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Fills of any kind, including those of lines already present.
    pub fills: u64,
    /// Lines filled on behalf of the prefetcher.
    pub prefetch_fills: u64,
    /// Prefetched lines touched by a demand access (timely prefetches).
    pub prefetch_used: u64,
    /// Prefetched lines evicted without ever being used (wrong prefetches).
    pub prefetch_evicted_unused: u64,
}

impl CacheStats {
    /// Demand accesses observed (hits + misses).
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }
}

/// Per-way status bits, packed so the flag array stays one byte per way.
const FLAG_VALID: u8 = 1 << 0;
const FLAG_PREFETCHED: u8 = 1 << 1;

/// A set-associative, write-allocate cache with true-LRU replacement.
///
/// Addresses are cache-line indices (byte address / 64). The cache tracks a
/// `prefetched` bit per line so the system can classify prefetches as
/// timely (used by a demand access) or wrong (evicted unused), as in the
/// paper's Fig. 9.
///
/// # Example
///
/// ```
/// use mab_memsim::cache::{Cache, LookupResult};
/// use mab_memsim::config::CacheParams;
///
/// let mut cache = Cache::new(CacheParams { capacity_bytes: 4096, ways: 4, latency: 4 });
/// assert_eq!(cache.demand_lookup(7), LookupResult::Miss);
/// cache.fill(7, false);
/// assert!(matches!(cache.demand_lookup(7), LookupResult::Hit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    /// `sets - 1` when the set count is a power of two.
    set_mask: u64,
    pow2_sets: bool,
    ways: usize,
    latency: u32,
    /// Way tags, contiguous per set. Invalid ways carry `u64::MAX` so the
    /// tag scan rarely false-matches, but a match is always confirmed
    /// against the valid flag.
    tags: Vec<u64>,
    /// Per-way [`FLAG_VALID`] / [`FLAG_PREFETCHED`] bits.
    flags: Vec<u8>,
    /// Per-way last-touch stamps (always ≥ 1 for valid ways: the clock is
    /// incremented before any fill or lookup touches a way).
    lru: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its parameters.
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        let ways = params.ways as usize;
        let lines = (sets as usize) * ways;
        Cache {
            sets,
            set_mask: sets.wrapping_sub(1),
            pow2_sets: sets.is_power_of_two(),
            ways,
            latency: params.latency,
            tags: vec![u64::MAX; lines],
            flags: vec![0; lines],
            lru: vec![0; lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Access latency of this level.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        let set = if self.pow2_sets {
            line & self.set_mask
        } else {
            line % self.sets
        };
        (set as usize) * self.ways
    }

    /// Index of the way holding `line`, if present and valid.
    ///
    /// Chunked whole-set tag compare: every [`WAY_CHUNK`] tags are compared
    /// as one branchless masked chunk, and the first set bit of the mask is
    /// the first matching way — the same way an early-exit scan lands on,
    /// because a valid line appears in at most one way and invalid ways
    /// carry the `u64::MAX` sentinel no real line equals.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        let tags = &self.tags[base..base + self.ways];
        let mut chunks = tags.chunks_exact(WAY_CHUNK);
        let mut offset = 0;
        for chunk in &mut chunks {
            let chunk: &[u64; WAY_CHUNK] = chunk.try_into().expect("exact chunk");
            let mut mask = 0u32;
            for (lane, &tag) in chunk.iter().enumerate() {
                mask |= u32::from(tag == line) << lane;
            }
            if mask != 0 {
                let idx = base + offset + mask.trailing_zeros() as usize;
                return Some(idx).filter(|&i| self.flags[i] & FLAG_VALID != 0);
            }
            offset += WAY_CHUNK;
        }
        // Sub-chunk associativities (test-sized caches) finish scalar.
        chunks
            .remainder()
            .iter()
            .position(|&tag| tag == line)
            .map(|way| base + offset + way)
            .filter(|&idx| self.flags[idx] & FLAG_VALID != 0)
    }

    /// Demand lookup: updates LRU and hit/miss statistics, and consumes the
    /// prefetched bit on first use.
    pub fn demand_lookup(&mut self, line: u64) -> LookupResult {
        self.clock += 1;
        if let Some(idx) = self.find(line) {
            self.lru[idx] = self.clock;
            let first_use = self.flags[idx] & FLAG_PREFETCHED != 0;
            if first_use {
                self.flags[idx] &= !FLAG_PREFETCHED;
                self.stats.prefetch_used += 1;
            }
            self.stats.demand_hits += 1;
            return LookupResult::Hit {
                first_prefetch_use: first_use,
            };
        }
        self.stats.demand_misses += 1;
        LookupResult::Miss
    }

    /// Non-mutating presence check (used to filter redundant prefetches).
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Fills `line`, evicting the LRU way if needed. Returns the eviction,
    /// if any. `prefetched` marks prefetcher-initiated fills.
    pub fn fill(&mut self, line: u64, prefetched: bool) -> Option<Evicted> {
        self.fill_inner(line, prefetched).0
    }

    /// Fill plus the index of the way that now holds `line`.
    fn fill_inner(&mut self, line: u64, prefetched: bool) -> (Option<Evicted>, usize) {
        // The chunked tag compare relies on `u64::MAX` marking exactly the
        // invalid ways; real lines (addr/64, plus a core id in bits 40+)
        // can never reach the sentinel.
        debug_assert_ne!(
            line,
            u64::MAX,
            "line index collides with the invalid-way sentinel"
        );
        self.clock += 1;
        let clock = self.clock;
        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let victim = match self.fill_scan(line) {
            Ok(idx) => {
                // Already present (e.g. demand raced a prefetch): refresh
                // only.
                self.lru[idx] = clock;
                return (None, idx);
            }
            Err(victim) => victim,
        };
        let evicted = if self.flags[victim] & FLAG_VALID != 0 {
            let unused_prefetch = self.flags[victim] & FLAG_PREFETCHED != 0;
            if unused_prefetch {
                self.stats.prefetch_evicted_unused += 1;
            }
            Some(Evicted {
                line: self.tags[victim],
                unused_prefetch,
            })
        } else {
            None
        };
        self.tags[victim] = line;
        self.flags[victim] = FLAG_VALID | if prefetched { FLAG_PREFETCHED } else { 0 };
        self.lru[victim] = clock;
        (evicted, victim)
    }

    /// Fill scan: finds a present line (`Ok(idx)`) or the LRU victim
    /// (`Err(idx)`). The present-check is the masked whole-set tag compare,
    /// then the victim falls out of a branchless min-reduction over per-way
    /// keys `lru * valid` — 0 for invalid ways, the stamp (≥ 1) for valid
    /// ones, so free ways go first. Chunks are visited in way order and
    /// only a strictly smaller chunk minimum displaces the running victim,
    /// so the first-minimum way wins.
    #[inline]
    fn fill_scan(&self, line: u64) -> Result<usize, usize> {
        if let Some(idx) = self.find(line) {
            debug_assert!(self.flags[idx] & FLAG_VALID != 0);
            return Ok(idx);
        }
        let base = self.set_base(line);
        let flags = &self.flags[base..base + self.ways];
        let lru = &self.lru[base..base + self.ways];
        let mut victim = base;
        let mut victim_key = u64::MAX;
        let mut offset = 0;
        let mut flag_chunks = flags.chunks_exact(WAY_CHUNK);
        let mut lru_chunks = lru.chunks_exact(WAY_CHUNK);
        for (flag_chunk, lru_chunk) in (&mut flag_chunks).zip(&mut lru_chunks) {
            let flag_chunk: &[u8; WAY_CHUNK] = flag_chunk.try_into().expect("exact chunk");
            let lru_chunk: &[u64; WAY_CHUNK] = lru_chunk.try_into().expect("exact chunk");
            let mut keys = [0u64; WAY_CHUNK];
            for lane in 0..WAY_CHUNK {
                keys[lane] = lru_chunk[lane] * u64::from(flag_chunk[lane] & FLAG_VALID);
            }
            let mut chunk_min = u64::MAX;
            for &key in &keys {
                chunk_min = chunk_min.min(key);
            }
            if chunk_min < victim_key {
                victim_key = chunk_min;
                let lane = keys
                    .iter()
                    .position(|&key| key == chunk_min)
                    .expect("chunk minimum is in the chunk");
                victim = base + offset + lane;
            }
            offset += WAY_CHUNK;
        }
        for (lane, (&way_flags, &stamp)) in flag_chunks
            .remainder()
            .iter()
            .zip(lru_chunks.remainder())
            .enumerate()
        {
            let key = stamp * u64::from(way_flags & FLAG_VALID);
            if key < victim_key {
                victim_key = key;
                victim = base + offset + lane;
            }
        }
        Err(victim)
    }

    /// Fills `line` for a **late** prefetch: the demand access that is
    /// currently waiting on the in-flight prefetch consumes the line the
    /// moment it lands, so this counts both the prefetch fill and its use
    /// and leaves the line's prefetched bit clear (a later eviction must
    /// not classify it as a wrong prefetch).
    pub fn fill_late_prefetch(&mut self, line: u64) -> Option<Evicted> {
        let (evicted, idx) = self.fill_inner(line, true);
        if self.flags[idx] & FLAG_PREFETCHED != 0 {
            self.flags[idx] &= !FLAG_PREFETCHED;
            self.stats.prefetch_used += 1;
        }
        evicted
    }
}

/// A line evicted by [`Cache::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line index.
    pub line: u64,
    /// True if the line was prefetched and never used (a *wrong* prefetch).
    pub unused_prefetch: bool,
}

/// An in-flight prefetch fill tracked by the [`Mshr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inflight {
    /// Cycle at which the fill completes.
    pub ready: u64,
    /// Whether the fill also targets the L1 (L1-prefetcher initiated).
    pub fill_l1: bool,
}

/// Slot states for the open-addressed MSHR table, kept as raw bytes in a
/// structure-of-arrays layout so the chunked ready-sweep can compare a
/// whole chunk of states at once.
const STATE_EMPTY: u8 = 0;
const STATE_LIVE: u8 = 1;
/// Tombstone: keeps probe chains intact after a removal; reclaimed on the
/// next rehash.
const STATE_DEAD: u8 = 2;

/// Miss-status holding registers for in-flight *prefetch* fills.
///
/// Demand misses in this model fill immediately (their latency is charged to
/// the load), but prefetches stay "in flight" until their completion cycle so
/// that a demand access arriving earlier can be classified as covered by a
/// **late** prefetch (paper Fig. 9).
///
/// Lines are indexed by an open-addressed table (multiplicative hashing,
/// linear probing, tombstone deletion) rather than a `HashMap`: the MSHR is
/// probed on every L2 access and `SipHash` dominated the lookup cost. The
/// table is stored structure-of-arrays (states, lines, readys, L1 bits in
/// parallel vectors) so the drain can gather completion masks over whole
/// chunks.
///
/// A drain sweeps the whole table in [`MSHR_CHUNK`]-slot chunks, gathers
/// the completed entries and the earliest still-pending stamp in one pass,
/// and sorts the completions by `(ready, line)`. The table is the only
/// source of truth, so a removed or re-posted line can never drain from a
/// stale entry. `earliest` caches a lower bound on the next completion so
/// the common "nothing landed yet" drain is a single compare.
#[derive(Debug, Clone)]
pub struct Mshr {
    /// [`STATE_EMPTY`] / [`STATE_LIVE`] / [`STATE_DEAD`] per slot.
    states: Vec<u8>,
    /// Line index per live slot.
    lines: Vec<u64>,
    /// Completion cycle per live slot.
    readys: Vec<u64>,
    /// 1 when the fill also targets the L1, else 0.
    fill_l1s: Vec<u8>,
    /// `states.len() - 1`; the table size is a power of two.
    mask: usize,
    /// Number of live entries.
    live: usize,
    /// Live entries plus tombstones (bounds probe-chain length; reset by
    /// rehashing).
    used: usize,
    /// Lower bound on the earliest in-flight completion, `u64::MAX` when
    /// none are in flight. A removal can leave it low, which only costs one
    /// empty sweep.
    earliest: u64,
    /// Reused `(ready, line, fill_l1)` buffer for the drain sort.
    sweep: Vec<(u64, u64, bool)>,
}

impl Default for Mshr {
    fn default() -> Self {
        Mshr::new()
    }
}

/// Lane count for the MSHR drain sweep; the table size is a power of two
/// ≥ 64, so every sweep divides into exact chunks.
const MSHR_CHUNK: usize = 8;

impl Mshr {
    const INITIAL_SLOTS: usize = 64;

    /// Creates an empty MSHR file.
    pub fn new() -> Self {
        Mshr {
            states: vec![STATE_EMPTY; Self::INITIAL_SLOTS],
            lines: vec![0; Self::INITIAL_SLOTS],
            readys: vec![0; Self::INITIAL_SLOTS],
            fill_l1s: vec![0; Self::INITIAL_SLOTS],
            mask: Self::INITIAL_SLOTS - 1,
            live: 0,
            used: 0,
            earliest: u64::MAX,
            sweep: Vec::new(),
        }
    }

    /// Number of in-flight prefetches.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn bucket(&self, line: u64) -> usize {
        // Multiplicative (Fibonacci) hashing: the golden-ratio multiply
        // mixes low line bits into the high bits we index with.
        ((line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    /// Probes for `line`: the index of its live slot if present, and the
    /// slot where an insert should land (first tombstone on the chain, else
    /// the terminating empty slot).
    #[inline]
    fn probe(&self, line: u64) -> (Option<usize>, usize) {
        let mut idx = self.bucket(line);
        let mut insert_at = None;
        loop {
            match self.states[idx] {
                STATE_EMPTY => return (None, insert_at.unwrap_or(idx)),
                STATE_LIVE if self.lines[idx] == line => return (Some(idx), idx),
                STATE_DEAD if insert_at.is_none() => insert_at = Some(idx),
                _ => {}
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn rehash(&mut self, new_len: usize) {
        let old_states = std::mem::replace(&mut self.states, vec![STATE_EMPTY; new_len]);
        let old_lines = std::mem::replace(&mut self.lines, vec![0; new_len]);
        let old_readys = std::mem::replace(&mut self.readys, vec![0; new_len]);
        let old_fill_l1s = std::mem::replace(&mut self.fill_l1s, vec![0; new_len]);
        self.mask = new_len - 1;
        self.used = self.live;
        for (slot, &state) in old_states.iter().enumerate() {
            if state == STATE_LIVE {
                let (_, idx) = self.probe(old_lines[slot]);
                self.states[idx] = STATE_LIVE;
                self.lines[idx] = old_lines[slot];
                self.readys[idx] = old_readys[slot];
                self.fill_l1s[idx] = old_fill_l1s[slot];
            }
        }
    }

    /// Looks up an in-flight prefetch for `line`.
    pub fn get(&self, line: u64) -> Option<Inflight> {
        self.probe(line).0.map(|idx| Inflight {
            ready: self.readys[idx],
            fill_l1: self.fill_l1s[idx] != 0,
        })
    }

    /// Registers a prefetch for `line` completing at `ready`; `fill_l1`
    /// additionally fills the L1 on completion (L1-prefetcher requests).
    /// Returns false (and does nothing) if the line is already in flight.
    pub fn insert(&mut self, line: u64, ready: u64, fill_l1: bool) -> bool {
        // Keep the load factor (live + tombstones) under 3/4 so probe
        // chains stay short. Grow only when the *live* count needs the
        // room; when tombstones from drained completions drive the load,
        // rehash in place to reclaim them — otherwise steady
        // insert/complete churn doubles the table forever, and the drain's
        // whole-table sweep pays for every doubling.
        if (self.used + 1) * 4 > self.states.len() * 3 {
            let new_len = if (self.live + 1) * 4 > self.states.len() * 3 {
                self.states.len() * 2
            } else {
                self.states.len()
            };
            self.rehash(new_len);
        }
        let (found, insert_at) = self.probe(line);
        if found.is_some() {
            return false;
        }
        if self.states[insert_at] == STATE_EMPTY {
            self.used += 1;
        }
        self.states[insert_at] = STATE_LIVE;
        self.lines[insert_at] = line;
        self.readys[insert_at] = ready;
        self.fill_l1s[insert_at] = u8::from(fill_l1);
        self.live += 1;
        self.earliest = self.earliest.min(ready);
        true
    }

    /// Removes `line` (e.g. a demand miss arrived and took over the fill).
    pub fn remove(&mut self, line: u64) {
        if let (Some(idx), _) = self.probe(line) {
            self.states[idx] = STATE_DEAD;
            self.live -= 1;
        }
        // `earliest` may now read low, which only costs one empty sweep.
    }

    /// Pops every prefetch that has completed by `now`, returning
    /// `(line, fill_l1)` pairs, oldest first.
    pub fn drain_ready(&mut self, now: u64) -> Vec<(u64, bool)> {
        let mut done = Vec::new();
        self.drain_ready_into(now, &mut done);
        done
    }

    /// Allocation-free [`Mshr::drain_ready`]: clears `done` and fills it
    /// with the completed `(line, fill_l1)` pairs, oldest first. When no
    /// fill has completed — the overwhelmingly common per-access case —
    /// this is a single compare against the cached earliest completion.
    ///
    /// Otherwise one sweep over the whole table gathers, per
    /// [`MSHR_CHUNK`]-slot chunk, a branchless completion mask and the
    /// minimum still-pending stamp. Completions are then sorted by
    /// `(ready, line)` — live lines are unique, so the order is total —
    /// and `earliest` comes out exact.
    pub fn drain_ready_into(&mut self, now: u64, done: &mut Vec<(u64, bool)>) {
        done.clear();
        if now < self.earliest {
            return;
        }
        let mut sweep = std::mem::take(&mut self.sweep);
        sweep.clear();
        let mut next_earliest = u64::MAX;
        debug_assert_eq!(self.states.len() % MSHR_CHUNK, 0);
        for base in (0..self.states.len()).step_by(MSHR_CHUNK) {
            let state_chunk: [u8; MSHR_CHUNK] = self.states[base..base + MSHR_CHUNK]
                .try_into()
                .expect("exact chunk");
            let ready_chunk: [u64; MSHR_CHUNK] = self.readys[base..base + MSHR_CHUNK]
                .try_into()
                .expect("exact chunk");
            let mut done_mask = 0u32;
            let mut pending_min = u64::MAX;
            for lane in 0..MSHR_CHUNK {
                let live = state_chunk[lane] == STATE_LIVE;
                let completed = live && ready_chunk[lane] <= now;
                done_mask |= u32::from(completed) << lane;
                let pending_key = if live && ready_chunk[lane] > now {
                    ready_chunk[lane]
                } else {
                    u64::MAX
                };
                pending_min = pending_min.min(pending_key);
            }
            next_earliest = next_earliest.min(pending_min);
            while done_mask != 0 {
                let idx = base + done_mask.trailing_zeros() as usize;
                done_mask &= done_mask - 1;
                sweep.push((self.readys[idx], self.lines[idx], self.fill_l1s[idx] != 0));
                self.states[idx] = STATE_DEAD;
                self.live -= 1;
            }
        }
        sweep.sort_unstable();
        done.extend(sweep.iter().map(|&(_, line, fill_l1)| (line, fill_l1)));
        sweep.clear();
        self.sweep = sweep;
        self.earliest = next_earliest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheParams {
            capacity_bytes: 4 * 64,
            ways: 2,
            latency: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.demand_lookup(10), LookupResult::Miss);
        c.fill(10, false);
        assert_eq!(
            c.demand_lookup(10),
            LookupResult::Hit {
                first_prefetch_use: false
            }
        );
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Lines 0, 2, 4 map to set 0 (2 sets).
        c.fill(0, false);
        c.fill(2, false);
        c.demand_lookup(0); // refresh line 0
        let evicted = c.fill(4, false); // must evict line 2
        assert_eq!(
            evicted,
            Some(Evicted {
                line: 2,
                unused_prefetch: false
            })
        );
        assert!(c.contains(0));
        assert!(c.contains(4));
    }

    #[test]
    fn prefetch_bit_counts_first_use_only() {
        let mut c = small_cache();
        c.fill(6, true);
        assert_eq!(
            c.demand_lookup(6),
            LookupResult::Hit {
                first_prefetch_use: true
            }
        );
        assert_eq!(
            c.demand_lookup(6),
            LookupResult::Hit {
                first_prefetch_use: false
            }
        );
        assert_eq!(c.stats().prefetch_used, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn late_prefetch_fill_counts_fill_and_use() {
        let mut c = small_cache();
        c.fill_late_prefetch(6);
        assert_eq!(c.stats().fills, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert_eq!(c.stats().prefetch_used, 1);
        // The bit was consumed: the next demand hit is an ordinary hit and
        // an eviction would not count as a wrong prefetch.
        assert_eq!(
            c.demand_lookup(6),
            LookupResult::Hit {
                first_prefetch_use: false
            }
        );
        assert_eq!(c.stats().prefetch_used, 1);
    }

    #[test]
    fn unused_prefetch_eviction_counts_as_wrong() {
        let mut c = small_cache();
        c.fill(0, true);
        c.fill(2, false);
        c.fill(4, false); // evicts line 0 (prefetched, unused)
        assert_eq!(c.stats().prefetch_evicted_unused, 1);
    }

    #[test]
    fn refilling_present_line_does_not_duplicate() {
        let mut c = small_cache();
        c.fill(8, false);
        assert_eq!(c.fill(8, false), None);
        assert!(c.contains(8));
        // Both calls count as fills.
        assert_eq!(c.stats().fills, 2);
    }

    #[test]
    fn invalid_way_is_preferred_over_eviction() {
        let mut c = small_cache();
        c.fill(0, false);
        // The second fill into set 0 must take the free way, not evict.
        assert_eq!(c.fill(2, false), None);
        assert!(c.contains(0));
        assert!(c.contains(2));
    }

    #[test]
    fn non_pow2_set_count_maps_lines_consistently() {
        // 3 sets x 2 ways exercises the modulo fallback (cf. the Fig. 11
        // alternate LLC with 1536 sets).
        let mut c = Cache::new(CacheParams {
            capacity_bytes: 6 * 64,
            ways: 2,
            latency: 4,
        });
        for line in 0..12u64 {
            c.fill(line, false);
        }
        // The last two fills per set survive: lines 6..12 (two per set).
        for line in 6..12u64 {
            assert!(c.contains(line), "line {line}");
        }
        for line in 0..6u64 {
            assert!(!c.contains(line), "line {line}");
        }
    }

    #[test]
    fn mshr_tracks_and_drains_in_order() {
        let mut m = Mshr::new();
        assert!(m.insert(1, 100, false));
        assert!(m.insert(2, 50, true));
        assert!(!m.insert(1, 70, false), "duplicate rejected");
        assert_eq!(m.len(), 2);
        assert_eq!(m.drain_ready(49), Vec::<(u64, bool)>::new());
        assert_eq!(m.drain_ready(100), vec![(2, true), (1, false)]);
        assert!(m.is_empty());
    }

    #[test]
    fn mshr_remove_cancels_fill() {
        let mut m = Mshr::new();
        m.insert(5, 10, false);
        m.remove(5);
        assert_eq!(m.drain_ready(1000), Vec::<(u64, bool)>::new());
    }

    #[test]
    fn mshr_get_reports_ready_cycle() {
        let mut m = Mshr::new();
        m.insert(3, 42, true);
        assert_eq!(
            m.get(3),
            Some(Inflight {
                ready: 42,
                fill_l1: true
            })
        );
        assert_eq!(m.get(4), None);
    }

    #[test]
    fn mshr_repost_after_remove_uses_new_ready() {
        let mut m = Mshr::new();
        m.insert(9, 100, false);
        m.remove(9);
        assert!(m.insert(9, 200, true), "slot is reusable after removal");
        // The removed fill (ready 100) must not drain the re-posted one
        // early.
        assert_eq!(m.drain_ready(150), Vec::<(u64, bool)>::new());
        assert_eq!(m.get(9).map(|i| i.ready), Some(200));
        assert_eq!(m.drain_ready(250), vec![(9, true)]);
    }

    #[test]
    fn mshr_survives_growth_beyond_initial_capacity() {
        let mut m = Mshr::new();
        for line in 0..500u64 {
            assert!(m.insert(line, 1000 + line, line % 2 == 0));
        }
        assert_eq!(m.len(), 500);
        for line in 0..500u64 {
            assert_eq!(
                m.get(line),
                Some(Inflight {
                    ready: 1000 + line,
                    fill_l1: line % 2 == 0
                })
            );
        }
        let drained = m.drain_ready(2000);
        assert_eq!(drained.len(), 500);
        // Oldest first.
        assert_eq!(drained[0], (0, true));
        assert_eq!(drained[499], (499, false));
        assert!(m.is_empty());
    }

    #[test]
    fn mshr_drain_into_reuses_the_buffer() {
        let mut m = Mshr::new();
        let mut scratch = vec![(7u64, true)]; // stale content must be cleared
        m.insert(1, 10, false);
        m.drain_ready_into(5, &mut scratch);
        assert!(scratch.is_empty());
        m.drain_ready_into(10, &mut scratch);
        assert_eq!(scratch, vec![(1, false)]);
    }

    mod differential {
        //! Chunked kernels vs scalar references: the whole-set tag compare
        //! / LRU victim scan and the MSHR drain sweep must be
        //! observationally identical to small scalar models of the same
        //! structures under arbitrary operation sequences.

        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};

        /// One valid way of the reference cache.
        #[derive(Debug, Clone, Copy)]
        struct RefWay {
            line: u64,
            prefetched: bool,
            stamp: u64,
        }

        /// Scalar reference cache: each set lists its valid ways in way
        /// order (nothing invalidates a way, so the valid ways are always
        /// a prefix), probed by an early-exit tag scan and refilled through
        /// a one-pass LRU victim scan.
        struct ScalarCache {
            sets: Vec<Vec<RefWay>>,
            ways: usize,
            clock: u64,
            stats: CacheStats,
        }

        impl ScalarCache {
            fn new(params: CacheParams) -> Self {
                ScalarCache {
                    sets: vec![Vec::new(); params.sets() as usize],
                    ways: params.ways as usize,
                    clock: 0,
                    stats: CacheStats::default(),
                }
            }

            fn set_of(&self, line: u64) -> usize {
                (line % self.sets.len() as u64) as usize
            }

            /// Scalar tag scan: `(set, way)` of the first way holding `line`.
            fn find_scalar(&self, line: u64) -> Option<(usize, usize)> {
                let set = self.set_of(line);
                self.sets[set]
                    .iter()
                    .position(|way| way.line == line)
                    .map(|way| (set, way))
            }

            /// Scalar victim scan: the next free way while the set fills,
            /// else the first least recently touched way.
            fn fill_scan_scalar(&self, set: usize) -> usize {
                let ways = &self.sets[set];
                if ways.len() < self.ways {
                    return ways.len();
                }
                let mut victim = 0;
                for (idx, way) in ways.iter().enumerate() {
                    if way.stamp < ways[victim].stamp {
                        victim = idx;
                    }
                }
                victim
            }

            fn demand_lookup(&mut self, line: u64) -> LookupResult {
                self.clock += 1;
                let Some((set, idx)) = self.find_scalar(line) else {
                    self.stats.demand_misses += 1;
                    return LookupResult::Miss;
                };
                let way = &mut self.sets[set][idx];
                way.stamp = self.clock;
                let first_prefetch_use = std::mem::take(&mut way.prefetched);
                self.stats.prefetch_used += u64::from(first_prefetch_use);
                self.stats.demand_hits += 1;
                LookupResult::Hit { first_prefetch_use }
            }

            fn contains(&self, line: u64) -> bool {
                self.find_scalar(line).is_some()
            }

            fn fill(&mut self, line: u64, prefetched: bool) -> Option<Evicted> {
                self.clock += 1;
                self.stats.fills += 1;
                self.stats.prefetch_fills += u64::from(prefetched);
                if let Some((set, idx)) = self.find_scalar(line) {
                    self.sets[set][idx].stamp = self.clock;
                    return None;
                }
                let set = self.set_of(line);
                let victim = self.fill_scan_scalar(set);
                let fresh = RefWay {
                    line,
                    prefetched,
                    stamp: self.clock,
                };
                let ways = &mut self.sets[set];
                if victim == ways.len() {
                    ways.push(fresh);
                    return None;
                }
                let old = std::mem::replace(&mut ways[victim], fresh);
                self.stats.prefetch_evicted_unused += u64::from(old.prefetched);
                Some(Evicted {
                    line: old.line,
                    unused_prefetch: old.prefetched,
                })
            }

            fn fill_late_prefetch(&mut self, line: u64) -> Option<Evicted> {
                let evicted = self.fill(line, true);
                let (set, idx) = self.find_scalar(line).expect("line was just filled");
                if std::mem::take(&mut self.sets[set][idx].prefetched) {
                    self.stats.prefetch_used += 1;
                }
                evicted
            }
        }

        /// Scalar reference MSHR: in-flight fills by line, plus the same
        /// fills ordered by `(ready, line)` and drained front to back.
        #[derive(Default)]
        struct ScalarMshr {
            inflight: BTreeMap<u64, Inflight>,
            order: BTreeSet<(u64, u64)>,
        }

        impl ScalarMshr {
            fn insert(&mut self, line: u64, ready: u64, fill_l1: bool) -> bool {
                if self.inflight.contains_key(&line) {
                    return false;
                }
                self.inflight.insert(line, Inflight { ready, fill_l1 });
                self.order.insert((ready, line));
                true
            }

            fn remove(&mut self, line: u64) {
                if let Some(fill) = self.inflight.remove(&line) {
                    self.order.remove(&(fill.ready, line));
                }
            }

            fn get(&self, line: u64) -> Option<Inflight> {
                self.inflight.get(&line).copied()
            }

            fn drain_scalar(&mut self, now: u64) -> Vec<(u64, bool)> {
                let mut done = Vec::new();
                while let Some(&(ready, line)) = self.order.first() {
                    if ready > now {
                        break;
                    }
                    self.order.pop_first();
                    let fill = self.inflight.remove(&line);
                    done.push((line, fill.expect("ordered fill is in flight").fill_l1));
                }
                done
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every cache observable — lookup results, evictions,
            /// residency, stats — matches the scalar reference for
            /// arbitrary geometries (ways crossing the chunk width) and
            /// access mixes dense enough to force constant set conflict.
            #[test]
            fn chunked_cache_matches_scalar_reference(
                case in 0u64..u64::MAX,
                ways in 1u32..=20,
                sets_pow in 0u32..3,
                ops in 1usize..400,
            ) {
                let params = CacheParams {
                    capacity_bytes: (64 * u64::from(ways)) << sets_pow,
                    ways,
                    latency: 4,
                };
                let mut scalar = ScalarCache::new(params);
                let mut chunked = Cache::new(params);
                let mut rng = StdRng::seed_from_u64(case);
                let lines = u64::from(ways * 4) << sets_pow;
                for _ in 0..ops {
                    let line = rng.gen_range(0..lines);
                    match rng.gen_range(0..4) {
                        0 => prop_assert_eq!(
                            scalar.demand_lookup(line),
                            chunked.demand_lookup(line)
                        ),
                        1 => {
                            let prefetched = rng.gen();
                            prop_assert_eq!(
                                scalar.fill(line, prefetched),
                                chunked.fill(line, prefetched)
                            );
                        }
                        2 => prop_assert_eq!(
                            scalar.fill_late_prefetch(line),
                            chunked.fill_late_prefetch(line)
                        ),
                        _ => prop_assert_eq!(scalar.contains(line), chunked.contains(line)),
                    }
                }
                prop_assert_eq!(scalar.stats, chunked.stats());
            }

            /// Every MSHR observable — insert admission, lookups, drain
            /// contents *and order*, size — matches the scalar reference
            /// under insert/remove/drain churn that drives growth and
            /// tombstone reclamation.
            #[test]
            fn chunked_mshr_matches_scalar_reference(
                case in 0u64..u64::MAX,
                ops in 1usize..600,
            ) {
                let mut scalar = ScalarMshr::default();
                let mut chunked = Mshr::new();
                let mut rng = StdRng::seed_from_u64(case);
                let mut now = 0u64;
                for _ in 0..ops {
                    let line = rng.gen_range(0..96);
                    match rng.gen_range(0..5) {
                        0 | 1 => {
                            let ready = now + rng.gen_range(0..50u64);
                            let fill_l1 = rng.gen();
                            prop_assert_eq!(
                                scalar.insert(line, ready, fill_l1),
                                chunked.insert(line, ready, fill_l1)
                            );
                        }
                        2 => {
                            scalar.remove(line);
                            chunked.remove(line);
                        }
                        3 => prop_assert_eq!(scalar.get(line), chunked.get(line)),
                        _ => {
                            now += rng.gen_range(0..25u64);
                            prop_assert_eq!(scalar.drain_scalar(now), chunked.drain_ready(now));
                        }
                    }
                    prop_assert_eq!(scalar.inflight.len(), chunked.len());
                }
                now += 1000;
                prop_assert_eq!(scalar.drain_scalar(now), chunked.drain_ready(now));
                prop_assert!(scalar.inflight.is_empty() && chunked.is_empty());
            }
        }
    }
}
