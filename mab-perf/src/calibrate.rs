//! The host-speed reading that end-to-end times are scaled by.
//!
//! On a shared host the simulators' speed swings with what other tenants
//! run beside them: on a 2-vCPU VM sharing its machine the median of ten
//! runs moved by up to 35% between two sets taken half an hour apart, and a
//! busy spell can last minutes, longer than a run. No statistic over one
//! run's passes removes that. So right before each part of a pass (an arm,
//! or one application's trace recording) the benchmark runs a fixed loop that
//! does what the simulators' inner loops do, probing a set-associative tag
//! array and picking an LRU victim, and scales the part's time by
//! [`REFERENCE_S`] over the loop's time: the part's time at the speed the
//! host has when the loop takes [`REFERENCE_S`]. The loop slows with the
//! simulators, so the scaled time moves far less than the raw one.
//!
//! The loop is the benchmark's own code. A change that claims a gain may
//! not edit the benchmark, so parent and change are scaled by the same
//! loop, and a change to the program moves scaled times as it moves raw
//! ones.

use std::sync::Mutex;
use std::time::Instant;

/// Sets and ways of the loop's tag array: 384 KiB of tags and ages, about
/// the size of the simulators' hottest tables.
const SETS: usize = 2048;
const WAYS: usize = 16;

/// Accesses per reading: about half a millisecond, a few percent of an
/// arm.
const STEPS: u32 = 20_000;

/// About one reading's time on that VM in a quiet spell: scaled
/// times then come out close to the raw times of quiet spells (README.md).
pub const REFERENCE_S: f64 = 0.000_5;

/// The loop's tag array; a tag is stored plus one, so 0 marks an empty
/// way. It is static rather than on the heap, so that `peak_heap_mb`
/// counts only the program's memory.
struct Table {
    tags: [u64; SETS * WAYS],
    ages: [u32; SETS * WAYS],
}

static TABLE: Mutex<Table> = Mutex::new(Table {
    tags: [0; SETS * WAYS],
    ages: [0; SETS * WAYS],
});

/// Runs the loop once and returns its host seconds. Every reading starts
/// from the same empty table; clearing it also brings the table back into
/// the cache the part before may have evicted, so a reading does not
/// depend on the program's memory footprint.
pub fn read() -> f64 {
    let mut table = TABLE.lock().expect("calibration table lock");
    let Table { tags, ages } = &mut *table;
    tags.fill(0);
    ages.fill(0);
    let start = Instant::now();
    std::hint::black_box(probe_loop(tags, ages));
    start.elapsed().as_secs_f64()
}

/// Half the accesses stream through consecutive lines, half land at
/// random in 64 MiB; returns the hits.
fn probe_loop(tags: &mut [u64], ages: &mut [u32]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let (mut hits, mut streamed) = (0u64, 0u64);
    for step in 1..=STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 1 == 0 {
            streamed += 1;
            streamed
        } else {
            (x >> 20) & ((1 << 20) - 1)
        };
        let set = line as usize % SETS;
        let tag = line / SETS as u64 + 1;
        let (set_tags, set_ages) = (
            &mut tags[set * WAYS..(set + 1) * WAYS],
            &mut ages[set * WAYS..(set + 1) * WAYS],
        );
        let way = match set_tags.iter().position(|&t| t == tag) {
            Some(way) => {
                hits += 1;
                way
            }
            None => {
                let victim = (0..WAYS)
                    .min_by_key(|&w| set_ages[w])
                    .expect("a set has ways");
                set_tags[victim] = tag;
                victim
            }
        };
        set_ages[way] = step;
    }
    hits
}

/// One timed part of an untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct Part {
    /// Host seconds of the part itself.
    pub host_s: f64,
    /// Host seconds of the reading taken right before it.
    pub reading_s: f64,
    /// An arm, rather than a trace recording.
    pub arm: bool,
}

impl Part {
    /// The part's time at reference host speed.
    pub fn scaled_s(&self) -> f64 {
        scale(self.host_s, self.reading_s)
    }
}

/// `host_s` at reference host speed, given a reading taken beside it.
pub fn scale(host_s: f64, reading_s: f64) -> f64 {
    host_s * REFERENCE_S / reading_s
}
