//! The recorder's one structured event: a sampled [`Occupancy`] reading.
//!
//! The event ring holds the simulators' occupancy samples, taken at
//! bandit-epoch granularity. A bandit decision's one log is its
//! [`crate::DecisionRecord`], and per-access and per-cycle simulator
//! activity is counted by [`crate::Stat`] counters, never logged as events.

/// A sampled occupancy/utilization reading from a simulator resource (DRAM
/// backlog, MSHR fill, per-thread fetch share). Sampled at bandit epoch
/// granularity; these become counter tracks in the Perfetto export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Resource track name (e.g. `dram_backlog`, `fetch_share`).
    pub track: &'static str,
    /// Resource instance (core or thread index; 0 for shared resources).
    pub id: usize,
    /// The sampled value, in track-specific units.
    pub value: f64,
    /// Cycle of the sample.
    pub cycle: u64,
}
