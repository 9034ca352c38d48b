//! Structured telemetry events.
//!
//! The event ring holds the simulators' sampled `Occupancy` readings, taken
//! at bandit-epoch granularity. A bandit decision's one log is its
//! [`crate::DecisionRecord`], and per-access and per-cycle simulator
//! activity is counted by [`crate::Stat`] counters, never logged as events.

/// A single structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A sampled occupancy/utilization reading from a simulator resource
    /// (DRAM backlog, MSHR fill, per-thread fetch share). Sampled at bandit
    /// epoch granularity; these become counter tracks in the Perfetto
    /// export.
    Occupancy {
        /// Resource track name (e.g. `dram_backlog`, `fetch_share`).
        track: &'static str,
        /// Resource instance (core or thread index; 0 for shared resources).
        id: usize,
        /// The sampled value, in track-specific units.
        value: f64,
        /// Cycle of the sample.
        cycle: u64,
    },
}

impl Event {
    /// Stable snake_case discriminant name used by the exporters.
    pub const fn kind(&self) -> &'static str {
        match self {
            Event::Occupancy { .. } => "occupancy",
        }
    }
}
