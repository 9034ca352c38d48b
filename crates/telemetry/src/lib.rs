//! `mab-telemetry`: zero-cost-when-off observability for the Micro-Armed
//! Bandit reproduction.
//!
//! # Architecture
//!
//! - [`Counters`](counters::Counters) — one array of lock-free counters,
//!   one [`Stat`] per probe point across the agent, both simulators and
//!   the prefetch subsystem.
//! - [`Histogram`](hist::Histogram) — lock-free log2-bucket histograms for
//!   reward, epoch-IPC and latency distributions.
//! - [`Ring`] — the one fixed-capacity, evict-oldest buffer with push
//!   numbering and drop accounting. The recorder's [`Occupancy`] ring, the
//!   decision [`TraceRing`] and each black-box thread ring are built on it
//!   (as are `mab-monitor`'s SSE ring and arm table); each owner keeps it
//!   under its own lock.
//! - [`json`] — the workspace's one JSON codec (parser, string escaper,
//!   float writer), and [`crc32`] — its one CRC32. They live in this, the
//!   lowest crate, so every writer and reader of an artifact (exporters,
//!   black box, ledger, trace container, daemons, inspector) shares them.
//! - [`export`] — the hand-rolled JSON-lines exporter.
//! - [`summary`] — stderr progress lines, the sweep progress display and
//!   the end-of-run counter summary used by experiment binaries.
//! - [`live`] — the shared ETA/rate arithmetic and formatting behind the
//!   stderr progress line, the `mab-monitor` live endpoints and
//!   `mab-inspect watch`.
//! - [`span`] / [`profile`] — hierarchical span profiler: thread-local span
//!   stacks, the one stage clock that profiles the simulators' hot loops,
//!   run-scoped deterministic merging, and flamegraph-compatible
//!   collapsed-stack export.
//! - [`blackbox`] — the always-on (feature-independent) flight recorder:
//!   per-thread rings of recent decisions/epochs/arm events plus a
//!   panic-hook/fatal-signal crash dump to `.mabcrash` reports.
//! - [`signal`] — the workspace's one `signal(2)` shim and signal-name
//!   table, shared by the black box's fatal handlers, `mab-serve`'s
//!   shutdown drain and `mab-inspect postmortem`.
//!
//! # Gating
//!
//! Instrumented crates invoke the [`count!`], [`record!`], [`record_raw!`]
//! and [`emit!`] macros. Each expands to
//! `if mab_telemetry::STATIC_ENABLED { ... }`; [`STATIC_ENABLED`] is a
//! `const` that is `false` unless the `on` cargo feature is enabled, so with
//! the feature off the arguments are type-checked but the branch folds away
//! — zero runtime cost. With the feature on, the macros are additionally
//! gated at runtime on a recorder having been [`install`]ed.
//!
//! Each thing is recorded once: a bandit decision as its
//! [`DecisionRecord`], a simulator's statistics as [`Stat`] counters added
//! once per run, and the sampled occupancy readings as [`Occupancy`]
//! events.

// `unsafe` is confined to the `signal(2)` shim, which allows it locally.
#![deny(unsafe_code)]

pub mod blackbox;
pub mod counters;
mod crc;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod live;
pub mod perfetto;
pub mod profile;
pub mod ring;
pub mod signal;
pub mod span;
pub mod summary;
pub mod trace;

pub use counters::{Counters, Stat};
pub use crc::crc32;
pub use event::Occupancy;
pub use hist::{Hist, Histogram};
pub use profile::ProfileReport;
pub use ring::Ring;
pub use span::{Category, SpanGuard, SpanTotals};
pub use trace::{ArmProbe, DecisionRecord, TraceRing};

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Compile-time master switch: `true` only when the `on` feature is enabled.
/// The instrumentation macros test this constant, so with the feature off
/// they compile to nothing.
pub const STATIC_ENABLED: bool = cfg!(feature = "on");

/// Events the recorder's ring retains; the oldest beyond this are evicted
/// and counted.
pub const EVENT_CAPACITY: usize = 65_536;

/// Decision records the trace ring retains; the oldest beyond this are
/// evicted and counted.
pub const TRACE_CAPACITY: usize = 65_536;

/// The telemetry registry: counters, histograms and the event ring.
pub struct Recorder {
    counters: Counters,
    hists: [Histogram; Hist::COUNT],
    ring: Mutex<Ring<Occupancy>>,
    trace: TraceRing,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Recorder {
            counters: Counters::new(),
            hists: std::array::from_fn(|_| Histogram::new()),
            ring: Mutex::new(Ring::new(EVENT_CAPACITY)),
            trace: TraceRing::new(TRACE_CAPACITY),
        }
    }

    /// The counter registry.
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The histogram for `h`.
    #[inline]
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h as usize]
    }

    /// The event ring, locked. Hold the guard only briefly: every
    /// [`emit!`] waits on it.
    #[inline]
    pub fn ring(&self) -> MutexGuard<'_, Ring<Occupancy>> {
        self.ring
            .lock()
            .expect("event ring lock poisoned by a panicking thread")
    }

    /// The decision-provenance trace ring.
    #[inline]
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Pushes an event into the ring.
    #[inline]
    pub fn emit(&self, event: Occupancy) {
        self.ring().push(event);
    }

    /// Converts a stored histogram value into display units (micro-unit
    /// histograms are scaled back; cycle histograms pass through).
    pub fn hist_display(&self, h: Hist, stored: f64) -> f64 {
        match h {
            Hist::Reward | Hist::EpochIpc => stored / 1e6,
            Hist::MissLatency => stored,
        }
    }

    /// Writes the full recorder state as JSON lines.
    pub fn export_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        export::write_jsonl(self, w)
    }

    /// Exports the full recorder state to `path` as JSON lines.
    pub fn export_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.export_jsonl(&mut file)
    }

    /// Exports the decision trace to `path`, choosing the format from the
    /// extension (`.json` → Chrome trace-event JSON for Perfetto, anything
    /// else → decision JSON lines).
    pub fn export_trace_to_path(&self, path: &Path) -> io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => perfetto::write_trace_json(self, &mut file),
            _ => trace::write_trace_jsonl(&self.trace, &mut file),
        }
    }
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Installs the global recorder (idempotent) and returns it.
pub fn install() -> &'static Recorder {
    let rec = RECORDER.get_or_init(Recorder::new);
    ACTIVE.store(true, Ordering::SeqCst);
    rec
}

/// Toggles the installed recorder's active flag: with `false`, every probe
/// behaves as if no recorder were installed until re-enabled. A no-op before
/// [`install`]. Intended for the overhead benchmark (interleaved on/off
/// sampling) and tests; not a synchronization point for readers.
pub fn set_recording(active: bool) {
    ACTIVE.store(active && RECORDER.get().is_some(), Ordering::SeqCst);
}

/// The global recorder, if one was installed.
#[inline]
pub fn recorder() -> Option<&'static Recorder> {
    if ACTIVE.load(Ordering::Relaxed) {
        RECORDER.get()
    } else {
        None
    }
}

/// True when instrumentation is compiled in *and* a recorder is installed.
#[inline]
pub fn enabled() -> bool {
    STATIC_ENABLED && ACTIVE.load(Ordering::Relaxed)
}

thread_local! {
    /// The simulated cycle last published on this thread. Each run, a
    /// four-core system's included, runs start to finish on one thread, so
    /// a decision reads its own run's cycle whatever other workers publish.
    static CLOCK: Cell<u64> = const { Cell::new(0) };
}

/// Publishes the current simulated cycle for this thread's decisions.
/// Simulators call it through [`clock!`] at bandit step / epoch boundaries.
#[inline]
pub fn set_clock(cycle: u64) {
    CLOCK.with(|c| c.set(cycle));
}

/// The simulated cycle last published on this thread (0 before any).
#[inline]
pub fn clock() -> u64 {
    CLOCK.with(Cell::get)
}

/// Bumps a [`Stat`] counter: `count!(ArmPulls)` or `count!(L2Fill, n)`.
#[macro_export]
macro_rules! count {
    ($stat:ident) => {
        $crate::count!($stat, 1u64)
    };
    ($stat:ident, $n:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.counters().add($crate::Stat::$stat, $n as u64);
            }
        }
    };
}

/// Records an f64 observation into a micro-unit histogram:
/// `record!(Reward, ipc)`.
#[macro_export]
macro_rules! record {
    ($hist:ident, $value:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.hist($crate::Hist::$hist).record_f64($value);
            }
        }
    };
}

/// Records an integer observation into a raw-unit histogram:
/// `record_raw!(MissLatency, cycles)`.
#[macro_export]
macro_rules! record_raw {
    ($hist:ident, $value:expr) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.hist($crate::Hist::$hist).record($value as u64);
            }
        }
    };
}

/// Pushes an [`Occupancy`] sample into the ring:
/// `emit!(Occupancy { track: "mshr", id: core, value, cycle })`.
#[macro_export]
macro_rules! emit {
    (Occupancy { $($field:ident : $value:expr),* $(,)? }) => {
        if $crate::STATIC_ENABLED {
            if let Some(r) = $crate::recorder() {
                r.emit($crate::Occupancy { $($field : $value),* });
            }
        }
    };
}

/// Publishes the simulated cycle to this thread's recorder clock
/// ([`set_clock`]): `clock!(cycle)`. Called by simulators at bandit step /
/// epoch boundaries (not per cycle), so decision records carry a timeline
/// position.
#[macro_export]
macro_rules! clock {
    ($cycle:expr) => {
        if $crate::STATIC_ENABLED {
            if $crate::recorder().is_some() {
                $crate::set_clock($cycle as u64);
            }
        }
    };
}

/// Opens a hierarchical profiling span covering the rest of the enclosing
/// scope: `span!(CacheAccess)`, or `span!(PrefetchTrain, label_id)` with a
/// label from [`span::intern`]. With the `on` feature off this folds to
/// nothing; with profiling disarmed at runtime it costs one relaxed load
/// and a branch.
#[macro_export]
macro_rules! span {
    ($cat:ident) => {
        let _span_guard = $crate::span::enter($crate::span::Category::$cat, 0);
    };
    ($cat:ident, $label:expr) => {
        let _span_guard = $crate::span::enter($crate::span::Category::$cat, $label);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_enabled_tracks_the_feature() {
        assert_eq!(STATIC_ENABLED, cfg!(feature = "on"));
    }

    fn occupancy() -> Occupancy {
        Occupancy {
            track: "mshr",
            id: 1,
            value: 3.0,
            cycle: 44,
        }
    }

    #[test]
    fn recorder_routes_events_to_the_ring() {
        let rec = Recorder::new();
        rec.emit(occupancy());
        let ring = rec.ring();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.capacity(), EVENT_CAPACITY);
        assert_eq!(ring.iter().next(), Some(&occupancy()));
    }

    #[test]
    fn export_to_writer_produces_parseable_lines() {
        let rec = Recorder::new();
        rec.counters().add(Stat::ArmPulls, 2);
        rec.hist(Hist::Reward).record_f64(1.5);
        rec.emit(occupancy());
        let mut out = Vec::new();
        rec.export_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() >= 4, "{text}");
        assert!(text.contains("\"kind\":\"meta\""), "{text}");
        assert!(
            text.contains("\"stat\":\"arm_pulls\",\"value\":2"),
            "{text}"
        );
        assert!(text.contains("\"kind\":\"occupancy\""), "{text}");
    }
}
