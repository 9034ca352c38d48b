//! Layer-boundary probes for the traced run.
//!
//! Every probe wraps a public type at the boundary between two layers and
//! counts each call exactly. Only a 1-in-[`SAMPLE_GAP`] sample of calls is
//! timed: a pair of `Instant::now()` calls costs about as much as one
//! simulated instruction, so timing every call would measure the clock.
//! The gaps between timed calls are drawn from a fixed-seed xorshift, so
//! the sample cannot alias with periodic work such as the bandit's step
//! every 1,000 L2 accesses.
//!
//! Probes tally into plain fields on the hot path and merge into the arm's
//! shared [`ArmTally`] once, when they are dropped at the end of the arm.

use mab_memsim::{L2Access, PrefetchQueue, Prefetcher};
use mab_smtsim::controllers::{EpochIpc, PgController};
use mab_smtsim::PgPolicy;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Mean number of calls between two timed calls of a sampled probe.
const SAMPLE_GAP: u32 = 64;

/// Timed calls kept as spans per probe; the rest only add to the totals.
const SPANS_PER_PROBE: usize = 8;

/// Where a probe sits, named by the layer that does the work it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A workload generator producing a record (`workloads`).
    Gen,
    /// A record read back from a trace, or its bulk decode (`traces`).
    Replay,
    /// `Prefetcher::train` (`prefetch`).
    Train,
    /// The `Prefetcher::on_*` fate callbacks (`prefetch`).
    Callback,
    /// `PgController::on_epoch` (`smtsim` controllers).
    Controller,
}

impl Site {
    /// Every site, in discriminant order (the index of its tally).
    pub const ALL: [Site; 5] = [
        Site::Gen,
        Site::Replay,
        Site::Train,
        Site::Callback,
        Site::Controller,
    ];
    pub const COUNT: usize = Site::ALL.len();

    pub fn layer(self) -> &'static str {
        match self {
            Site::Gen => "workloads",
            Site::Replay => "traces",
            Site::Train | Site::Callback => "prefetch",
            Site::Controller => "smtsim",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Site::Gen => "gen",
            Site::Replay => "replay",
            Site::Train => "train",
            Site::Callback => "callback",
            Site::Controller => "controller",
        }
    }
}

/// The process-wide time origin of span timestamps.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from [`epoch`] to `t`.
pub fn stamp(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Cost of one `Instant::now()` call in ns: the median gap between two
/// back-to-back reads. A timed call reads one such cost too long, and the
/// caller around it pays two.
pub fn instant_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut gaps: Vec<u64> = (0..20_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    })
}

/// Calls and time at one site.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Calls made, exact.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Summed duration of the timed calls, clock cost subtracted.
    pub timed_ns: u64,
    /// Time measured around whole operations rather than sampled calls.
    pub direct_ns: u64,
    /// `(start, duration)` of the first few timed calls, in ns.
    pub spans: Vec<(u64, u64)>,
}

impl Tally {
    /// Estimated total time: the timed calls scaled up to all calls, plus
    /// the directly measured time.
    pub fn est_ns(&self) -> f64 {
        let sampled = if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 * self.calls as f64 / self.timed as f64
        };
        sampled + self.direct_ns as f64
    }

    pub fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
        self.direct_ns += other.direct_ns;
        let room = SPANS_PER_PROBE.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.iter().take(room));
    }

    /// Adds one directly measured operation of `ns` nanoseconds.
    pub fn add_direct(&mut self, ns: u64) {
        self.direct_ns += ns;
    }
}

/// Everything the probes of one arm measured, by [`Site`].
#[derive(Debug, Clone, Default)]
pub struct ArmTally {
    pub sites: [Tally; Site::COUNT],
}

impl ArmTally {
    pub fn site(&self, site: Site) -> &Tally {
        &self.sites[site as usize]
    }

    pub fn site_mut(&mut self, site: Site) -> &mut Tally {
        &mut self.sites[site as usize]
    }

    /// Timed calls over all sites (each one added clock reads to its caller).
    pub fn timed_calls(&self) -> u64 {
        self.sites.iter().map(|t| t.timed).sum()
    }
}

/// The arm-wide tally the probes of one arm merge into.
pub type Sink = Arc<Mutex<ArmTally>>;

/// A sampled call counter and timer for one site.
///
/// The hot path only decrements a countdown: calls are counted as the sum
/// of the gaps already run down plus the part of the current one.
pub struct Probe {
    site: Site,
    tally: Tally,
    gap: u32,
    /// Length of the current gap, and the calls left in it.
    current: u32,
    countdown: u32,
    rng: u64,
    sink: Sink,
}

impl Probe {
    /// A probe timing a random 1-in-`gap` sample of its calls (`gap` 1
    /// times every call).
    pub fn new(site: Site, gap: u32, sink: &Sink) -> Self {
        let mut probe = Probe {
            site,
            tally: Tally::default(),
            gap: gap.max(1),
            current: 0,
            countdown: 0,
            rng: 0x9E37_79B9_7F4A_7C15 ^ (site as u64 + 1),
            sink: Arc::clone(sink),
        };
        probe.reload();
        probe
    }

    /// Starts the next gap: uniform on 1..=2·gap−1, so its mean is `gap`.
    fn reload(&mut self) {
        self.tally.calls += u64::from(self.current);
        self.current = if self.gap == 1 {
            1
        } else {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            1 + (self.rng % u64::from(2 * self.gap - 1)) as u32
        };
        self.countdown = self.current;
    }

    /// Runs `f` as one call of this site.
    #[inline]
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.countdown -= 1;
        if self.countdown != 0 {
            return f();
        }
        let t0 = Instant::now();
        let result = f();
        self.record(t0, Instant::now());
        result
    }

    /// Books one timed call and starts the next gap; kept out of line so
    /// the untimed path stays a decrement and a branch.
    #[cold]
    #[inline(never)]
    fn record(&mut self, t0: Instant, t1: Instant) {
        let ns = ((t1 - t0).as_nanos() as u64).saturating_sub(instant_ns());
        self.tally.timed += 1;
        self.tally.timed_ns += ns;
        if self.tally.spans.len() < SPANS_PER_PROBE {
            self.tally.spans.push((stamp(t0), ns));
        }
        self.reload();
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.tally.calls += u64::from(self.current - self.countdown);
        // A poisoned sink means another probe of this arm panicked; the arm
        // has failed already, so the tally is dropped with it.
        if let Ok(mut arm) = self.sink.lock() {
            arm.site_mut(self.site).merge(&self.tally);
        }
    }
}

/// An iterator whose `next` calls are counted and sampled.
pub struct TimedIter<I> {
    inner: I,
    probe: Probe,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I, site: Site, sink: &Sink) -> Self {
        TimedIter {
            inner,
            probe: Probe::new(site, SAMPLE_GAP, sink),
        }
    }
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        let inner = &mut self.inner;
        self.probe.call(|| inner.next())
    }
}

/// A prefetcher decorator: forwards `train` and every `on_*` callback to
/// the wrapped prefetcher (Pythia's reward needs the callbacks), counting
/// and sampling each.
pub struct TimedPrefetcher {
    inner: Box<dyn Prefetcher + Send>,
    train: Probe,
    callbacks: Probe,
}

impl TimedPrefetcher {
    pub fn new(inner: Box<dyn Prefetcher + Send>, sink: &Sink) -> Self {
        TimedPrefetcher {
            inner,
            train: Probe::new(Site::Train, SAMPLE_GAP, sink),
            callbacks: Probe::new(Site::Callback, SAMPLE_GAP, sink),
        }
    }
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn train(&mut self, access: &L2Access, queue: &mut PrefetchQueue) {
        let inner = &mut self.inner;
        self.train.call(|| inner.train(access, queue));
    }

    fn on_prefetch_fill(&mut self, line: u64, cycle: u64) {
        let inner = &mut self.inner;
        self.callbacks.call(|| inner.on_prefetch_fill(line, cycle));
    }

    fn on_prefetch_used(&mut self, line: u64, cycle: u64) {
        let inner = &mut self.inner;
        self.callbacks.call(|| inner.on_prefetch_used(line, cycle));
    }

    fn on_prefetch_late(&mut self, line: u64, cycle: u64) {
        let inner = &mut self.inner;
        self.callbacks.call(|| inner.on_prefetch_late(line, cycle));
    }

    fn on_prefetch_evicted_unused(&mut self, line: u64) {
        let inner = &mut self.inner;
        self.callbacks
            .call(|| inner.on_prefetch_evicted_unused(line));
    }
}

/// A PG-controller decorator timing every epoch report (epochs are ~1,000
/// cycles apart, so timing each one costs nothing measurable).
pub struct TimedController<C> {
    pub inner: C,
    probe: Probe,
}

impl<C> TimedController<C> {
    pub fn new(inner: C, sink: &Sink) -> Self {
        TimedController {
            inner,
            probe: Probe::new(Site::Controller, 1, sink),
        }
    }
}

impl<C: PgController> PgController for TimedController<C> {
    fn policy(&self) -> PgPolicy {
        self.inner.policy()
    }

    fn share(&self, thread: usize) -> f64 {
        self.inner.share(thread)
    }

    fn on_epoch(&mut self, epoch: EpochIpc) {
        let inner = &mut self.inner;
        self.probe.call(|| inner.on_epoch(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_probe_counts_every_call_and_times_about_one_in_gap() {
        let sink = Sink::default();
        {
            let mut it = TimedIter::new(0u64..64_000, Site::Gen, &sink);
            assert_eq!(it.by_ref().count(), 64_000);
        }
        let tally = sink.lock().unwrap().site(Site::Gen).clone();
        assert_eq!(tally.calls, 64_001, "the final None is a call too");
        assert!((900..1100).contains(&tally.timed), "{}", tally.timed);
    }

    #[test]
    fn gap_one_times_every_call() {
        let sink = Sink::default();
        {
            let mut probe = Probe::new(Site::Controller, 1, &sink);
            for _ in 0..10 {
                probe.call(|| ());
            }
        }
        let tally = sink.lock().unwrap().site(Site::Controller).clone();
        assert_eq!((tally.calls, tally.timed), (10, 10));
    }
}
