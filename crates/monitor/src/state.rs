//! Shared monitor state: the live arm table, sweep progress, per-worker
//! accounting, the SSE broadcast ring, and scrape counters.
//!
//! Everything here is fed by `mab-runner`'s event-observer hook and read by
//! the HTTP handlers. Updates take short `Mutex` sections on the *observer*
//! side only at arm granularity (one lock per arm start/finish — never per
//! simulated cycle), and readers render under the same lock, so a stalled
//! HTTP client can delay another scrape but never a simulation step: the
//! hot path inside an arm touches no monitor state at all. Sweep progress
//! is counted from the same events, so `/status` and `/metrics` always
//! agree with the arm table they are rendered beside.

use mab_runner::ArmEvent;
use mab_telemetry::Ring;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Maximum arms retained in the live table; older entries are evicted (and
/// counted) so a 100k-arm sweep cannot grow the monitor without bound.
pub const ARM_TABLE_CAP: usize = 1024;

/// Maximum events retained for SSE catch-up; clients that fall further
/// behind skip ahead and the gap is counted as drops.
pub const SSE_RING_CAP: usize = 1024;

/// Static description of the monitored run, shown by `/status` and stamped
/// on `/metrics` as the info gauge.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Experiment (binary) name.
    pub experiment: String,
    /// The run's ledger config digest (identity content-address).
    pub digest: String,
    /// Code version string (`<crate version>+<git rev>`).
    pub code: String,
    /// Worker threads the run was asked to use.
    pub jobs: u64,
    /// Unix timestamp when the run started.
    pub started_unix: u64,
}

/// Lifecycle phase of a tracked arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmPhase {
    /// Claimed by a worker, still executing.
    Running,
    /// Completed.
    Done,
}

/// One row of the live arm table.
#[derive(Debug, Clone, Copy)]
pub struct ArmState {
    /// The arm's sweep sequence number.
    pub sweep: u32,
    /// The arm's spec index within its sweep.
    pub index: usize,
    /// The arm's derived child seed.
    pub seed: u64,
    /// Worker that claimed the arm.
    pub worker: usize,
    /// Running or done.
    pub phase: ArmPhase,
    /// Wall time in nanoseconds once done (0 while running).
    pub wall_ns: u64,
}

/// Cumulative per-worker accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerState {
    /// Total nanoseconds spent inside completed arms.
    pub busy_ns: u64,
    /// Arms this worker completed.
    pub arms_finished: u64,
    /// The arm currently running on this worker, if any.
    pub running: Option<(u32, usize)>,
}

/// Progress of the most recent sweep, counted from its arm events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepState {
    /// The sweep's sequence number.
    pub sweep: u32,
    /// Arms in the sweep.
    pub total: usize,
    /// Arms of the sweep finished so far.
    pub done: usize,
    /// When the monitor saw the sweep begin.
    pub started: Instant,
    /// True until the sweep's end event arrives.
    pub active: bool,
}

impl SweepState {
    /// Seconds since the sweep began.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// The live arm table plus sweep/worker aggregates, updated per arm event.
#[derive(Debug)]
pub struct ArmTable {
    /// Most recent arms, oldest first, capped at [`ARM_TABLE_CAP`]; its
    /// drop count is the number of rows evicted to stay under the cap.
    pub arms: Ring<ArmState>,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerState>,
    /// Arms started, cumulatively across sweeps.
    pub started: u64,
    /// Arms finished, cumulatively across sweeps.
    pub finished: u64,
    /// The most recent sweep, once one has begun.
    pub current: Option<SweepState>,
}

impl Default for ArmTable {
    fn default() -> Self {
        ArmTable {
            arms: Ring::with_reserve(ARM_TABLE_CAP, 0),
            workers: Vec::new(),
            started: 0,
            finished: 0,
            current: None,
        }
    }
}

impl ArmTable {
    fn worker_mut(&mut self, worker: usize) -> &mut WorkerState {
        if self.workers.len() <= worker {
            self.workers.resize_with(worker + 1, WorkerState::default);
        }
        &mut self.workers[worker]
    }
}

/// A broadcast ring of rendered SSE payloads with sequence numbers.
///
/// Publishers append and notify; each streaming client remembers the next
/// sequence it wants and calls [`EventRing::wait_after`], which returns the
/// available suffix plus how many events it missed (evicted before it could
/// read them).
#[derive(Debug)]
pub struct EventRing {
    /// Retained `(event_name, payload)` pairs; an event's sequence number
    /// is its push number.
    inner: Mutex<Ring<(&'static str, String)>>,
    cond: Condvar,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing {
            inner: Mutex::new(Ring::with_reserve(SSE_RING_CAP, 0)),
            cond: Condvar::new(),
        }
    }
}

impl EventRing {
    fn lock(&self) -> MutexGuard<'_, Ring<(&'static str, String)>> {
        self.inner
            .lock()
            .expect("SSE ring lock poisoned by a panicking thread")
    }

    /// Appends an event and wakes all waiting streamers.
    pub fn publish(&self, event: &'static str, payload: String) {
        self.lock().push((event, payload));
        self.cond.notify_all();
    }

    /// Returns every retained event with sequence ≥ `from`, waiting up to
    /// `timeout` for one to arrive; the second component counts events the
    /// caller missed because they were already evicted. An empty result
    /// means the timeout elapsed (heartbeat time).
    pub fn wait_after(
        &self,
        from: u64,
        timeout: Duration,
    ) -> (Vec<(u64, &'static str, String)>, u64) {
        let mut ring = self.lock();
        if ring.total() <= from {
            let (guard, _) = self
                .cond
                .wait_timeout(ring, timeout)
                .expect("SSE ring lock poisoned by a panicking thread");
            ring = guard;
        }
        let events = ring
            .numbered()
            .filter(|(seq, _)| *seq >= from)
            .map(|(seq, (event, payload))| (seq, *event, payload.clone()))
            .collect();
        (events, ring.dropped().saturating_sub(from))
    }

    /// Sequence number the next published event will receive.
    pub fn next_seq(&self) -> u64 {
        self.lock().total()
    }
}

/// Everything the HTTP handlers read: run identity, the live arm table, the
/// SSE ring, and the scrape/drop counters the ledger tie-in reports.
#[derive(Debug)]
pub struct MonitorState {
    /// Static run description.
    pub run: RunInfo,
    /// The live arm table.
    pub table: Mutex<ArmTable>,
    /// SSE broadcast ring.
    pub events: EventRing,
    /// `/metrics` requests served.
    pub metrics_scrapes: AtomicU64,
    /// `/status` requests served.
    pub status_scrapes: AtomicU64,
    /// Currently connected `/events` clients.
    pub sse_clients: AtomicU64,
    /// Events dropped across all SSE clients (slow-client accounting).
    pub sse_dropped: AtomicU64,
    /// Server-core counters (rejected connections), shared with the
    /// accept loop.
    pub http: std::sync::Arc<crate::http::HttpStats>,
}

impl MonitorState {
    /// Fresh state for a run.
    pub fn new(run: RunInfo) -> Self {
        MonitorState {
            run,
            table: Mutex::new(ArmTable::default()),
            events: EventRing::default(),
            metrics_scrapes: AtomicU64::new(0),
            status_scrapes: AtomicU64::new(0),
            sse_clients: AtomicU64::new(0),
            sse_dropped: AtomicU64::new(0),
            http: std::sync::Arc::new(crate::http::HttpStats::default()),
        }
    }

    /// Total `/metrics` + `/status` scrapes served so far (the figure the
    /// run ledger records as circumstance).
    pub fn scrape_count(&self) -> u64 {
        self.metrics_scrapes.load(Ordering::Relaxed) + self.status_scrapes.load(Ordering::Relaxed)
    }

    /// Applies one runner event: updates the arm table and publishes the
    /// corresponding SSE payload.
    pub fn observe(&self, event: &ArmEvent) {
        match *event {
            ArmEvent::SweepBegin { sweep, total, jobs } => {
                self.table.lock().unwrap().current = Some(SweepState {
                    sweep,
                    total,
                    done: 0,
                    started: Instant::now(),
                    active: true,
                });
                self.events.publish(
                    "sweep_begin",
                    format!("{{\"sweep\":{sweep},\"total\":{total},\"jobs\":{jobs}}}"),
                );
            }
            ArmEvent::ArmStart {
                sweep,
                index,
                seed,
                worker,
            } => {
                {
                    let mut table = self.table.lock().unwrap();
                    table.started += 1;
                    table.worker_mut(worker).running = Some((sweep, index));
                    table.arms.push(ArmState {
                        sweep,
                        index,
                        seed,
                        worker,
                        phase: ArmPhase::Running,
                        wall_ns: 0,
                    });
                }
                self.events.publish(
                    "arm_start",
                    format!(
                        "{{\"sweep\":{sweep},\"index\":{index},\"seed\":{seed},\"worker\":{worker}}}"
                    ),
                );
            }
            ArmEvent::ArmFinish(obs) => {
                let (done, total) = {
                    let mut table = self.table.lock().unwrap();
                    table.finished += 1;
                    let worker = table.worker_mut(obs.worker);
                    worker.busy_ns += obs.wall_ns;
                    worker.arms_finished += 1;
                    if worker.running == Some((obs.sweep, obs.index)) {
                        worker.running = None;
                    }
                    // Mark the matching running row done; if it was already
                    // evicted, append a fresh done row instead.
                    let found = table.arms.iter_mut().rev().find(|arm| {
                        arm.sweep == obs.sweep
                            && arm.index == obs.index
                            && arm.phase == ArmPhase::Running
                    });
                    match found {
                        Some(arm) => {
                            arm.phase = ArmPhase::Done;
                            arm.wall_ns = obs.wall_ns;
                        }
                        None => {
                            table.arms.push(ArmState {
                                sweep: obs.sweep,
                                index: obs.index,
                                seed: obs.seed,
                                worker: obs.worker,
                                phase: ArmPhase::Done,
                                wall_ns: obs.wall_ns,
                            });
                        }
                    }
                    match &mut table.current {
                        Some(current) if current.sweep == obs.sweep => {
                            current.done += 1;
                            (current.done, current.total)
                        }
                        _ => (0, 0),
                    }
                };
                self.events.publish(
                    "arm_finish",
                    format!(
                        "{{\"sweep\":{},\"index\":{},\"seed\":{},\"worker\":{},\"wall_ns\":{},\
                         \"done\":{done},\"total\":{total}}}",
                        obs.sweep, obs.index, obs.seed, obs.worker, obs.wall_ns
                    ),
                );
            }
            ArmEvent::SweepEnd { sweep } => {
                if let Some(current) = &mut self.table.lock().unwrap().current {
                    if current.sweep == sweep {
                        current.active = false;
                    }
                }
                self.events
                    .publish("sweep_end", format!("{{\"sweep\":{sweep}}}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mab_runner::ArmObservation;

    fn start(state: &MonitorState, sweep: u32, index: usize, worker: usize) {
        state.observe(&ArmEvent::ArmStart {
            sweep,
            index,
            seed: index as u64 + 100,
            worker,
        });
    }

    fn finish(state: &MonitorState, sweep: u32, index: usize, worker: usize, wall_ns: u64) {
        state.observe(&ArmEvent::ArmFinish(ArmObservation {
            sweep,
            index,
            seed: index as u64 + 100,
            wall_ns,
            worker,
        }));
    }

    #[test]
    fn table_tracks_arm_lifecycle_and_workers() {
        let state = MonitorState::new(RunInfo::default());
        state.observe(&ArmEvent::SweepBegin {
            sweep: 3,
            total: 2,
            jobs: 2,
        });
        start(&state, 3, 0, 0);
        start(&state, 3, 1, 1);
        finish(&state, 3, 0, 0, 500);
        {
            let table = state.table.lock().unwrap();
            assert_eq!(table.started, 2);
            assert_eq!(table.finished, 1);
            let current = table.current.unwrap();
            assert_eq!((current.sweep, current.total, current.done), (3, 2, 1));
            assert!(current.active);
            assert_eq!(table.workers[0].busy_ns, 500);
            assert_eq!(table.workers[0].running, None);
            assert_eq!(table.workers[1].running, Some((3, 1)));
            let row = table.arms.iter().find(|a| a.index == 0).unwrap();
            assert_eq!(row.phase, ArmPhase::Done);
            assert_eq!(row.wall_ns, 500);
        }
        finish(&state, 3, 1, 1, 700);
        state.observe(&ArmEvent::SweepEnd { sweep: 3 });
        let table = state.table.lock().unwrap();
        let current = table.current.unwrap();
        assert_eq!((current.sweep, current.total, current.done), (3, 2, 2));
        assert!(!current.active);
        assert_eq!(table.workers[1].arms_finished, 1);
    }

    #[test]
    fn arm_table_eviction_is_bounded_and_counted() {
        let state = MonitorState::new(RunInfo::default());
        for i in 0..(ARM_TABLE_CAP + 10) {
            start(&state, 0, i, 0);
        }
        let table = state.table.lock().unwrap();
        assert_eq!(table.arms.len(), ARM_TABLE_CAP);
        assert_eq!(table.arms.dropped(), 10);
        assert_eq!(table.arms.iter().next().unwrap().index, 10);
    }

    #[test]
    fn event_ring_delivers_and_accounts_drops() {
        let ring = EventRing::default();
        ring.publish("a", "1".to_string());
        ring.publish("b", "2".to_string());
        let (events, dropped) = ring.wait_after(0, Duration::from_millis(1));
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], (0, "a", "1".to_string()));

        // Overflow the ring; a reader still at seq 0 misses the evicted
        // prefix and the gap is reported.
        for i in 0..(SSE_RING_CAP + 5) {
            ring.publish("x", format!("{i}"));
        }
        let (events, dropped) = ring.wait_after(0, Duration::from_millis(1));
        assert_eq!(events.len(), SSE_RING_CAP);
        assert_eq!(dropped, (2 + 5) as u64);
        // A timeout with nothing new returns empty (heartbeat time).
        let next = ring.next_seq();
        let (events, dropped) = ring.wait_after(next, Duration::from_millis(1));
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn finish_after_eviction_appends_a_done_row() {
        let state = MonitorState::new(RunInfo::default());
        start(&state, 0, 0, 0);
        for i in 1..=ARM_TABLE_CAP {
            start(&state, 0, i, 0);
        }
        // Arm 0's running row has been evicted by now.
        finish(&state, 0, 0, 0, 42);
        let table = state.table.lock().unwrap();
        let row = table.arms.iter().next_back().unwrap();
        assert_eq!(row.index, 0);
        assert_eq!(row.phase, ArmPhase::Done);
        assert_eq!(row.wall_ns, 42);
    }
}
