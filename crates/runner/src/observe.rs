//! Optional sweep/arm observation hooks for run-ledger recording and live
//! monitoring.
//!
//! Observers ([`add_observer`] / [`remove_observer`]) receive the full
//! [`ArmEvent`] stream: sweep begin/end plus per-arm start and finish. Any
//! number can be registered concurrently; `--ledger` recording keeps the
//! [`ArmEvent::ArmFinish`] observations, the `mab-monitor` live plane all
//! of them.
//!
//! The `(sweep, index, seed)` triple follows the ordered-slot discipline —
//! it depends only on program order and spec position, never on worker
//! scheduling — so a collector that sorts by it reconstructs the identical
//! arm log at any `--jobs` setting; only `wall_ns`, `worker` and event
//! *arrival order* are scheduling noise. A sweep delivers to the observers
//! registered when it began, minus any removed since: no event reaches an
//! observer after [`remove_observer`] returns. With no observer installed
//! the hooks cost one `RwLock` read per sweep, nothing per arm.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One completed sweep arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmObservation {
    /// Process-wide sweep sequence number (order of sweep starts). Distinct
    /// sweeps in one run get increasing ids; collectors should normalize by
    /// first appearance rather than rely on absolute values, since other
    /// threads may also start sweeps.
    pub sweep: u32,
    /// The arm's spec index within its sweep.
    pub index: usize,
    /// The arm's derived child seed.
    pub seed: u64,
    /// Arm wall time in nanoseconds (scheduling-dependent).
    pub wall_ns: u64,
    /// Index of the worker thread that ran the arm (0 for serial sweeps;
    /// scheduling-dependent).
    pub worker: usize,
}

/// One step of a sweep's lifecycle, as seen by event observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmEvent {
    /// A sweep of `total` specs is starting with `jobs` workers.
    SweepBegin {
        /// Process-wide sweep sequence number.
        sweep: u32,
        /// Number of specs in the sweep.
        total: usize,
        /// Worker threads the sweep will use.
        jobs: usize,
    },
    /// A worker claimed an arm and is about to run it.
    ArmStart {
        /// The arm's sweep.
        sweep: u32,
        /// The arm's spec index.
        index: usize,
        /// The arm's derived child seed.
        seed: u64,
        /// The claiming worker's index.
        worker: usize,
    },
    /// An arm completed.
    ArmFinish(ArmObservation),
    /// Every arm of the sweep completed (not emitted when a run panicked).
    SweepEnd {
        /// The finished sweep.
        sweep: u32,
    },
}

/// Full-lifecycle event observer callback type.
pub type EventObserver = Arc<dyn Fn(&ArmEvent) + Send + Sync>;

/// Handle identifying a registered event observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverId(u64);

static OBSERVERS: RwLock<Vec<(u64, EventObserver)>> = RwLock::new(Vec::new());
static NEXT_OBSERVER: AtomicU64 = AtomicU64::new(1);
static SWEEP_SEQ: AtomicU32 = AtomicU32::new(0);

/// Registers an event observer; it stays active until [`remove_observer`].
/// Sweeps already running when it is added do not report to it.
pub fn add_observer(observer: EventObserver) -> ObserverId {
    let mut observers = OBSERVERS.write().unwrap();
    // Ids are taken under the write lock, so a sweep's `Listeners::below`
    // bound separates the observers it began with from later ones.
    let id = NEXT_OBSERVER.fetch_add(1, Ordering::Relaxed);
    observers.push((id, observer));
    ObserverId(id)
}

/// Removes a previously registered event observer (idempotent). Waits for
/// any delivery to it in progress; no event reaches it afterwards.
pub fn remove_observer(id: ObserverId) {
    OBSERVERS.write().unwrap().retain(|(held, _)| *held != id.0);
}

/// The observers one sweep reports to.
pub(crate) struct Listeners {
    /// Ids at or above this were registered after the sweep began.
    below: u64,
}

impl Listeners {
    /// The sweep's listeners, or `None` when no observer is registered —
    /// then the sweep neither times its arms nor takes a lock per arm.
    pub(crate) fn begin() -> Option<Listeners> {
        let observers = OBSERVERS.read().unwrap();
        (!observers.is_empty()).then(|| Listeners {
            below: NEXT_OBSERVER.load(Ordering::Relaxed),
        })
    }

    /// Delivers `event` to every observer still registered that the sweep
    /// began with. The registry's read lock is held across the calls, so
    /// [`remove_observer`] cannot return while one is in progress.
    pub(crate) fn emit(&self, event: &ArmEvent) {
        for (id, observe) in OBSERVERS.read().unwrap().iter() {
            if *id < self.below {
                observe(event);
            }
        }
    }
}

/// Claims the next sweep sequence number.
pub(crate) fn next_sweep_id() -> u32 {
    SWEEP_SEQ.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{sweep, SweepOptions};
    use std::collections::BTreeMap;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn observations_are_scheduling_invariant() {
        // The observer is process-global, so other tests' sweeps may fire it
        // too; filter down to this test's arms by their derived seeds.
        let specs: Vec<u64> = (0..48).collect();
        let master_seed = 0xC0FFEE_u64;
        let mine: std::collections::BTreeSet<u64> = (0..specs.len())
            .map(|i| crate::child_seed(master_seed, i as u64))
            .collect();

        let log: Arc<Mutex<Vec<ArmObservation>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let id = add_observer(Arc::new(move |event: &ArmEvent| {
            if let ArmEvent::ArmFinish(obs) = event {
                sink.lock().unwrap().push(*obs);
            }
        }));
        sweep(&specs, SweepOptions::new(1, master_seed), |_, spec| *spec).unwrap();
        sweep(&specs, SweepOptions::new(8, master_seed), |_, spec| *spec).unwrap();
        remove_observer(id);

        // Group this test's observations by sweep id, normalize each sweep
        // to its sorted (index, seed) set, and demand the serial and
        // parallel sweeps produced the same set.
        let mut by_sweep: BTreeMap<u32, Vec<(usize, u64)>> = BTreeMap::new();
        for obs in log.lock().unwrap().iter() {
            if mine.contains(&obs.seed) {
                by_sweep
                    .entry(obs.sweep)
                    .or_default()
                    .push((obs.index, obs.seed));
            }
        }
        assert_eq!(by_sweep.len(), 2, "expected exactly two observed sweeps");
        let mut sweeps: Vec<Vec<(usize, u64)>> = by_sweep.into_values().collect();
        for arms in &mut sweeps {
            arms.sort_unstable();
        }
        assert_eq!(sweeps[0].len(), specs.len());
        assert_eq!(sweeps[0], sweeps[1], "jobs=1 vs jobs=8 arm sets differ");
    }

    #[test]
    fn removal_reaches_a_sweep_already_running() {
        let specs: Vec<u64> = (0..2).collect();
        let master_seed = 0xB10C_u64;
        let log: Arc<Mutex<Vec<ArmEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let id = add_observer(Arc::new(move |event: &ArmEvent| {
            sink.lock().unwrap().push(*event);
        }));
        // The sweep's first arm meets this thread at `entered`, then waits
        // at `release` while this thread removes the observer.
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let sweeper = {
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            std::thread::spawn(move || {
                sweep(&specs, SweepOptions::new(1, master_seed), |ctx, spec| {
                    if ctx.index == 0 {
                        entered.wait();
                        release.wait();
                    }
                    *spec
                })
                .unwrap();
            })
        };
        entered.wait();
        remove_observer(id);
        let seen = log.lock().unwrap().clone();
        release.wait();
        sweeper.join().unwrap();

        let first_seed = crate::child_seed(master_seed, 0);
        assert!(
            seen.iter()
                .any(|e| matches!(e, ArmEvent::ArmStart { seed, .. } if *seed == first_seed)),
            "the observer saw the running sweep before its removal: {seen:?}"
        );
        let after = log.lock().unwrap().len();
        assert_eq!(
            after,
            seen.len(),
            "events after removal: {:?}",
            &log.lock().unwrap()[seen.len()..]
        );
    }

    #[test]
    fn event_observers_see_the_full_lifecycle() {
        let specs: Vec<u64> = (0..6).collect();
        let master_seed = 0xFEED_u64;
        let mine: std::collections::BTreeSet<u64> = (0..specs.len())
            .map(|i| crate::child_seed(master_seed, i as u64))
            .collect();

        let log: Arc<Mutex<Vec<ArmEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let id = add_observer(Arc::new(move |event: &ArmEvent| {
            sink.lock().unwrap().push(*event);
        }));
        sweep(&specs, SweepOptions::new(2, master_seed), |_, spec| *spec).unwrap();
        remove_observer(id);
        // Removal is effective: later sweeps add nothing.
        let seen = log.lock().unwrap().len();
        sweep(&specs, SweepOptions::new(1, master_seed), |_, spec| *spec).unwrap();
        assert_eq!(log.lock().unwrap().len(), seen);

        // Pick out this test's sweep by its begin event (other tests run
        // concurrently and also emit events).
        let events = log.lock().unwrap().clone();
        let my_sweep = events
            .iter()
            .find_map(|e| match e {
                ArmEvent::ArmStart { sweep, seed, .. } if mine.contains(seed) => Some(*sweep),
                _ => None,
            })
            .expect("saw at least one of our arm starts");
        let begin = events.iter().any(|e| {
            matches!(e, ArmEvent::SweepBegin { sweep, total, jobs }
                     if *sweep == my_sweep && *total == specs.len() && *jobs == 2)
        });
        assert!(begin, "missing SweepBegin: {events:?}");
        let starts = events
            .iter()
            .filter(|e| matches!(e, ArmEvent::ArmStart { sweep, .. } if *sweep == my_sweep))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, ArmEvent::ArmFinish(o) if o.sweep == my_sweep))
            .count();
        assert_eq!(starts, specs.len());
        assert_eq!(finishes, specs.len());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ArmEvent::SweepEnd { sweep } if *sweep == my_sweep)),
            "missing SweepEnd: {events:?}"
        );
    }
}
