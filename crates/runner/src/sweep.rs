//! Scoped worker pool with ordered collection and panic capture.

use crate::seed::child_seed;
use mab_telemetry::count;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Per-run context handed to the sweep body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// Position of this run's spec in the sweep queue.
    pub index: usize,
    /// Deterministic child seed derived from `(master_seed, index)`; see
    /// [`child_seed`].
    pub seed: u64,
}

/// Sweep configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker count. `0` and `1` both run serially on the calling thread;
    /// larger values spawn that many scoped workers.
    pub jobs: usize,
    /// Master seed from which every run's child seed is derived.
    pub master_seed: u64,
}

impl SweepOptions {
    /// Options for a sweep at `jobs` workers with the given master seed.
    #[must_use]
    pub fn new(jobs: usize, master_seed: u64) -> Self {
        SweepOptions { jobs, master_seed }
    }
}

/// A run panicked; the sweep reports the lowest offending spec index so
/// the failure is deterministic regardless of worker scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the failing spec in the sweep queue.
    pub index: usize,
    /// Panic payload rendered as text (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep run #{} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for SweepError {}

/// Worker count to use when the caller didn't ask for one: the host's
/// available parallelism, or 1 if that can't be determined.
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` once per spec and returns the results in spec order.
///
/// Workers claim specs from an atomic cursor; each run gets a [`RunCtx`]
/// whose seed depends only on `(master_seed, index)`, and its result is
/// written into the slot at its spec index — so the returned vector is
/// bit-identical to what a serial `specs.iter().map(..)` loop would
/// produce, at any `jobs` setting.
///
/// Panics inside `f` are caught. Remaining unclaimed specs are abandoned,
/// in-flight runs finish, and the sweep returns the [`SweepError`] with
/// the lowest spec index among all captured panics.
///
/// # Errors
///
/// Returns [`SweepError`] when any run panics.
pub fn sweep<S, R, F>(specs: &[S], opts: SweepOptions, f: F) -> Result<Vec<R>, SweepError>
where
    S: Sync,
    R: Send,
    F: Fn(RunCtx, &S) -> R + Sync,
{
    let progress = mab_telemetry::summary::SweepProgress::new(specs.len());
    // Arms are only timed when somebody is listening as the sweep begins.
    let listeners = crate::observe::Listeners::begin();
    let emit = |event: &crate::observe::ArmEvent| {
        if let Some(listeners) = &listeners {
            listeners.emit(event);
        }
    };
    let serial = opts.jobs <= 1 || specs.len() <= 1;
    mab_telemetry::blackbox::sweep_begin(specs.len());
    let sweep_id = if listeners.is_none() {
        0
    } else {
        let id = crate::observe::next_sweep_id();
        emit(&crate::observe::ArmEvent::SweepBegin {
            sweep: id,
            total: specs.len(),
            jobs: if serial {
                1
            } else {
                opts.jobs.min(specs.len())
            },
        });
        id
    };
    let run_one = |index: usize, worker: usize, spec: &S| -> Result<R, SweepError> {
        let ctx = RunCtx {
            index,
            seed: child_seed(opts.master_seed, index as u64),
        };
        // The black box remembers this as the worker's current arm, so a
        // panic or fatal signal mid-run names the failing (index, seed).
        mab_telemetry::blackbox::arm_start(index, ctx.seed);
        let arm_start = if listeners.is_none() {
            None
        } else {
            emit(&crate::observe::ArmEvent::ArmStart {
                sweep: sweep_id,
                index,
                seed: ctx.seed,
                worker,
            });
            Some(std::time::Instant::now())
        };
        // Each run executes inside `collect_run`: a fresh span tree on this
        // worker, drained into the profiler's merge registry afterwards.
        // Merging is a path-keyed commutative sum over per-run trees, so
        // the sweep-wide profile is identical at any `jobs` setting.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            mab_telemetry::profile::collect_run(|| f(ctx, spec))
        }));
        match outcome {
            Ok(result) => {
                count!(SweepRuns);
                mab_telemetry::blackbox::arm_finish(index);
                if let Some(start) = arm_start {
                    emit(&crate::observe::ArmEvent::ArmFinish(
                        crate::observe::ArmObservation {
                            sweep: sweep_id,
                            index,
                            seed: ctx.seed,
                            wall_ns: start.elapsed().as_nanos() as u64,
                            worker,
                        },
                    ));
                }
                progress.tick();
                Ok(result)
            }
            Err(payload) => {
                count!(SweepPanics);
                Err(SweepError {
                    index,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    };
    // Only a sweep whose every arm completed reports its end to observers
    // and the black box's ring; a failed one just stops.
    let end_sweep = |completed: bool| {
        progress.finish();
        mab_telemetry::blackbox::sweep_end(completed.then_some(specs.len()));
        if completed && listeners.is_some() {
            emit(&crate::observe::ArmEvent::SweepEnd { sweep: sweep_id });
        }
    };

    if serial {
        let results: Result<Vec<R>, SweepError> = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| run_one(index, 0, spec))
            .collect();
        end_sweep(results.is_ok());
        return results;
    }

    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..specs.len()).map(|_| None).collect());
    let failure: Mutex<Option<SweepError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        // Shadow the shared state with references so the `move` below only
        // copies pointers (the closure must own its `worker` index).
        let (cursor, abort, slots, failure) = (&cursor, &abort, &slots, &failure);
        let run_one = &run_one;
        for worker in 0..opts.jobs.min(specs.len()) {
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(index) else {
                    break;
                };
                match run_one(index, worker, spec) {
                    Ok(result) => slots.lock().unwrap()[index] = Some(result),
                    Err(error) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut slot = failure.lock().unwrap();
                        // Lowest index wins so the reported failure does
                        // not depend on worker scheduling.
                        if slot.as_ref().is_none_or(|held| error.index < held.index) {
                            *slot = Some(error);
                        }
                        break;
                    }
                }
            });
        }
    });

    if let Some(error) = failure.into_inner().unwrap() {
        end_sweep(false);
        return Err(error);
    }
    end_sweep(true);
    let results = slots.into_inner().unwrap();
    // Every slot was filled: no failure occurred, so every claimed index
    // stored a result, and the cursor only stops advancing past the end.
    Ok(results.into_iter().map(|slot| slot.unwrap()).collect())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_results_match() {
        let specs: Vec<u64> = (0..64).collect();
        let body = |ctx: RunCtx, spec: &u64| (ctx.index, ctx.seed, spec * 3);
        let serial = sweep(&specs, SweepOptions::new(1, 42), body).unwrap();
        for jobs in [2, 4, 8] {
            let parallel = sweep(&specs, SweepOptions::new(jobs, 42), body).unwrap();
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn seeds_follow_the_derivation() {
        let specs = [(); 8];
        let results = sweep(&specs, SweepOptions::new(4, 7), |ctx, _| ctx.seed).unwrap();
        for (index, seed) in results.iter().enumerate() {
            assert_eq!(*seed, child_seed(7, index as u64));
        }
    }

    #[test]
    fn panic_is_captured_with_lowest_index() {
        let specs: Vec<usize> = (0..32).collect();
        let err = sweep(&specs, SweepOptions::new(4, 1), |_, spec| {
            if *spec >= 5 {
                panic!("boom at {spec}");
            }
            *spec
        })
        .unwrap_err();
        // Workers race, but the reported index is always the lowest
        // panicking spec that any worker actually claimed — and spec 5 is
        // claimed before any later spec can panic first… not guaranteed
        // under arbitrary scheduling, so only bound it.
        assert!(err.index >= 5, "{err:?}");
        assert!(err.message.contains("boom"), "{err:?}");
    }

    #[test]
    fn serial_panic_reports_first_spec() {
        let specs: Vec<usize> = (0..8).collect();
        let err = sweep(&specs, SweepOptions::new(1, 1), |_, spec| {
            assert!(*spec < 3, "dead at {spec}");
        })
        .unwrap_err();
        assert_eq!(err.index, 3);
        assert!(err.message.contains("dead at 3"), "{err:?}");
    }

    #[test]
    fn empty_sweep_is_fine() {
        let specs: Vec<u64> = Vec::new();
        let results = sweep(&specs, SweepOptions::new(8, 0), |_, _| 0u8).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
