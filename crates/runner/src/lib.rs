//! Deterministic parallel sweep engine for the experiment harness.
//!
//! The paper's evaluation (Tables 6–7, the 64-policy SMT PG grid, the
//! 11-arm composite prefetcher lineup) is a pile of independent
//! single-machine simulations: workload × policy × seed. Each run is
//! sequential inside, but the sweep across runs is embarrassingly
//! parallel. This crate provides the fan-out without giving up the one
//! property the whole repo is built around: **bit-identical results no
//! matter how many workers run the sweep or how the scheduler interleaves
//! them**.
//!
//! Three mechanisms make that hold:
//!
//! 1. **Per-run child seeding.** Every run derives its RNG seed from
//!    `(master_seed, spec_index)` via a splitmix64 finalizer
//!    ([`child_seed`]). The derivation is a bijection per index, so no two
//!    specs share an RNG stream, and the seed depends only on the spec's
//!    position in the queue — never on which worker picks it up or when.
//! 2. **Ordered collection.** Workers claim specs from an atomic cursor
//!    and write results into a preallocated slot table at the spec's
//!    index. [`sweep`] returns results in spec order, so downstream report
//!    code sees exactly the vector a serial loop would have produced.
//! 3. **Commutative telemetry.** The global [`mab_telemetry`] recorder is
//!    already thread-safe (atomic counters, mutex-protected
//!    rings); workers record into it directly and the totals are
//!    order-independent sums, so one merged artifact falls out for free.
//!    Only scheduling-invariant quantities (runs completed, panics) are
//!    counted — never worker counts — keeping exports byte-identical at
//!    any `--jobs` setting.
//!
//! Panics inside a run are caught per-spec; the sweep drains, then fails
//! with the lowest offending spec index so the error is deterministic too.
//!
//! The workspace is offline (no rayon — shims only), so the fan-out is a
//! hand-rolled `std::thread::scope` over an atomic cursor; see [`sweep`].
//! Its workers live only as long as one sweep. `mab-serve`, which runs a
//! stream of arms for many clients, keeps its own worker threads that pull
//! from its fair scheduler.
//!
//! Observers ([`add_observer`]) receive every sweep's [`ArmEvent`]s: the
//! run ledger and the live monitor both learn sweep progress from them.

pub mod observe;
mod seed;
mod sweep;

pub use observe::{
    add_observer, remove_observer, ArmEvent, ArmObservation, EventObserver, ObserverId,
};
pub use seed::child_seed;
pub use sweep::{available_jobs, sweep, RunCtx, SweepError, SweepOptions};
