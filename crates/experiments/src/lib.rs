//! # `mab-experiments` — regenerating the paper's tables and figures
//!
//! One binary per experiment (see `src/bin/`), each printing the same rows
//! or series the paper reports. The library half provides:
//!
//! - [`report`] — ASCII tables/series and the argmax and geometric-mean
//!   helpers,
//! - [`prefetch_runs`] — single/multi-core prefetching runs and the
//!   Fig. 8/11 lineup report,
//! - [`smt_runs`] — SMT mixes under any PG controller,
//! - [`traces`] — the `--trace-dir` record/replay cache substituting
//!   recorded `.mabt` files for the workload generators,
//! - [`cli`] — the tiny argument parser shared by the binaries
//!   (`--instructions`, `--seed`, `--quick`, `--telemetry`, …),
//! - [`spec`] — the experiment registry and the shared [`spec::RunSpec`]
//!   sweep-spec type (defaults, digests, argv) used by the binaries and
//!   the `mab-serve` daemon,
//! - [`session`] — the telemetry recorder lifecycle (install, summarize,
//!   export) wrapped around every binary's run.
//!
//! Absolute numbers differ from the paper (synthetic workloads on a
//! simplified simulator — see `DESIGN.md`); the *shape* of each result is
//! what the binaries reproduce and what `EXPERIMENTS.md` records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod prefetch_runs;
pub mod report;
pub mod session;
pub mod smt_runs;
pub mod spec;
pub mod traces;
