//! `mab-ledger`: an append-only, content-addressed run ledger.
//!
//! Every experiment invocation (and every ingested `BENCH_*.json`
//! snapshot) becomes a [`RunRecord`] addressed by a digest over its
//! *identity* — experiment name, canonicalized config, code version — and
//! carrying its *outcome* (key metrics, the per-arm sweep log) and
//! *circumstances* (wall time, worker count, artifact paths). Records live
//! in CRC-framed JSONL segments under `results/ledger/` with a digest
//! index ([`store`]): a lookup reads the whole index, then only the
//! records it names, so it costs time linear in the ledger's size but
//! never parses the other records.
//!
//! Three properties make the ledger the substrate for cross-run tooling
//! (`mab-inspect history`/`trend`/`regress`); `mab-serve`'s result cache
//! keys its entries by the same digest:
//!
//! - **content addressing** — the digest ignores scheduling and timing, so
//!   "has this exact (experiment, config, code) run before?" is one index
//!   lookup;
//! - **idempotent re-records** — recording a run whose digest *and* outcome
//!   already exist is a no-op append, which determinism (see `mab-runner`)
//!   guarantees for honest reruns and which makes memoization sound;
//! - **corruption tolerance** — every line is CRC-framed; damaged or torn
//!   lines are skipped with warnings, never panics, so a shared
//!   append-only history degrades gracefully.
//!
//! Records are written and read with `mab-telemetry`'s JSON codec and
//! framed with its CRC32, the same two functions every other artifact in
//! the workspace uses; the ledger owns neither.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod record;
pub mod store;

/// The workspace's JSON codec, which lives in `mab-telemetry`; re-exported
/// for callers that still import it from here.
pub use mab_telemetry::json;

pub use bench::{file_metrics, ingest_bench_file};
pub use record::{code_version, config_digest, ArmRun, RunRecord};
pub use store::{Append, Ledger, ReadOutcome};
