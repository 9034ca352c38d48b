//! `mab-serve`: sweep-as-a-service for the Micro-Armed Bandit harness.
//!
//! A std-only HTTP/JSON daemon that accepts sweep submissions (an
//! experiment plus a config grid and seeds), executes them on a fixed set
//! of worker threads that pull arms round-robin across clients, and
//! memoizes every arm in a content-addressed result cache keyed by the run
//! ledger's `(experiment, canonical config, code version)` digest. Identical work
//! is never simulated twice: resubmissions hit the on-disk cache, and two
//! clients racing the same sweep share a single in-flight execution.
//!
//! The crate reuses the repo's existing planes rather than inventing new
//! ones:
//!
//! - HTTP + SSE come from `mab-monitor`'s dependency-free server core
//!   ([`mab_monitor::http`], [`mab_monitor::sse`]);
//! - cache keys are [`mab_ledger::config_digest`] — the exact address the
//!   append-only run ledger dedups on — so "cache hit" and "ledger
//!   duplicate" can never disagree;
//! - run identities resolve through [`mab_experiments::spec`], the same
//!   registry the experiment binaries parse their CLIs against, so a
//!   served artifact is byte-identical to the binary invoked by hand.
//!
//! Module map: [`job`] (submission model + grid expansion), [`cache`]
//! (CRC-checked content-addressed store), [`exec`] (subprocess arm
//! execution), [`state`] (scheduler, workers, persistence), [`api`]
//! (HTTP routes), [`signal`] (graceful-shutdown hooks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod exec;
pub mod job;
pub mod signal;
pub mod state;

pub use cache::Cache;
pub use exec::{BinaryExecutor, Executor};
pub use job::{parse_job, Arm, ArmStatus, Job, JobSpec};
pub use state::{ArtifactError, ServeConfig, ServeState, SubmitError};
