//! `mab-inspect`: offline analysis of Micro-Armed Bandit run artifacts.
//!
//! Experiment binaries write two kinds of JSONL artifacts — the telemetry
//! export (`--telemetry`: counters, histograms, events) and the decision
//! trace (`--trace`: full per-decision provenance). This crate parses them
//! back ([`artifact`]), runs post-hoc analyses ([`analysis`]: regret against
//! the post-hoc best arm, arm-switch timelines, phase/windowed occupancy),
//! compares runs for regressions ([`diff`]), and renders the `mab-inspect`
//! CLI's `report` output ([`report`]). The one live surface is [`watch`],
//! which tails a `--monitor` endpoint served by `mab-monitor`.
//!
//! # Example
//!
//! ```
//! use mab_inspect::artifact::RunArtifact;
//! use mab_inspect::analysis;
//!
//! let mut run = RunArtifact::new();
//! run.absorb_line(
//!     "{\"kind\":\"decision\",\"seq\":0,\"agent\":1,\"epoch\":0,\"cycle\":0,\
//!      \"arm\":0,\"explore\":true,\"phase\":\"round_robin\",\"reward\":1.5,\
//!      \"normalized\":0.9,\"q\":[0,0],\"bound\":[0,0],\"pulls\":[0,0]}",
//! );
//! let best = analysis::best_arm(&run.decisions, run.arm_count()).unwrap();
//! assert_eq!(best.arm, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod artifact;
pub mod diff;
pub mod history;
pub mod postmortem;
pub mod report;
pub mod watch;
