//! # `mab-workloads` — synthetic workload generation
//!
//! The paper evaluates on proprietary-format traces (DPC-3/CRC-2 SPEC traces,
//! Pythia's PARSEC/Ligra traces, SPEC17 SimPoints). Those artifacts are not
//! redistributable, so this crate provides **synthetic workload generators**
//! that reproduce the *properties the evaluation depends on*:
//!
//! - spatially regular vs irregular access (stride/stream vs pointer-chase),
//! - recurring spatial footprints (what Bingo learns),
//! - consistent per-PC strides (what the IP-stride prefetcher learns),
//! - program **phase changes** (what DUCB adapts to, paper Fig. 7),
//! - footprints larger/smaller than each cache level,
//! - SMT threads with asymmetric pressure on shared pipeline structures
//!   (e.g. the `lbm`-like store-queue hog of §3.3).
//!
//! Applications are named after the benchmark they imitate (`mcf-like`
//! becomes [`apps`]' `"mcf"`) and grouped into the paper's five suites.
//! Every generator is an `Iterator` that lazily produces instructions, so
//! billion-scale traces never materialize in memory, and every generator is
//! seeded for reproducibility.
//!
//! # Example
//!
//! ```
//! use mab_workloads::suites::{self, Suite};
//!
//! let spec06 = suites::suite(Suite::Spec06Like);
//! let app = &spec06[0];
//! let first: Vec<_> = app.trace(7).take(1000).collect();
//! assert_eq!(first.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
mod draw;
pub mod patterns;
pub mod smt;
pub mod suites;
pub mod trace;

pub use apps::{AppSpec, PhaseSpec};
pub use suites::Suite;
pub use trace::{MemKind, TraceGen, TraceRecord};
