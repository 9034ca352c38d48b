//! # mab-traces — on-disk trace format with record/replay
//!
//! A versioned binary container (`.mabt`) for the instruction streams the
//! Micro-Armed Bandit simulators consume, plus a lossless importer for
//! ChampSim's 64-byte record format. The point of the crate is twofold:
//!
//! 1. **Reproducibility** — a recorded file is a byte-exact prefix of the
//!    seeded generator stream, so replaying it through `memsim`/`smtsim`
//!    produces reports byte-identical to generator mode, and a trace file
//!    plus its header (seed + provenance) is a complete, self-describing
//!    experiment input.
//! 2. **Speed** — reading and decoding a record costs about as much as
//!    generating it, so replay pays off by sharing: a sweep decodes each
//!    trace once, and every configuration that replays it reads the
//!    decoded records from memory. `mab-perf`'s `trace_replay` workload
//!    and its `traces.*` metrics measure it.
//!
//! ## Container layout
//!
//! ```text
//! header   "MABT" version kind line_size block_len record_count seed provenance
//! blocks*  payload_len n_records payload crc32       (delta state resets per block)
//! ```
//!
//! Per-block CRC32 catches corruption; per-block delta-state reset makes
//! every block independently decodable. Files are read front to back and
//! end with their last block; the index footer that files from earlier
//! builds carry after it is never read.
//!
//! ## Typical use
//!
//! Record five million instructions of `mcf` and replay them:
//!
//! ```no_run
//! use mab_traces::{record_app_to_file, TraceReader};
//! use mab_workloads::suites;
//!
//! let app = suites::app_by_name("mcf").unwrap();
//! record_app_to_file(&app, 7, 5_000_000, "mcf-s7.mabt").unwrap();
//! let reader = TraceReader::open("mcf-s7.mabt").unwrap();
//! for record in reader.records() {
//!     // identical to app.trace(7).take(5_000_000)
//!     let _ = record.pc;
//! }
//! ```
//!
//! The `mab-trace` binary wraps the same APIs as a CLI (`record`, `info`,
//! `validate`, `stats`, `convert`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod champsim;
pub mod codec;
pub mod error;
pub mod format;
pub mod reader;
pub mod record;
pub mod stats;
pub mod writer;

pub use champsim::{convert, ChampSimDecoder, ChampSimInstr, CHAMPSIM_RECORD_BYTES};
pub use codec::{Codec, MemCodec, SmtCodec};
pub use error::{Result, TraceError};
pub use format::{PayloadKind, TraceMeta, FORMAT_VERSION};
pub use reader::{Reader, Records};
pub use record::{record_app_to_file, record_smt_to_file};
pub use writer::Writer;

/// Writer for memory traces ([`mab_workloads::TraceRecord`]).
pub type TraceWriter = Writer<MemCodec>;
/// Reader for memory traces ([`mab_workloads::TraceRecord`]).
pub type TraceReader = Reader<MemCodec>;
/// Writer for SMT instruction traces (`mab_workloads::smt::SmtInstr`).
pub type SmtTraceWriter = Writer<SmtCodec>;
/// Reader for SMT instruction traces (`mab_workloads::smt::SmtInstr`).
pub type SmtTraceReader = Reader<SmtCodec>;
