//! # `mab-memsim` — trace-driven memory-hierarchy and core timing simulator
//!
//! A ChampSim-class substrate for the paper's prefetching use case:
//!
//! - [`cache`] — set-associative caches with LRU replacement, MSHR merging
//!   and per-line prefetch bookkeeping (timely/late/wrong classification,
//!   paper Fig. 9),
//! - [`dram`] — a bandwidth-constrained DRAM model whose throughput is set
//!   in megatransfers per second, enabling the Fig. 10 bandwidth sweep,
//! - [`core`] — an interval-style out-of-order core timing model (ROB
//!   window, fetch/commit width) that turns load latencies into IPC,
//! - [`system`] — single-core and multi-core wiring with a [`Prefetcher`]
//!   hook at the L2 (trained on L1 misses, filling into L2 and LLC, §6.1),
//! - [`config`] — the paper's Table 4 parameters plus the alternative
//!   hierarchy of Fig. 11.
//!
//! # Example
//!
//! ```
//! use mab_memsim::{config::SystemConfig, system::System};
//! use mab_workloads::suites;
//!
//! let app = suites::app_by_name("libquantum").unwrap();
//! let mut system = System::single_core(SystemConfig::default());
//! let stats = system.run(&mut app.trace(1), 100_000);
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod prefetcher;
pub mod system;

pub use config::{CacheParams, CoreParams, SystemConfig};
pub use prefetcher::{L2Access, NoPrefetcher, PrefetchQueue, Prefetcher};
pub use system::{RunStats, System};
