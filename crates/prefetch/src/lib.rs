//! # `mab-prefetch` — every prefetcher in the paper's evaluation
//!
//! Lightweight conventional prefetchers (the ones Bandit orchestrates, §5.2):
//!
//! - [`NextLine`] — next-line prefetcher (on/off),
//! - [`StreamPrefetcher`] — 64-tracker stream prefetcher with a programmable
//!   degree register,
//! - [`IpStride`] — 64-entry PC-indexed stride prefetcher with a
//!   programmable degree register.
//!
//! State-of-the-art comparators (§6.4):
//!
//! - [`Bingo`] — spatial footprint prefetcher,
//! - [`Mlop`] — multi-lookahead offset prefetcher,
//! - [`Pythia`] — MDP-RL (SARSA) prefetcher with a feature-hashed QVStore,
//! - [`Ipcp`] — instruction-pointer-classifier prefetcher (multi-level).
//!
//! And the paper's contribution applied to prefetching:
//!
//! - [`Composite`] — the NL + stream + stride ensemble with the 11 arms of
//!   Table 7 exposed as programmable registers,
//! - [`BanditL2`] — a [`mab_core::BanditAgent`] driving a [`Composite`] with
//!   IPC rewards on 1,000-L2-demand-access bandit steps, including the
//!   conservative 500-cycle arm-selection latency of §5.4.
//!
//! # Example
//!
//! ```
//! use mab_memsim::{config::SystemConfig, system::System};
//! use mab_prefetch::BanditL2;
//! use mab_workloads::suites;
//!
//! let mut sys = System::single_core(SystemConfig::default());
//! sys.set_prefetcher(0, Box::new(BanditL2::paper_default(7)));
//! let app = suites::app_by_name("libquantum").unwrap();
//! let stats = sys.run(&mut app.trace(7), 200_000);
//! assert!(stats.prefetch.issued > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandit_l2;
pub mod bingo;
pub mod catalog;
pub mod composite;
pub mod ip_stride;
pub mod ipcp;
mod linemap;
pub mod mlop;
pub mod nextline;
pub mod pythia;
pub mod shared;
pub mod stream;

pub use bandit_l2::BanditL2;
pub use bingo::Bingo;
pub use composite::{Arm, Composite, PAPER_ARMS};
pub use ip_stride::IpStride;
pub use ipcp::Ipcp;
pub use mlop::Mlop;
pub use nextline::NextLine;
pub use pythia::Pythia;
pub use stream::StreamPrefetcher;
