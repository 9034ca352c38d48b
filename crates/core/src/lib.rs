//! # `mab-core` — the Micro-Armed Bandit agent
//!
//! This crate implements the primary contribution of the MICRO 2023 paper
//! *Micro-Armed Bandit: Lightweight & Reusable Reinforcement Learning for
//! Microarchitecture Decision-Making*: a tiny hardware Reinforcement-Learning
//! agent based on Multi-Armed Bandit (MAB) algorithms.
//!
//! The agent collapses the RL environment into a **single state** (exploiting
//! *temporal homogeneity in the action space*, §2.2 of the paper) so that it
//! only has to track, per arm `i`:
//!
//! - `r_i` — the average reward previous selections of arm `i` yielded, and
//! - `n_i` — the (possibly discounted) number of past selections of arm `i`.
//!
//! Three MAB algorithms are provided (paper Table 3):
//!
//! - [`algorithms::EpsilonGreedy`] — ε-Greedy,
//! - [`algorithms::Ucb`] — Upper Confidence Bound,
//! - [`algorithms::Ducb`] — Discounted UCB (the algorithm the paper ships),
//!
//! plus the two heuristic baselines evaluated in §7.1 ([`algorithms::Single`],
//! [`algorithms::Periodic`]) and a fixed-arm policy used to realize the
//! *Best Static* oracle.
//!
//! [`BanditAgent`] wires a policy into the general MAB template of the paper's
//! Algorithm 1 (initial round-robin phase, then the main loop) and adds the
//! two microarchitecture-specific modifications of §4.3:
//!
//! 1. **Reward normalization** — after the initial round-robin phase the
//!    average initial reward `r_avg` is computed and every reward (past and
//!    future) is divided by it, so that low-IPC and high-IPC workloads explore
//!    at comparable rates under a shared exploration constant `c`.
//! 2. **Probabilistic round-robin restart** — with a small probability the
//!    agent re-runs a forced round-robin pass (without resetting `r_i`/`n_i`)
//!    so that a core sharing memory bandwidth with other exploring cores can
//!    re-evaluate all arms in a calmer environment.
//!
//! # Example
//!
//! ```
//! use mab_core::{AlgorithmKind, BanditAgent, BanditConfig};
//!
//! let config = BanditConfig::builder(4)
//!     .algorithm(AlgorithmKind::Ducb { gamma: 0.99, c: 0.05 })
//!     .seed(7)
//!     .build()?;
//! let mut agent = BanditAgent::new(config);
//!
//! // Drive the agent: arm 1 pays the best.
//! for _ in 0..500 {
//!     let arm = agent.select_arm();
//!     let reward = [0.4, 1.0, 0.1, 0.6][arm.index()];
//!     agent.observe_reward(reward);
//! }
//! assert_eq!(agent.best_arm().index(), 1);
//! # Ok::<(), mab_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod algorithms;
pub mod arm;
pub mod cost;
pub mod error;
pub mod fixed;
pub mod reward;
pub mod tables;

pub use agent::{AgentPhase, BanditAgent, BanditConfig, BanditConfigBuilder};
pub use algorithms::{Algorithm, AlgorithmKind};
pub use arm::ArmId;
pub use error::ConfigError;
pub use reward::IpcMeter;
pub use tables::BanditTables;
