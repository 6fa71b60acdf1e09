//! # multiphase-bt
//!
//! A Rust reproduction of *"A Multiphased Approach for Modeling and
//! Analysis of the BitTorrent Protocol"* (ICDCS 2007): the three-phase
//! Markov model of a BitTorrent peer's download evolution, the
//! connection-class efficiency model, the entropy-based stability analysis,
//! and the full evaluation substrate (round-based swarm simulator and
//! instrumented-client trace toolkit).
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! * [`model`] (`bt-model`) — the paper's analytical models;
//! * [`swarm`] (`bt-swarm`) — the protocol-level swarm simulator;
//! * [`traces`] (`bt-traces`) — trace generation, I/O, and phase analysis;
//! * [`markov`] (`bt-markov`) — Markov-chain and distribution numerics,
//!   and the deterministic seed streams every experiment draws from.
//!
//! ## Quickstart
//!
//! ```
//! use multiphase_bt::model::{evolution::Walker, ModelParams};
//! use multiphase_bt::swarm::{Swarm, SwarmConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Analytical model: one sampled download trajectory.
//! let params = ModelParams::builder().pieces(40).build()?;
//! let trajectory = Walker::new(&params, StdRng::seed_from_u64(1)).run();
//! assert!(trajectory.completed());
//!
//! // Simulation: a small swarm.
//! let config = SwarmConfig::builder()
//!     .pieces(40)
//!     .arrival_rate(1.0)
//!     .initial_leechers(10)
//!     .max_rounds(200)
//!     .build()?;
//! let metrics = Swarm::new(config).run();
//! assert!(metrics.departures > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;

pub use bt_markov as markov;
pub use bt_model as model;
pub use bt_swarm as swarm;
pub use bt_traces as traces;
