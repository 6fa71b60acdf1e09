//! # bt-des — deterministic discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) kernel used as the
//! substrate for the BitTorrent swarm simulator of this workspace. The design
//! follows the classic event-list architecture: a monotone simulation clock
//! ([`SimTime`]), a priority queue of scheduled events ([`EventQueue`]), and a
//! driver ([`Simulator`]) that pops events in timestamp order and hands them
//! to a user-supplied handler.
//!
//! Determinism is a first-class requirement — the experiments in this
//! workspace must be exactly reproducible from a seed. Two mechanisms
//! guarantee it:
//!
//! * ties in event timestamps are broken by a monotonically increasing
//!   sequence number, so the pop order is a pure function of the push order;
//! * all randomness flows through [`rng::SeedStream`], which derives
//!   independent, stable substreams from a single experiment seed.
//!
//! # Example
//!
//! ```
//! use bt_des::{Duration, SimTime, Simulator};
//!
//! // A counter that re-schedules itself three times.
//! let mut sim = Simulator::new();
//! sim.schedule(SimTime::ZERO, 0u32);
//! let mut fired = Vec::new();
//! sim.run(|sim, time, tick| {
//!     fired.push((time, tick));
//!     if tick < 2 {
//!         sim.schedule_in(Duration::from_secs(1.0), tick + 1);
//!     }
//! });
//! assert_eq!(fired.len(), 3);
//! assert_eq!(fired[2].0, SimTime::from_secs(2.0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use rng::SeedStream;
pub use sim::{Simulator, StopReason};
pub use time::{Duration, SimTime};
