//! # bt-des — deterministic seed streams and histograms
//!
//! The randomness and measurement substrate of this workspace's
//! experiments, which must be exactly reproducible from a seed:
//!
//! * [`rng::SeedStream`] derives independent, stable RNG substreams from
//!   a single experiment seed, so adding a consumer of randomness in one
//!   component does not perturb the draws seen by another;
//! * [`stats::Histogram`] bins observations into fixed-width buckets
//!   (the swarm snapshot's piece-count distribution).
//!
//! # Example
//!
//! ```
//! use bt_des::SeedStream;
//! use rand::Rng;
//!
//! let mut a = SeedStream::new(7).rng("arrivals", 0);
//! let mut b = SeedStream::new(7).rng("arrivals", 0);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod rng;
pub mod stats;

pub use rng::SeedStream;
