//! # bt-traces — instrumented-client trace toolkit
//!
//! The paper validated its model against logs collected by a modified
//! BitTornado client injected into live swarms (§4.2). Live swarms are not
//! available in this environment, so this crate reproduces the *pipeline*
//! end to end and substitutes the data source:
//!
//! * [`record`] — the trace schema: timestamped cumulative bytes and
//!   potential-set size per sample, exactly the two series Fig. 2 plots;
//! * [`io`] — JSON-lines serialization (write/read round-trip);
//! * [`generator`] — synthetic traces from an instrumented observer peer
//!   inside a [`bt_swarm`] swarm, with sub-piece measurement jitter, and
//!   scenario presets that produce the paper's three archetypes (smooth,
//!   significant last phase, significant bootstrap phase);
//! * [`swarm_stats`] — synthetic hourly tracker statistics and the
//!   stable-swarm screening the paper performed by hand;
//! * [`stats`] — collection-level summaries (completion rates, duration
//!   CDFs, per-phase time shares);
//! * [`analyzer`] — phase segmentation of a trace into
//!   bootstrap / efficient / last-download phases.
//!
//! The substitution preserves what matters: the paper's claim is the
//! *qualitative phase structure* of per-client download logs, the swarm
//! simulator is this workspace's ground truth for that structure, and the
//! analyzer sees only the logged series — the same view a real measurement
//! pipeline had.
//!
//! ## Quickstart
//!
//! ```
//! use bt_traces::generator::{generate, TraceScenario};
//! use bt_traces::analyzer::segment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let traces = generate(TraceScenario::Smooth, 4, 42)?;
//! assert!(!traces.is_empty());
//! let phases = segment(&traces[0]);
//! assert!(phases.total_samples > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyzer;
pub mod generator;
pub mod io;
pub mod record;
pub mod stats;
pub mod swarm_stats;

pub use analyzer::{segment, PhaseSummary};
pub use record::{Trace, TraceSample};

/// Errors produced by this crate.
#[derive(Debug)]
pub enum Error {
    /// Underlying swarm configuration failed.
    Swarm(bt_swarm::Error),
    /// Serialization or deserialization failed.
    Serde(serde_json::Error),
    /// File I/O failed.
    Io(std::io::Error),
    /// A trace violated schema expectations.
    InvalidTrace(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Swarm(e) => write!(f, "swarm error: {e}"),
            Error::Serde(e) => write!(f, "JSON error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::InvalidTrace(detail) => write!(f, "invalid trace: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Swarm(e) => Some(e),
            Error::Serde(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::InvalidTrace(_) => None,
        }
    }
}

impl From<bt_swarm::Error> for Error {
    fn from(e: bt_swarm::Error) -> Self {
        Error::Swarm(e)
    }
}

impl From<serde_json::Error> for Error {
    fn from(e: serde_json::Error) -> Self {
        Error::Serde(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
