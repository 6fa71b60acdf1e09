//! # bt-swarm — a discrete-event BitTorrent swarm simulator
//!
//! A protocol-level reproduction of the C++ simulator the paper used to
//! validate its model (§4.1): peers arrive as a Poisson process, maintain
//! symmetric neighbor sets obtained from a tracker, exchange pieces under
//! strict tit-for-tat with rarest-first (or random-first) piece selection,
//! and depart the moment they complete. The number of pieces `B`, the
//! connection cap `k`, the neighbor-set size `s`, and the per-round piece
//! time are all configurable, as the paper requires.
//!
//! Extensions from the paper's later sections are built in:
//!
//! * *peer-set shaking* (§7.1) — at a configurable completion fraction a
//!   peer discards its entire neighbor set and refreshes from the tracker;
//! * *skewed initial replication* (§6) — the stability experiments start
//!   from a piece distribution concentrated on a few pieces;
//! * configurable bootstrap injection — the seed / optimistic-unchoke
//!   channel through which empty peers obtain their first piece.
//!
//! ## Quickstart
//!
//! ```
//! use bt_swarm::{Swarm, SwarmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SwarmConfig::builder()
//!     .pieces(30)
//!     .max_connections(4)
//!     .neighbor_set_size(10)
//!     .arrival_rate(1.0)
//!     .initial_leechers(15)
//!     .max_rounds(300)
//!     .seed(1)
//!     .build()?;
//! let metrics = Swarm::new(config).run();
//! println!("mean download: {} rounds", metrics.mean_download_rounds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod monitors;
mod obs;
pub mod peer;
pub mod piece;
pub mod replication;
pub mod scenario;
pub mod selection;
pub mod snapshot;
pub mod stages;
pub mod store;
pub mod telemetry;
pub mod tracker;

pub use audit::SwarmAudit;
pub use config::{BootstrapInjection, InitialPieces, PieceSelection, SwarmConfig};
pub use engine::{Swarm, SwarmCore};
pub use metrics::SwarmMetrics;
pub use monitors::{
    default_monitors, DoctorOptions, DoctorReport, EntropyCollapse, FaultKind, FaultSpec,
    MonitorSample, ObserverPhase, ObserverStall, PhaseMonotonic, PieceConservation,
    ReplicationOracle, SlotBalance, SwarmDoctor,
};
pub use replication::ReplicationIndex;
pub use stages::RoundStage;
pub use store::{PeerId, PeerStore};
pub use telemetry::{
    ObserverBoundaries, ObserverSample, PhaseDetector, PhaseEvent, TelemetryFormat,
    TelemetryOptions, TelemetryRecord, TelemetryRecorder,
};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The configuration failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidConfig(detail) => write!(f, "invalid swarm config: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
