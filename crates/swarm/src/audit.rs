//! Always-on conservation accounting for the monitor subsystem.
//!
//! [`SwarmAudit`] is a set of plain `u64` tallies the engine and every
//! round stage bump at their mutation sites: pieces granted and carried
//! away, connection endpoints opened and closed, bootstrap injections,
//! seed uploads, handouts, departures, shakes, samples. The tallies are
//! the ground truth the built-in monitors check the live state against —
//! piece conservation (`held == acquired − departed`) and slot balance
//! (`Σ degree == 2·(opened − closed)`) are pure identities over them.
//!
//! Unlike `SwarmObs` (atomic counters in the process-wide
//! registry, for reporting), the audit is a private field of the core
//! with zero synchronization: incrementing it costs one add, so it stays
//! on even when no monitors are attached, and it makes no RNG calls.

use serde::{Deserialize, Serialize};

/// Cumulative mutation tallies of one swarm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwarmAudit {
    /// Whole pieces granted to peers, from every source: initial
    /// endowments, bootstrap injections, seed uploads, exchanges.
    pub pieces_acquired: u64,
    /// Whole pieces carried away by departing peers.
    pub pieces_departed: u64,
    /// First pieces injected into empty peers by the bootstrap stage.
    pub bootstrap_injections: u64,
    /// Pieces uploaded by the origin seed.
    pub seed_uploads: u64,
    /// Connections opened (counted once per pair).
    pub conn_opened: u64,
    /// Connections closed (counted once per pair): pruning, exhausted
    /// novelty during exchange, departures, shakes.
    pub conn_closed: u64,
    /// Neighbor handout entries delivered by the maintenance stage.
    pub neighbor_handouts: u64,
    /// Peers that departed.
    pub departures: u64,
    /// Peers shaken (§7.1).
    pub shaken_peers: u64,
    /// Peer observations made by the sampling stage.
    pub metric_samples: u64,
}

impl SwarmAudit {
    /// Net pieces the audit says the swarm should currently hold.
    #[must_use]
    pub fn expected_held(&self) -> u64 {
        self.pieces_acquired.saturating_sub(self.pieces_departed)
    }

    /// Net open connections (pairs) the audit says should exist.
    #[must_use]
    pub fn expected_connections(&self) -> u64 {
        self.conn_opened.saturating_sub(self.conn_closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_over_tallies() {
        let audit = SwarmAudit {
            pieces_acquired: 10,
            pieces_departed: 3,
            conn_opened: 7,
            conn_closed: 2,
            ..SwarmAudit::default()
        };
        assert_eq!(audit.expected_held(), 7);
        assert_eq!(audit.expected_connections(), 5);
    }

    #[test]
    fn serializes_for_bundles() {
        let audit = SwarmAudit::default();
        let text = serde_json::to_string(&audit).unwrap();
        let back: SwarmAudit = serde_json::from_str(&text).unwrap();
        assert_eq!(back, audit);
    }
}
