//! Peer state.

use std::collections::BTreeMap;

use crate::piece::Bitfield;

pub use crate::store::PeerId;

/// A leecher participating in the swarm.
///
/// Neighbor and connection sets are kept as ordered vectors (sizes are
/// small — at most `s` and `k`), the credit table as a vector sorted by
/// peer id, and the partial table as a `BTreeMap`, so every iteration
/// order is deterministic and seeded replay is exact.
#[derive(Debug, Clone)]
pub struct Peer {
    /// This peer's identifier.
    pub id: PeerId,
    /// Which pieces the peer holds.
    pub have: Bitfield,
    /// Round at which the peer joined.
    pub joined_round: u64,
    /// Current neighbor set (symmetric relation, capped at `s`).
    pub neighbors: Vec<PeerId>,
    /// Currently active connections (subset of `neighbors`, capped at `k`).
    pub connections: Vec<PeerId>,
    /// Pieces received from each neighbor, for tit-for-tat ranking:
    /// `(sender, pieces)` sorted by sender, one entry per sender; only
    /// [`Peer::record_credit`] writes it, which keeps that order.
    pub(crate) credit: Vec<(PeerId, u32)>,
    /// Round at which each piece was acquired (`u64::MAX` = not yet).
    pub piece_round: Vec<u64>,
    /// Blocks received of pieces still in flight (piece id → blocks done).
    pub partial: BTreeMap<u32, u32>,
    /// Whether the peer has already shaken its neighbor set (§7.1).
    pub shaken: bool,
    /// Whether this peer belongs to the slow bandwidth class
    /// (heterogeneous-bandwidth extension; false in the paper's setting).
    pub slow: bool,
}

impl Peer {
    /// Creates a peer with no pieces.
    #[must_use]
    pub fn new(id: PeerId, pieces: u32, joined_round: u64) -> Self {
        Peer {
            id,
            have: Bitfield::new(pieces),
            joined_round,
            neighbors: Vec::new(),
            connections: Vec::new(),
            credit: Vec::new(),
            piece_round: vec![u64::MAX; pieces as usize],
            partial: BTreeMap::new(),
            shaken: false,
            slow: false,
        }
    }

    /// Records acquisition of `piece` at `round`. Returns `true` if the
    /// piece was new.
    pub fn acquire(&mut self, piece: u32, round: u64) -> bool {
        if self.have.set(piece) {
            self.piece_round[piece as usize] = round;
            self.partial.remove(&piece);
            true
        } else {
            false
        }
    }

    /// Records one received block of `piece` at `round`. Completes the
    /// piece (and returns `true`) once `blocks_per_piece` blocks are in.
    /// Blocks of already-held pieces are ignored.
    pub fn receive_block(&mut self, piece: u32, blocks_per_piece: u32, round: u64) -> bool {
        if self.have.contains(piece) {
            return false;
        }
        let progress = self.partial.entry(piece).or_insert(0);
        *progress += 1;
        if *progress >= blocks_per_piece {
            self.acquire(piece, round)
        } else {
            false
        }
    }

    /// Total blocks received of in-flight (incomplete) pieces.
    #[must_use]
    pub fn partial_blocks(&self) -> u64 {
        self.partial.values().map(|&b| u64::from(b)).sum()
    }

    /// Whether `other` is currently a neighbor.
    #[must_use]
    pub fn is_neighbor(&self, other: PeerId) -> bool {
        self.neighbors.contains(&other)
    }

    /// Whether an active connection to `other` exists.
    #[must_use]
    pub fn is_connected(&self, other: PeerId) -> bool {
        self.connections.contains(&other)
    }

    /// Adds a neighbor if absent. Returns `true` on change.
    pub fn add_neighbor(&mut self, other: PeerId) -> bool {
        if other == self.id || self.is_neighbor(other) {
            return false;
        }
        self.neighbors.push(other);
        true
    }

    /// Removes a neighbor (and any connection to it). Returns `true` on
    /// change.
    pub fn remove_neighbor(&mut self, other: PeerId) -> bool {
        let before = self.neighbors.len();
        self.neighbors.retain(|&p| p != other);
        self.connections.retain(|&p| p != other);
        before != self.neighbors.len()
    }

    /// Tit-for-tat credit accrued from `other`.
    #[must_use]
    pub fn credit_for(&self, other: PeerId) -> u32 {
        self.credit
            .binary_search_by_key(&other, |&(id, _)| id)
            .map_or(0, |i| self.credit[i].1)
    }

    /// Records a piece received from `other`.
    pub fn record_credit(&mut self, other: PeerId) {
        match self.credit.binary_search_by_key(&other, |&(id, _)| id) {
            Ok(i) => self.credit[i].1 += 1,
            Err(i) => self.credit.insert(i, (other, 1)),
        }
    }

    /// Completion fraction `pieces held / B`.
    #[must_use]
    pub fn completion(&self) -> f64 {
        f64::from(self.have.count()) / f64::from(self.have.len())
    }

    /// Drops the entire neighbor set and all connections (§7.1 shake).
    pub fn shake(&mut self) {
        self.neighbors.clear();
        self.connections.clear();
        self.shaken = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_peer_is_empty() {
        let p = Peer::new(PeerId::synthetic(1), 10, 5);
        assert_eq!(p.have.count(), 0);
        assert_eq!(p.joined_round, 5);
        assert!(p.neighbors.is_empty());
        assert_eq!(p.completion(), 0.0);
    }

    #[test]
    fn acquire_records_round_once() {
        let mut p = Peer::new(PeerId::synthetic(1), 10, 0);
        assert!(p.acquire(3, 7));
        assert!(!p.acquire(3, 9));
        assert_eq!(p.piece_round[3], 7);
        assert_eq!(p.have.count(), 1);
    }

    #[test]
    fn neighbor_management() {
        let mut p = Peer::new(PeerId::synthetic(1), 5, 0);
        assert!(p.add_neighbor(PeerId::synthetic(2)));
        assert!(!p.add_neighbor(PeerId::synthetic(2)), "no duplicates");
        assert!(!p.add_neighbor(PeerId::synthetic(1)), "never own neighbor");
        assert!(p.is_neighbor(PeerId::synthetic(2)));
        p.connections.push(PeerId::synthetic(2));
        assert!(p.remove_neighbor(PeerId::synthetic(2)));
        assert!(!p.is_connected(PeerId::synthetic(2)), "connection dropped too");
        assert!(!p.remove_neighbor(PeerId::synthetic(2)));
    }

    #[test]
    fn credit_accrues() {
        let mut p = Peer::new(PeerId::synthetic(1), 5, 0);
        assert_eq!(p.credit_for(PeerId::synthetic(2)), 0);
        p.record_credit(PeerId::synthetic(2));
        p.record_credit(PeerId::synthetic(2));
        assert_eq!(p.credit_for(PeerId::synthetic(2)), 2);
    }

    proptest! {
        #[test]
        fn credit_matches_btreemap_oracle(
            steps in prop::collection::vec((0u64..24, prop::bool::ANY), 0..200),
        ) {
            let mut p = Peer::new(PeerId::synthetic(99), 5, 0);
            let mut oracle: BTreeMap<PeerId, u32> = BTreeMap::new();
            for (seq, record) in steps {
                let other = PeerId::synthetic(seq);
                if record {
                    p.record_credit(other);
                    *oracle.entry(other).or_insert(0) += 1;
                }
                prop_assert_eq!(p.credit_for(other), oracle.get(&other).copied().unwrap_or(0));
                let oracle_entries: Vec<(PeerId, u32)> =
                    oracle.iter().map(|(&id, &n)| (id, n)).collect();
                prop_assert_eq!(&p.credit, &oracle_entries);
            }
        }
    }

    #[test]
    fn completion_fraction() {
        let mut p = Peer::new(PeerId::synthetic(1), 4, 0);
        p.acquire(0, 0);
        p.acquire(1, 0);
        assert!((p.completion() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shake_clears_topology() {
        let mut p = Peer::new(PeerId::synthetic(1), 4, 0);
        p.add_neighbor(PeerId::synthetic(2));
        p.connections.push(PeerId::synthetic(2));
        p.shake();
        assert!(p.neighbors.is_empty());
        assert!(p.connections.is_empty());
        assert!(p.shaken);
    }

    #[test]
    fn peer_id_displays() {
        assert_eq!(PeerId::synthetic(7).to_string(), "peer#7");
    }
}
