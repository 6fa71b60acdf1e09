//! Peer state.

use std::collections::BTreeMap;

pub use crate::store::PeerId;
pub(crate) use crate::store::PeerRef;

/// A leecher participating in the swarm.
///
/// Neighbor and connection sets are kept as ordered vectors (sizes are
/// small — at most `s` and `k`), the credit table as a vector sorted by
/// reference, and the partial table as a `BTreeMap`, so every iteration
/// order is deterministic and seeded replay is exact.
///
/// Which pieces a peer holds is not stored here: the peer store keeps
/// every peer's bitfield in one dense possession table
/// ([`PeerStore::pieces_of`](crate::store::PeerStore::pieces_of)), and
/// writes a piece there and into this peer's acquisition log together.
///
/// A peer's memory grows with what it holds. The three per-peer lists
/// hold 8-byte `PeerRef`s, not 16-byte [`PeerId`]s, so a credit entry
/// is 12 bytes. The engine reserves exactly `s` neighbor and `k`
/// connection slots when the peer joins and never pushes past either
/// cap, so neither list reallocates. The acquisition
/// log holds one `u32` round per piece held, in acquisition order; it is
/// the only record of when pieces arrived, and a completion record reads
/// it as is.
#[derive(Debug, Clone)]
pub struct Peer {
    /// This peer's identifier.
    pub id: PeerId,
    /// Round at which the peer joined.
    pub joined_round: u64,
    /// Current neighbor set (symmetric relation, capped at `s`).
    pub(crate) neighbors: Vec<PeerRef>,
    /// Currently active connections (subset of `neighbors`, capped at `k`).
    pub(crate) connections: Vec<PeerRef>,
    /// Pieces received from each neighbor, for tit-for-tat ranking:
    /// `(sender, pieces)` sorted by [`PeerRef::key`], one entry per
    /// sender; only [`Peer::record_credit`] writes it, which keeps that
    /// order. Entries of departed senders stay, and never match the
    /// newcomer in their slot.
    pub(crate) credit: Vec<(PeerRef, u32)>,
    /// Acquisition log: the round of each piece acquired, in
    /// acquisition order. Rounds never decrease, so the log is sorted;
    /// only [`Peer::log_acquisition`] writes it.
    pub(crate) acquired: Vec<u32>,
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
    pub fn new(id: PeerId, joined_round: u64) -> Self {
        Peer {
            id,
            joined_round,
            neighbors: Vec::new(),
            connections: Vec::new(),
            credit: Vec::new(),
            acquired: Vec::new(),
            partial: BTreeMap::new(),
            shaken: false,
            slow: false,
        }
    }

    /// Logs the acquisition of a new `piece` of a `pieces`-piece file
    /// at `round`, and drops its partial progress. The store calls this
    /// once it has set the piece's bit.
    ///
    /// The log grows by half its length at a time (at least four slots,
    /// where a `Vec` would double) and never past one slot per piece of
    /// the file.
    ///
    /// # Panics
    ///
    /// Panics if `round` exceeds `u32::MAX`, the acquisition log's
    /// limit. Stepped swarms ignore `max_rounds`, so no config check
    /// rules this out.
    pub(crate) fn log_acquisition(&mut self, piece: u32, round: u64, pieces: u32) {
        let round = u32::try_from(round).unwrap_or_else(|_| {
            panic!("round {round} exceeds the acquisition log's limit of u32::MAX rounds")
        });
        let logged = self.acquired.len();
        if logged == self.acquired.capacity() {
            let unlogged = (pieces as usize).saturating_sub(logged);
            self.acquired
                .reserve_exact((logged / 2).max(4).min(unlogged));
        }
        self.acquired.push(round);
        self.partial.remove(&piece);
    }

    /// The acquisition log: the round at which the peer got its 1st,
    /// 2nd, … piece, non-decreasing.
    #[must_use]
    pub fn acquisition_rounds(&self) -> &[u32] {
        &self.acquired
    }

    /// Whether `other` is currently a neighbor.
    pub(crate) fn is_neighbor(&self, other: PeerRef) -> bool {
        self.neighbors.contains(&other)
    }

    /// Whether an active connection to `other` exists.
    pub(crate) fn is_connected(&self, other: PeerRef) -> bool {
        self.connections.contains(&other)
    }

    /// Adds a neighbor if absent. Returns `true` on change. The engine
    /// links both sides at once (`SwarmCore::add_symmetric_neighbor`);
    /// this one-sided add serves the tests and the engine's oracle.
    #[cfg(test)]
    pub(crate) fn add_neighbor(&mut self, other: PeerRef) -> bool {
        if other == self.id.into() || self.is_neighbor(other) {
            return false;
        }
        self.neighbors.push(other);
        true
    }

    /// Removes a neighbor (and any connection to it). Returns `true` on
    /// change.
    pub(crate) fn remove_neighbor(&mut self, other: PeerRef) -> bool {
        let before = self.neighbors.len();
        self.neighbors.retain(|&p| p != other);
        self.connections.retain(|&p| p != other);
        before != self.neighbors.len()
    }

    /// Tit-for-tat credit accrued from `other`.
    pub(crate) fn credit_for(&self, other: PeerRef) -> u32 {
        self.credit
            .binary_search_by_key(&other.key(), |&(sender, _)| sender.key())
            .map_or(0, |i| self.credit[i].1)
    }

    /// Records a piece received from `other`.
    pub(crate) fn record_credit(&mut self, other: PeerRef) {
        match self
            .credit
            .binary_search_by_key(&other.key(), |&(sender, _)| sender.key())
        {
            Ok(i) => self.credit[i].1 += 1,
            Err(i) => self.credit.insert(i, (other, 1)),
        }
    }

    /// Drops the entire neighbor set and all connections (§7.1 shake).
    /// Both lists keep their reserved slots.
    pub fn shake(&mut self) {
        self.neighbors.clear();
        self.connections.clear();
        self.shaken = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PeerStore;
    use proptest::prelude::*;

    #[test]
    fn new_peer_is_empty() {
        let p = Peer::new(PeerId::synthetic(1), 5);
        assert_eq!(p.joined_round, 5);
        assert!(p.neighbors.is_empty());
        assert!(p.acquisition_rounds().is_empty());
    }

    #[test]
    fn logging_an_acquisition_drops_its_partial() {
        let mut p = Peer::new(PeerId::synthetic(1), 0);
        p.partial.insert(3, 2);
        p.log_acquisition(3, 7, 10);
        assert_eq!(p.acquisition_rounds(), &[7]);
        assert!(p.partial.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the acquisition log's limit")]
    fn a_round_past_u32_panics() {
        let mut p = Peer::new(PeerId::synthetic(1), 0);
        p.log_acquisition(0, u64::from(u32::MAX) + 1, 4);
    }

    /// `n` peers issued by a store: real ids whose references resolve,
    /// one slot each, so slot order is seq order.
    fn issued(n: usize) -> (PeerStore, Vec<PeerId>) {
        let mut store = PeerStore::new(5);
        let ids = (0..n)
            .map(|_| store.insert_with(|id| Peer::new(id, 0)))
            .collect();
        (store, ids)
    }

    #[test]
    fn neighbor_management() {
        let (_store, ids) = issued(2);
        let (me, other) = (ids[0], PeerRef::from(ids[1]));
        let mut p = Peer::new(me, 0);
        assert!(p.add_neighbor(other));
        assert!(!p.add_neighbor(other), "no duplicates");
        assert!(!p.add_neighbor(me.into()), "never own neighbor");
        assert!(p.is_neighbor(other));
        p.connections.push(other);
        assert!(p.remove_neighbor(other));
        assert!(!p.is_connected(other), "connection dropped too");
        assert!(!p.remove_neighbor(other));
    }

    #[test]
    fn credit_accrues() {
        let (_store, ids) = issued(2);
        let (mut p, other) = (Peer::new(ids[0], 0), PeerRef::from(ids[1]));
        assert_eq!(p.credit_for(other), 0);
        p.record_credit(other);
        p.record_credit(other);
        assert_eq!(p.credit_for(other), 2);
    }

    /// One step of the churned credit proptest: a join, a departure of
    /// an issued peer, or a piece credited to one (departed or not).
    #[derive(Debug, Clone, Copy)]
    enum CreditStep {
        Join,
        Depart(usize),
        Credit(usize),
    }

    /// Joins and departures each a quarter of the steps, credits half.
    fn credit_step() -> impl Strategy<Value = CreditStep> {
        (0u8..4, 0usize..64).prop_map(|(kind, i)| match kind {
            0 => CreditStep::Join,
            1 => CreditStep::Depart(i),
            _ => CreditStep::Credit(i),
        })
    }

    proptest! {
        #[test]
        fn credit_matches_btreemap_oracle(
            steps in prop::collection::vec((0u64..24, prop::bool::ANY), 0..200),
        ) {
            let (store, ids) = issued(24);
            let mut p = Peer::new(PeerId::synthetic(99), 0);
            let mut oracle: BTreeMap<PeerId, u32> = BTreeMap::new();
            for (seq, record) in steps {
                let other = ids[seq as usize];
                if record {
                    p.record_credit(other.into());
                    *oracle.entry(other).or_insert(0) += 1;
                }
                prop_assert_eq!(
                    p.credit_for(other.into()),
                    oracle.get(&other).copied().unwrap_or(0)
                );
                // No slot was reused, so the table's reference order is
                // the oracle's seq order.
                let entries: Vec<(PeerId, u32)> = p
                    .credit
                    .iter()
                    .map(|&(sender, n)| (store.peer_at(sender).id, n))
                    .collect();
                let oracle_entries: Vec<(PeerId, u32)> =
                    oracle.iter().map(|(&id, &n)| (id, n)).collect();
                prop_assert_eq!(&entries, &oracle_entries);
            }
        }

        #[test]
        fn credit_answers_by_seq_across_departures_and_slot_reuse(
            steps in prop::collection::vec(credit_step(), 0..200),
        ) {
            let (mut store, mut ids) = issued(4);
            let mut p = Peer::new(PeerId::synthetic(u64::MAX), 0);
            let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
            for step in steps {
                match step {
                    CreditStep::Join => ids.push(store.insert_with(|id| Peer::new(id, 0))),
                    CreditStep::Depart(i) => {
                        store.remove(ids[i % ids.len()]);
                    }
                    CreditStep::Credit(i) => {
                        let sender = ids[i % ids.len()];
                        p.record_credit(sender.into());
                        *oracle.entry(sender.seq()).or_insert(0) += 1;
                    }
                }
                // Every id ever issued, departed ones included: a stale
                // reference keeps its own count and never reads the
                // newcomer's in its slot, nor the newcomer its.
                for &id in &ids {
                    prop_assert_eq!(
                        p.credit_for(id.into()),
                        oracle.get(&id.seq()).copied().unwrap_or(0),
                        "{}", id
                    );
                }
            }
        }
    }

    #[test]
    fn shake_clears_topology() {
        let (_store, ids) = issued(2);
        let mut p = Peer::new(ids[0], 0);
        p.add_neighbor(ids[1].into());
        p.connections.push(ids[1].into());
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
