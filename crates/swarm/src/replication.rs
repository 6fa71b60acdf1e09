//! Incrementally maintained per-piece replication counts.
//!
//! The paper's stability analysis (§6) and the engine's rarest-first
//! machinery both consume the global replication vector `d(p)` — how
//! many alive peers hold each piece. The monolithic engine recomputed it
//! by rescanning every alive bitfield at four call sites per round
//! (bootstrap weighting, seed uploads, metrics sampling, snapshots),
//! an O(N·B) cost each time. [`ReplicationIndex`] instead folds the
//! three events that can change the vector into O(1)/O(B) updates:
//!
//! * a peer **acquires** a piece → that piece's count rises by one;
//! * a peer **arrives** holding pieces → each held piece rises by one;
//! * a peer **departs** → each piece it held falls by one.
//!
//! The from-scratch rebuild ([`selection::replication_counts`]) is kept
//! as the property-test oracle: after any interleaving of the three
//! events, the index must equal the rebuild exactly.
//!
//! [`selection::replication_counts`]: crate::selection::replication_counts

use crate::piece::Row;

/// Global per-piece replication counts, updated event-by-event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationIndex {
    counts: Vec<u64>,
}

impl ReplicationIndex {
    /// An all-zero index over `pieces` pieces.
    #[must_use]
    pub fn new(pieces: u32) -> Self {
        ReplicationIndex {
            counts: vec![0; pieces as usize],
        }
    }

    /// The replication vector `d(p)`, indexed by piece.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records that an alive peer acquired `piece` (by exchange, seed
    /// upload, bootstrap injection, or initial endowment).
    pub fn on_acquire(&mut self, piece: u32) {
        self.counts[piece as usize] += 1;
    }

    /// Records the departure of a peer that held `have` (its row of the
    /// possession table, read before its slot is freed). A count the
    /// departure would take below zero — a piece granted behind the
    /// index's back, as a seeded fault does — stays at zero, in debug
    /// and release builds alike; the doctor's `replication-oracle`
    /// monitor reports the drift.
    pub fn on_departure(&mut self, have: Row<'_>) {
        for piece in have.iter() {
            let count = &mut self.counts[piece as usize];
            *count = count.saturating_sub(1);
        }
    }

    /// Replication entropy `E = min d / max d` of the current counts
    /// (§6 of the paper).
    #[must_use]
    pub fn entropy(&self) -> f64 {
        bt_model::stability::entropy(&self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piece::Bitfield;

    fn bf(pieces: u32, held: &[u32]) -> Bitfield {
        let mut field = Bitfield::new(pieces);
        for &p in held {
            field.set(p);
        }
        field
    }

    #[test]
    fn events_accumulate() {
        let mut index = ReplicationIndex::new(4);
        index.on_acquire(0);
        index.on_acquire(2);
        index.on_acquire(2);
        index.on_acquire(3);
        assert_eq!(index.counts(), &[1, 0, 2, 1]);
        index.on_departure(bf(4, &[0, 2]).row());
        assert_eq!(index.counts(), &[0, 0, 1, 1]);
    }

    #[test]
    fn matches_oracle_on_simple_history() {
        let fields = [bf(8, &[0, 1, 2]), bf(8, &[2, 3]), bf(8, &[7])];
        let mut index = ReplicationIndex::new(8);
        for piece in fields.iter().flat_map(Bitfield::iter) {
            index.on_acquire(piece);
        }
        let oracle = crate::selection::replication_counts(8, fields.iter().map(Bitfield::row));
        assert_eq!(index.counts(), &oracle[..]);
    }

    #[test]
    fn entropy_of_uniform_counts_is_one() {
        let mut index = ReplicationIndex::new(3);
        for p in 0..3 {
            index.on_acquire(p);
        }
        assert!((index.entropy() - 1.0).abs() < 1e-12);
    }
}
