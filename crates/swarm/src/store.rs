//! Generational peer storage.
//!
//! [`PeerStore`] is a slab with a free-list: departed peers leave holes
//! that later arrivals fill, so the backing vector stays dense no matter
//! how much churn the swarm sees. Every slot carries a *generation*
//! counter that is bumped on removal, and every reference into the slab
//! carries the generation it was issued under — a reference held across
//! a departure stops resolving instead of silently aliasing whichever
//! newcomer inherited the slot. Stale-reference bugs thereby become
//! `None` at the access site rather than corrupted simulation state.
//!
//! **Identity is `seq`; routing is `PeerRef`.** A [`PeerId`] is the
//! peer's identity: identity, ordering, hashing, display, and
//! serialization use only its *sequence number* — the arrival index the
//! tracker hands out, unique for the whole run. Everything the engine
//! sorts, samples, or serializes (connection pairs, tit-for-tat ties,
//! tracker exclusions, observer windows, telemetry) orders by `seq`, so
//! the run behaves exactly as if ids were plain arrival numbers,
//! regardless of which slot a peer happens to occupy.
//!
//! A `PeerRef` is the 8-byte route a peer's own lists hold (neighbors,
//! connections, tit-for-tat credit, the exchange plan's pairs): the slot
//! and generation alone, half a `PeerId`. It resolves with the same
//! generation check, and it has no order of its own worth sorting by:
//! code that needs the arrival order resolves the reference and reads
//! `seq` from the peer it has just looked up, or, when it needs only the
//! id, reads it from the store's dense slot-indexed id table.
//!
//! **Possession is a dense table.** The store keeps every peer's
//! bitfield in one slot-indexed table of `⌈B/64⌉` words per slot,
//! zeroed whenever a slot is issued; the peer itself holds no copy. A
//! neighbor's pieces are read as a [`Row`] of that table, checked for
//! liveness against the id table, so a stage that only needs what a
//! neighbor holds never reaches its slot. Every write goes through the
//! store, whose `acquire` and `receive_block` set the bit and log the
//! acquisition together.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::peer::Peer;
use crate::piece::{row_words, set_piece, PieceId, Row};

/// Identifier of a peer: an arrival sequence number plus the slot and
/// generation that make it resolvable in a [`PeerStore`].
///
/// Two ids are equal exactly when their sequence numbers are equal;
/// ordering and hashing follow suit. Serialization emits only the
/// sequence number, so on-disk formats are identical to a plain integer
/// id.
#[derive(Debug, Clone, Copy)]
pub struct PeerId {
    seq: u64,
    slot: u32,
    generation: u32,
}

impl PeerId {
    /// Sentinel slot/generation for ids that were never issued by a
    /// store (deserialized or test-constructed). They compare and
    /// display normally but never resolve.
    const DETACHED: u32 = u32::MAX;

    /// Builds a detached id carrying only a sequence number — for
    /// tests, tools, and deserialization. It participates in equality,
    /// ordering, and display like any other id, but no store will
    /// resolve it.
    #[must_use]
    pub const fn synthetic(seq: u64) -> Self {
        PeerId {
            seq,
            slot: Self::DETACHED,
            generation: Self::DETACHED,
        }
    }

    /// The run-unique arrival sequence number.
    #[must_use]
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl From<PeerId> for PeerRef {
    fn from(id: PeerId) -> Self {
        PeerRef {
            slot: id.slot,
            generation: id.generation,
        }
    }
}

/// An 8-byte route to a stored peer: the slot and the generation it was
/// issued under, without the sequence number.
///
/// Two references are equal exactly when they route to the same slot
/// under the same generation, which for live peers is the same peer. A
/// reference to a departed peer never equals one to the newcomer in its
/// slot (the generations differ), and it stops resolving. Synthetic ids
/// all map to one detached reference that never resolves.
///
/// [`key`](Self::key) orders references by slot, not by arrival: it
/// serves lookup tables keyed by reference (the tit-for-tat credit
/// table), never an order the run can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PeerRef {
    slot: u32,
    generation: u32,
}

impl PeerRef {
    /// The slab slot this reference routes to.
    pub(crate) const fn slot(self) -> u32 {
        self.slot
    }

    /// A search key unique per `(slot, generation)`, for tables kept
    /// sorted by reference.
    pub(crate) const fn key(self) -> u64 {
        (self.slot as u64) << 32 | self.generation as u64
    }
}

impl PartialEq for PeerId {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for PeerId {}

impl PartialOrd for PeerId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PeerId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

impl std::hash::Hash for PeerId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seq.hash(state);
    }
}

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer#{}", self.seq)
    }
}

impl Serialize for PeerId {
    fn to_value(&self) -> Value {
        self.seq.to_value()
    }
}

impl Deserialize for PeerId {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        u64::from_value(value).map(PeerId::synthetic)
    }
}

/// One slab slot: a generation counter plus the peer currently housed
/// there, if any.
#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    peer: Option<Peer>,
}

/// Generational slab of peers, with their possession table beside it.
///
/// Insertion reuses freed slots (LIFO), lookup checks the generation,
/// and removal bumps it. Iteration over occupied slots is dense:
/// `capacity()` tracks the high-water population, not total arrivals.
#[derive(Debug)]
pub struct PeerStore {
    slots: Vec<Slot>,
    /// The id issued for each slot's latest occupant, by slot, with the
    /// slot's current generation: a dense copy of the identities, so
    /// reading a neighbor's `seq` ([`id_at`](Self::id_at)) touches 16
    /// bytes, not the peer. Removal bumps the generation here too.
    ids: Vec<PeerId>,
    /// The possession table: `width` words per slot, slot `i`'s row at
    /// `i * width`. The only record of which pieces a peer holds; a
    /// slot's row is zeroed when the slot is issued.
    have: Vec<u64>,
    /// Pieces in the file (`B`).
    pieces: u32,
    /// Words per row, `⌈B/64⌉`.
    width: usize,
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    /// Lifetime count of slab lookups ([`get`](Self::get) /
    /// [`get_mut`](Self::get_mut)), for cost-attribution profiling;
    /// reads of the id table ([`id_at`](Self::id_at)) reach no slot and
    /// are not counted. An atomic (relaxed) so read paths stay `&self`
    /// and the store stays `Sync` for sharded execution; wraps on
    /// overflow — consumers diff consecutive readings, so only deltas
    /// are meaningful. Counted by one thread at a time
    /// ([`add_probes`](Self::add_probes)).
    probes: std::sync::atomic::AtomicU64,
}

impl Clone for PeerStore {
    fn clone(&self) -> Self {
        PeerStore {
            slots: self.slots.clone(),
            ids: self.ids.clone(),
            have: self.have.clone(),
            pieces: self.pieces,
            width: self.width,
            free: self.free.clone(),
            next_seq: self.next_seq,
            len: self.len,
            probes: std::sync::atomic::AtomicU64::new(self.probe_count()),
        }
    }
}

impl PeerStore {
    /// Creates an empty store for a file of `pieces` pieces.
    #[must_use]
    pub fn new(pieces: u32) -> Self {
        PeerStore {
            slots: Vec::new(),
            ids: Vec::new(),
            have: Vec::new(),
            pieces,
            width: row_words(pieces),
            free: Vec::new(),
            next_seq: 0,
            len: 0,
            probes: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of peers currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated — the bound on `PeerId::slot`
    /// values in circulation, useful for sizing slot-indexed scratch
    /// tables.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocates an id (fresh sequence number, first free slot) and
    /// stores the peer `f` builds for it, holding no pieces: the slot's
    /// possession row is zeroed, whatever its last occupant held.
    pub fn insert_with(&mut self, f: impl FnOnce(PeerId) -> Peer) -> PeerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.row_mut(slot).fill(0);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                assert!(slot < PeerId::DETACHED, "peer store slot space exhausted");
                self.slots.push(Slot {
                    generation: 0,
                    peer: None,
                });
                self.have.resize(self.have.len() + self.width, 0);
                slot
            }
        };
        let id = PeerId {
            seq: self.next_seq,
            slot,
            generation: self.slots[slot as usize].generation,
        };
        match self.ids.get_mut(slot as usize) {
            Some(entry) => *entry = id,
            None => self.ids.push(id),
        }
        self.next_seq += 1;
        self.slots[slot as usize].peer = Some(f(id));
        self.len += 1;
        id
    }

    /// Resolves `id`, returning `None` for departed, stale, or
    /// synthetic ids.
    #[must_use]
    pub fn get(&self, id: PeerId) -> Option<&Peer> {
        self.at(id.into())
    }

    /// Resolves a reference, returning `None` once its peer departed
    /// (or for the detached reference of a synthetic id).
    pub(crate) fn at(&self, r: PeerRef) -> Option<&Peer> {
        self.add_probes(1);
        self.lookup(r)
    }

    /// [`at`](Self::at) without the probe count, for lookups made on
    /// several threads at once: the count is a load and a store, so
    /// concurrent counting would lose increments. Sharded code counts
    /// its lookups in a local and passes the total to
    /// [`add_probes`](Self::add_probes) after the join.
    pub(crate) fn lookup(&self, r: PeerRef) -> Option<&Peer> {
        let slot = self.slots.get(r.slot as usize)?;
        if slot.generation != r.generation {
            return None;
        }
        slot.peer.as_ref()
    }

    /// Adds `n` slab lookups to the probe count.
    ///
    /// A relaxed load and store, not a locked read-modify-write: the
    /// count publishes no other data, and only one thread counts at a
    /// time (parallel shards look up through [`lookup`](Self::lookup)).
    pub(crate) fn add_probes(&self, n: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.probes
            .store(self.probes.load(Relaxed).wrapping_add(n), Relaxed);
    }

    /// Mutable variant of [`get`](Self::get).
    #[must_use]
    pub fn get_mut(&mut self, id: PeerId) -> Option<&mut Peer> {
        self.at_mut(id.into())
    }

    /// Mutable variant of [`at`](Self::at).
    pub(crate) fn at_mut(&mut self, r: PeerRef) -> Option<&mut Peer> {
        let probes = self.probes.get_mut();
        *probes = probes.wrapping_add(1);
        let slot = self.slots.get_mut(r.slot as usize)?;
        if slot.generation != r.generation {
            return None;
        }
        slot.peer.as_mut()
    }

    /// Resolves an id that is known to be alive.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed or the id is stale/synthetic — the
    /// engine treats that as a topology-bookkeeping bug, not a
    /// recoverable condition.
    #[must_use]
    pub fn peer(&self, id: PeerId) -> &Peer {
        self.peer_at(id.into())
    }

    /// Mutable variant of [`peer`](Self::peer).
    ///
    /// # Panics
    ///
    /// Panics if the peer departed or the id is stale/synthetic.
    #[must_use]
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        self.peer_at_mut(id.into())
    }

    /// Resolves a reference that is known to be alive.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed, like [`peer`](Self::peer).
    pub(crate) fn peer_at(&self, r: PeerRef) -> &Peer {
        self.at(r).expect("peer departed but was referenced")
    }

    /// Mutable variant of [`peer_at`](Self::peer_at).
    ///
    /// # Panics
    ///
    /// Panics if the peer departed.
    pub(crate) fn peer_at_mut(&mut self, r: PeerRef) -> &mut Peer {
        self.at_mut(r).expect("peer departed but was referenced")
    }

    /// The id of the live peer `r` routes to, read from the dense id
    /// table. This is not a slab lookup and does not count as a probe:
    /// [`probe_count`](Self::probe_count) counts only the lookups that
    /// reach a slot.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed, like [`peer_at`](Self::peer_at).
    #[inline]
    pub(crate) fn id_at(&self, r: PeerRef) -> PeerId {
        self.ids
            .get(r.slot as usize)
            .copied()
            .filter(|&id| PeerRef::from(id) == r)
            .expect("peer departed but was referenced")
    }

    /// The pieces the live peer `r` routes to holds: its row of the
    /// possession table, or `None` once it departed. Liveness is read
    /// from the id table, so this touches no slot and is not a probe.
    #[inline]
    pub(crate) fn have_at(&self, r: PeerRef) -> Option<Row<'_>> {
        let slot = r.slot as usize;
        let id = self.ids.get(slot)?;
        (PeerRef::from(*id) == r).then(|| self.row(r.slot))
    }

    /// The possession row of a peer known to be alive.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed, like [`peer_at`](Self::peer_at).
    #[inline]
    pub(crate) fn have(&self, r: PeerRef) -> Row<'_> {
        self.have_at(r).expect("peer departed but was referenced")
    }

    /// The possession row of an alive peer, by id.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed or the id is stale/synthetic.
    #[must_use]
    pub fn pieces_of(&self, id: PeerId) -> Row<'_> {
        self.have(id.into())
    }

    /// Slot `slot`'s row, whoever holds the slot.
    #[inline]
    fn row(&self, slot: u32) -> Row<'_> {
        let at = slot as usize * self.width;
        Row::new(&self.have[at..at + self.width], self.pieces)
    }

    /// Mutable words of slot `slot`'s row.
    #[inline]
    fn row_mut(&mut self, slot: u32) -> &mut [u64] {
        let at = slot as usize * self.width;
        &mut self.have[at..at + self.width]
    }

    /// Records that the live peer `r` acquired `piece` at `round`: sets
    /// its bit and appends the round to the peer's acquisition log.
    /// Returns `true` if the piece was new.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed, or if `round` exceeds `u32::MAX`,
    /// the acquisition log's limit.
    pub(crate) fn acquire(&mut self, r: PeerRef, piece: PieceId, round: u64) -> bool {
        if !self.set_unlogged(r, piece) {
            return false;
        }
        let pieces = self.pieces;
        self.peer_at_mut(r).log_acquisition(piece, round, pieces);
        true
    }

    /// Delivers one block of `piece` to the live peer `r` at `round`.
    /// Completes the piece ([`acquire`](Self::acquire), and returns
    /// `true`) once `blocks_per_piece` blocks are in. Blocks of pieces
    /// already held are ignored. A one-block piece is complete on
    /// arrival and never enters the partial table.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed.
    pub(crate) fn receive_block(
        &mut self,
        r: PeerRef,
        piece: PieceId,
        blocks_per_piece: u32,
        round: u64,
    ) -> bool {
        if self.have(r).contains(piece) {
            return false;
        }
        if blocks_per_piece > 1 {
            let progress = self.peer_at_mut(r).partial.entry(piece).or_insert(0);
            *progress += 1;
            if *progress < blocks_per_piece {
                return false;
            }
        }
        self.acquire(r, piece, round)
    }

    /// Sets `piece` in the live peer `r`'s row without logging it. Only
    /// [`acquire`](Self::acquire), which logs right after, and the seeded
    /// unaccounted-piece fault, which deliberately bypasses every
    /// accounting path, call it. Returns `true` if the bit was new.
    ///
    /// # Panics
    ///
    /// Panics if the peer departed.
    pub(crate) fn set_unlogged(&mut self, r: PeerRef, piece: PieceId) -> bool {
        assert!(
            self.have_at(r).is_some(),
            "peer departed but was referenced"
        );
        let pieces = self.pieces;
        set_piece(self.row_mut(r.slot), pieces, piece)
    }

    /// Whether `id` resolves to a live peer.
    #[must_use]
    pub fn contains(&self, id: PeerId) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns the peer behind `id`, bumping the slot's
    /// generation so the id (and any copies of it) stop resolving.
    /// Returns `None` if the id is already dead.
    pub fn remove(&mut self, id: PeerId) -> Option<Peer> {
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let peer = slot.peer.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.ids[id.slot as usize].generation = slot.generation;
        self.free.push(id.slot);
        self.len -= 1;
        Some(peer)
    }

    /// Lifetime number of slab lookups performed through
    /// [`get`](Self::get) / [`get_mut`](Self::get_mut) (and everything
    /// built on them). Wraps on overflow; diff consecutive readings to
    /// attribute probes to a code region.
    #[must_use]
    pub fn probe_count(&self) -> u64 {
        self.probes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Iterates over live peers in slot order.
    ///
    /// Slot order is *not* arrival order once churn has recycled slots;
    /// engine code that needs deterministic arrival order iterates the
    /// tracker's list instead.
    pub fn iter(&self) -> impl Iterator<Item = &Peer> {
        self.slots.iter().filter_map(|slot| slot.peer.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::piece::Bitfield;
    use proptest::prelude::*;

    fn store_with(n: usize) -> (PeerStore, Vec<PeerId>) {
        let mut store = PeerStore::new(4);
        let ids = (0..n)
            .map(|_| store.insert_with(|id| Peer::new(id, 0)))
            .collect();
        (store, ids)
    }

    #[test]
    fn references_are_half_an_id() {
        assert_eq!(std::mem::size_of::<PeerId>(), 16);
        assert_eq!(std::mem::size_of::<PeerRef>(), 8);
        assert_eq!(
            std::mem::size_of::<(PeerRef, u32)>(),
            12,
            "a credit entry has no padding"
        );
    }

    #[test]
    fn stale_reference_never_aliases_the_newcomer() {
        let (mut store, ids) = store_with(2);
        let stale = PeerRef::from(ids[0]);
        store.remove(ids[0]).expect("alive");
        let newcomer = store.insert_with(|id| Peer::new(id, 5));
        assert_eq!(
            PeerRef::from(newcomer).slot(),
            stale.slot(),
            "slot was recycled"
        );
        assert_ne!(PeerRef::from(newcomer), stale);
        assert_ne!(PeerRef::from(newcomer).key(), stale.key());
        assert!(
            store.at(stale).is_none(),
            "stale reference must not resolve"
        );
        assert_eq!(store.peer_at(newcomer.into()).id, newcomer);
        assert!(store.at(PeerId::synthetic(0).into()).is_none());
    }

    #[test]
    fn sequence_numbers_are_run_unique() {
        let (mut store, ids) = store_with(3);
        assert_eq!(ids[0].seq(), 0);
        assert_eq!(ids[2].seq(), 2);
        store.remove(ids[1]).expect("alive");
        let replacement = store.insert_with(|id| Peer::new(id, 1));
        assert_eq!(replacement.seq(), 3, "seq never reused");
        assert_eq!(
            PeerRef::from(replacement).slot(),
            PeerRef::from(ids[1]).slot(),
            "slot reused"
        );
    }

    #[test]
    fn freed_slot_reuse_rejects_stale_id() {
        let (mut store, ids) = store_with(2);
        let stale = ids[0];
        store.remove(stale).expect("alive");
        let replacement = store.insert_with(|id| Peer::new(id, 5));
        assert_eq!(
            PeerRef::from(replacement).slot(),
            PeerRef::from(stale).slot(),
            "slot was recycled"
        );
        assert!(store.get(stale).is_none(), "stale id must not resolve");
        assert!(!store.contains(stale));
        assert!(store.remove(stale).is_none(), "stale remove is a no-op");
        assert_eq!(
            store.peer(replacement).joined_round,
            5,
            "new occupant resolves under its own id"
        );
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn double_remove_only_counts_once() {
        let (mut store, ids) = store_with(1);
        assert!(store.remove(ids[0]).is_some());
        assert!(store.remove(ids[0]).is_none());
        assert!(store.is_empty());
        assert_eq!(store.capacity(), 1);
    }

    #[test]
    fn synthetic_ids_never_resolve() {
        let (store, ids) = store_with(1);
        let ghost = PeerId::synthetic(ids[0].seq());
        assert_eq!(ghost, ids[0], "equality is by sequence number");
        assert!(store.get(ghost).is_none(), "but it does not resolve");
    }

    #[test]
    fn identity_ignores_slot_and_generation() {
        let (mut store, ids) = store_with(2);
        store.remove(ids[0]).expect("alive");
        let recycled = store.insert_with(|id| Peer::new(id, 0));
        assert_eq!(PeerRef::from(recycled).slot(), PeerRef::from(ids[0]).slot());
        assert_ne!(recycled, ids[0], "same slot, different identity");
        let mut sorted = vec![recycled, ids[1], ids[0]];
        sorted.sort();
        assert_eq!(sorted, vec![ids[0], ids[1], recycled], "ordered by seq");
    }

    #[test]
    fn serialization_is_a_plain_integer() {
        let id = PeerId::synthetic(42);
        let json = serde_json::to_string(&id).expect("serializes");
        assert_eq!(json, "42");
        let back: PeerId = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, id);
        assert_eq!(back.to_string(), "peer#42");
    }

    #[test]
    fn probe_count_tracks_lookups() {
        let (mut store, ids) = store_with(2);
        let before = store.probe_count();
        let _ = store.get(ids[0]);
        let _ = store.get_mut(ids[1]);
        let _ = store.peer(ids[0]); // goes through get
        assert_eq!(store.probe_count() - before, 3);
    }

    #[test]
    fn id_table_answers_without_probing() {
        let (mut store, ids) = store_with(3);
        let before = store.probe_count();
        for &id in &ids {
            let r = PeerRef::from(id);
            assert_eq!(PeerRef::from(store.id_at(r)), r);
            assert_eq!(store.id_at(r).seq(), id.seq());
        }
        assert_eq!(store.probe_count(), before, "table reads are not probes");
        store.remove(ids[1]).expect("alive");
        let newcomer = store.insert_with(|id| Peer::new(id, 0));
        assert_eq!(store.id_at(newcomer.into()).seq(), 3);
        assert_eq!(store.id_at(ids[2].into()).seq(), 2);
    }

    #[test]
    #[should_panic(expected = "peer departed")]
    fn id_table_rejects_a_departed_peers_reference() {
        let (mut store, ids) = store_with(2);
        store.remove(ids[0]).expect("alive");
        store.insert_with(|id| Peer::new(id, 0));
        let _ = store.id_at(ids[0].into());
    }

    #[test]
    fn acquire_sets_the_row_and_logs_once() {
        let (mut store, ids) = store_with(2);
        let r = PeerRef::from(ids[0]);
        assert!(store.acquire(r, 3, 7));
        assert!(!store.acquire(r, 3, 9), "a held piece is not new");
        assert!(store.acquire(r, 0, 9));
        assert_eq!(store.peer_at(r).acquisition_rounds(), &[7, 9]);
        assert_eq!(store.have(r).count(), 2);
        assert!((store.have(r).completion() - 0.5).abs() < 1e-12);
        assert_eq!(store.have(r).iter().collect::<Vec<_>>(), vec![0, 3]);
        assert!(store.have(ids[1].into()).is_empty(), "rows are per slot");
    }

    #[test]
    fn acquisition_log_never_outgrows_the_file() {
        let mut store = PeerStore::new(10);
        let r = PeerRef::from(store.insert_with(|id| Peer::new(id, 0)));
        for piece in 0..10 {
            assert!(store.acquire(r, piece, u64::from(piece)));
        }
        assert!(store.have(r).is_complete());
        assert_eq!(store.peer_at(r).acquisition_rounds().len(), 10);
        assert_eq!(store.peer_at(r).acquired.capacity(), 10);
    }

    #[test]
    fn blocks_complete_a_piece_once_all_are_in() {
        let (mut store, ids) = store_with(1);
        let r = PeerRef::from(ids[0]);
        assert!(!store.receive_block(r, 2, 3, 1));
        assert!(!store.receive_block(r, 2, 3, 2));
        assert_eq!(store.peer_at(r).partial.get(&2), Some(&2));
        assert!(
            store.receive_block(r, 2, 3, 3),
            "the third block completes it"
        );
        assert!(store.peer_at(r).partial.is_empty());
        assert!(
            !store.receive_block(r, 2, 3, 4),
            "blocks of held pieces are ignored"
        );
        assert_eq!(store.peer_at(r).acquisition_rounds(), &[3]);
        assert!(
            store.receive_block(r, 0, 1, 5),
            "a one-block piece is whole"
        );
    }

    #[test]
    fn a_recycled_slot_starts_with_an_empty_row() {
        let (mut store, ids) = store_with(2);
        for piece in 0..4 {
            store.acquire(ids[0].into(), piece, 1);
        }
        assert!(store.have(ids[0].into()).is_complete());
        store.remove(ids[0]).expect("alive");
        assert!(
            store.have_at(ids[0].into()).is_none(),
            "departed rows do not read"
        );
        let newcomer = store.insert_with(|id| Peer::new(id, 2));
        assert_eq!(PeerRef::from(newcomer).slot(), PeerRef::from(ids[0]).slot());
        assert!(store.have(newcomer.into()).is_empty());
        assert_eq!(store.have(newcomer.into()).count(), 0);
    }

    #[test]
    fn row_reads_are_not_probes() {
        let (store, ids) = store_with(2);
        let before = store.probe_count();
        assert!(store.have_at(ids[0].into()).is_some());
        assert!(store.have(ids[1].into()).is_empty());
        assert!(store.have_at(PeerId::synthetic(0).into()).is_none());
        assert_eq!(store.probe_count(), before);
    }

    /// One step of the possession-table proptest: a join (which reuses
    /// the slot of the latest departure, if any), an acquisition by an
    /// issued peer, or the departure of one.
    #[derive(Debug, Clone, Copy)]
    enum TableStep {
        Join,
        Acquire(usize, u32),
        Depart(usize),
    }

    /// A file of 70 pieces: two words per row, the second partial.
    const TABLE_PIECES: u32 = 70;

    fn table_step() -> impl Strategy<Value = TableStep> {
        (0u8..4, 0usize..64, 0..TABLE_PIECES).prop_map(|(kind, i, piece)| match kind {
            0 => TableStep::Join,
            1 => TableStep::Depart(i),
            _ => TableStep::Acquire(i, piece),
        })
    }

    proptest! {
        #[test]
        fn every_live_row_equals_its_acquisition_history(
            steps in prop::collection::vec(table_step(), 0..200),
        ) {
            let mut store = PeerStore::new(TABLE_PIECES);
            // Every id ever issued, with the pieces it acquired in order.
            let mut issued: Vec<(PeerId, Vec<u32>)> = Vec::new();
            for step in steps {
                match step {
                    TableStep::Join => {
                        let id = store.insert_with(|id| Peer::new(id, 0));
                        issued.push((id, Vec::new()));
                    }
                    TableStep::Acquire(i, piece) if !issued.is_empty() => {
                        let n = issued.len();
                        let (id, log) = &mut issued[i % n];
                        if store.have_at((*id).into()).is_some()
                            && store.acquire((*id).into(), piece, 1)
                        {
                            log.push(piece);
                        }
                    }
                    TableStep::Depart(i) if !issued.is_empty() => {
                        store.remove(issued[i % issued.len()].0);
                    }
                    _ => {}
                }
                for (id, log) in &issued {
                    let Some(row) = store.have_at((*id).into()) else {
                        prop_assert!(!store.contains(*id), "{} lost its row", id);
                        continue;
                    };
                    let mut rebuilt = Bitfield::new(TABLE_PIECES);
                    for &piece in log {
                        rebuilt.set(piece);
                    }
                    prop_assert_eq!(row, rebuilt.row(), "{}", id);
                    prop_assert_eq!(
                        store.peer(*id).acquisition_rounds().len(),
                        log.len()
                    );
                }
            }
        }
    }

    #[test]
    fn iter_skips_holes() {
        let (mut store, ids) = store_with(3);
        store.remove(ids[1]).expect("alive");
        let seqs: Vec<u64> = store.iter().map(|p| p.id.seq()).collect();
        assert_eq!(seqs, vec![0, 2]);
    }
}
