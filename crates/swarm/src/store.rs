//! Generational peer storage.
//!
//! [`PeerStore`] is a slab with a free-list: departed peers leave holes
//! that later arrivals fill, so the backing vector stays dense no matter
//! how much churn the swarm sees. Every slot carries a *generation*
//! counter that is bumped on removal, and every [`PeerId`] embeds the
//! generation it was issued under — an id held across a departure stops
//! resolving instead of silently aliasing whichever newcomer inherited
//! the slot. Stale-id bugs thereby become `None` at the access site
//! rather than corrupted simulation state.
//!
//! Identity, ordering, hashing, display, and serialization of a
//! [`PeerId`] all use only its *sequence number* — the arrival index the
//! tracker hands out, unique for the whole run. The slot and generation
//! are routing detail private to the store. This matters for
//! determinism: everything the engine sorts, samples, or serializes
//! (connection pairs, credit maps, observer windows, telemetry) behaves
//! exactly as if ids were plain arrival numbers, regardless of which
//! slot a peer happens to occupy.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::peer::Peer;

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

    /// The slab slot this id routes to (meaningless for synthetic ids).
    #[must_use]
    pub(crate) const fn slot(self) -> u32 {
        self.slot
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

/// Generational slab of peers.
///
/// Insertion reuses freed slots (LIFO), lookup checks the generation,
/// and removal bumps it. Iteration over occupied slots is dense:
/// `capacity()` tracks the high-water population, not total arrivals.
#[derive(Debug, Default)]
pub struct PeerStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    /// Lifetime count of slab lookups ([`get`](Self::get) /
    /// [`get_mut`](Self::get_mut)), for cost-attribution profiling. An
    /// atomic (relaxed) so read paths stay `&self` and the store stays
    /// `Sync` for sharded execution; wraps on overflow — consumers diff
    /// consecutive readings, so only deltas are meaningful. Counted by
    /// one thread at a time ([`add_probes`](Self::add_probes)).
    probes: std::sync::atomic::AtomicU64,
}

impl Clone for PeerStore {
    fn clone(&self) -> Self {
        PeerStore {
            slots: self.slots.clone(),
            free: self.free.clone(),
            next_seq: self.next_seq,
            len: self.len,
            probes: std::sync::atomic::AtomicU64::new(self.probe_count()),
        }
    }
}

impl PeerStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        PeerStore::default()
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
    /// stores the peer `f` builds for it.
    pub fn insert_with(&mut self, f: impl FnOnce(PeerId) -> Peer) -> PeerId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                assert!(slot < PeerId::DETACHED, "peer store slot space exhausted");
                self.slots.push(Slot {
                    generation: 0,
                    peer: None,
                });
                slot
            }
        };
        let id = PeerId {
            seq: self.next_seq,
            slot,
            generation: self.slots[slot as usize].generation,
        };
        self.next_seq += 1;
        self.slots[slot as usize].peer = Some(f(id));
        self.len += 1;
        id
    }

    /// Resolves `id`, returning `None` for departed, stale, or
    /// synthetic ids.
    #[must_use]
    pub fn get(&self, id: PeerId) -> Option<&Peer> {
        self.add_probes(1);
        self.lookup(id)
    }

    /// [`get`](Self::get) without the probe count, for lookups made on
    /// several threads at once: the count is a load and a store, so
    /// concurrent counting would lose increments. Sharded code counts
    /// its lookups in a local and passes the total to
    /// [`add_probes`](Self::add_probes) after the join.
    pub(crate) fn lookup(&self, id: PeerId) -> Option<&Peer> {
        let slot = self.slots.get(id.slot as usize)?;
        if slot.generation != id.generation {
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
        let probes = self.probes.get_mut();
        *probes = probes.wrapping_add(1);
        let slot = self.slots.get_mut(id.slot as usize)?;
        if slot.generation != id.generation {
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
        self.get(id).expect("peer departed but was referenced")
    }

    /// Mutable variant of [`peer`](Self::peer).
    ///
    /// # Panics
    ///
    /// Panics if the peer departed or the id is stale/synthetic.
    #[must_use]
    pub fn peer_mut(&mut self, id: PeerId) -> &mut Peer {
        self.get_mut(id).expect("peer departed but was referenced")
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

    fn store_with(n: usize) -> (PeerStore, Vec<PeerId>) {
        let mut store = PeerStore::new();
        let ids = (0..n)
            .map(|_| store.insert_with(|id| Peer::new(id, 4, 0)))
            .collect();
        (store, ids)
    }

    #[test]
    fn sequence_numbers_are_run_unique() {
        let (mut store, ids) = store_with(3);
        assert_eq!(ids[0].seq(), 0);
        assert_eq!(ids[2].seq(), 2);
        store.remove(ids[1]).expect("alive");
        let replacement = store.insert_with(|id| Peer::new(id, 4, 1));
        assert_eq!(replacement.seq(), 3, "seq never reused");
        assert_eq!(replacement.slot(), ids[1].slot(), "slot reused");
    }

    #[test]
    fn freed_slot_reuse_rejects_stale_id() {
        let (mut store, ids) = store_with(2);
        let stale = ids[0];
        store.remove(stale).expect("alive");
        let replacement = store.insert_with(|id| Peer::new(id, 4, 5));
        assert_eq!(replacement.slot(), stale.slot(), "slot was recycled");
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
        let recycled = store.insert_with(|id| Peer::new(id, 4, 0));
        assert_eq!(recycled.slot(), ids[0].slot());
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
    fn iter_skips_holes() {
        let (mut store, ids) = store_with(3);
        store.remove(ids[1]).expect("alive");
        let seqs: Vec<u64> = store.iter().map(|p| p.id.seq()).collect();
        assert_eq!(seqs, vec![0, 2]);
    }
}
