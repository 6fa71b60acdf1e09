//! The tracker: peer registry and random peer handout.
//!
//! Mirrors the paper's §2.1 description: a joining peer obtains a random
//! peer list from the tracker, refreshes it on periodic contact, and — in
//! the §7.1 *shake* extension — can request an entirely fresh random set.

use rand::Rng;

use crate::peer::PeerId;

/// Candidates a handout copies into its shuffle front per requested peer.
/// Copying a run of `alive` costs a small fraction of a side-table draw
/// per candidate, so swarms of a few hundred peers are copied whole while
/// larger ones copy O(count).
const WINDOW_PER_DRAW: usize = 32;

/// Bits of the filter in front of a handout's side table. A join draws
/// `s` = 40 peers, which set at most 40 of 1 024 bits, so a draw that
/// lands outside the table scans it with probability under 4%.
const FILTER_BITS: usize = 1024;

/// The swarm tracker. Keeps the set of alive peers sorted by
/// [`PeerId`], i.e. by arrival sequence number. The engine registers
/// each peer as it joins, so this is join order — the order every stage
/// iterates, and what keeps handouts deterministic for a given RNG
/// stream.
#[derive(Debug, Clone, Default)]
pub struct Tracker {
    alive: Vec<PeerId>,
}

impl Tracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Tracker::default()
    }

    /// Number of registered peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether no peers are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Registers a peer at its sequence position. In the engine seqs
    /// are issued at join, so this is always an append; an id registered
    /// out of seq order is still inserted where its seq sorts.
    ///
    /// # Panics
    ///
    /// Panics if the peer is already registered (identifiers are unique).
    pub fn register(&mut self, id: PeerId) {
        match self.alive.binary_search(&id) {
            Ok(_) => panic!("{id} registered twice with the tracker"),
            Err(pos) => self.alive.insert(pos, id),
        }
    }

    /// Deregisters a departing peer. Returns `true` if it was registered.
    pub fn deregister(&mut self, id: PeerId) -> bool {
        match self.alive.binary_search(&id) {
            Ok(pos) => {
                self.alive.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The alive peers in seq order (join order in the engine).
    #[must_use]
    pub fn peers(&self) -> &[PeerId] {
        &self.alive
    }

    /// Hands out up to `count` distinct random peers, excluding
    /// `requester` and anything in `exclude`, into `out`. The buffer is
    /// cleared and left holding the sampled peers; its capacity is
    /// reused across calls.
    ///
    /// Sampling is a partial Fisher–Yates over the candidate list —
    /// `alive` minus the requester and `exclude` — so the result is
    /// uniform without replacement. The list is never built whole. The
    /// excluded peers are binary-searched to their positions in `alive`,
    /// which gives the list's length and maps any candidate index back
    /// to `alive`. A window at the front of the list, `WINDOW_PER_DRAW`
    /// candidates per requested peer, is copied into `out` by runs;
    /// candidates beyond it that a swap overwrote live in a small side
    /// table, behind a bit filter that answers "not overwritten" without
    /// scanning it for all but a few percent of draws. The draws and
    /// their bounds are those of a shuffle over the whole list, so the
    /// output is the same peer for peer. Cost is O((|exclude| + count)
    /// · log N) plus O(count) expected for the side table, independent
    /// of the population N.
    ///
    /// Returns the number of candidates examined, counted where they are
    /// read: one per requester or exclude lookup, one per candidate
    /// copied into the window and one per draw.
    pub fn handout_into<R: Rng + ?Sized>(
        &self,
        out: &mut Vec<PeerId>,
        requester: PeerId,
        exclude: &[PeerId],
        count: usize,
        rng: &mut R,
    ) -> u64 {
        out.clear();
        let mut probes = 0u64;
        let mut skip = Vec::with_capacity(exclude.len() + 1);
        skip.extend(std::iter::once(&requester).chain(exclude).filter_map(|p| {
            probes += 1;
            self.alive.binary_search(p).ok()
        }));
        skip.sort_unstable();
        skip.dedup();
        let len = self.alive.len() - skip.len();
        let take = count.min(len);
        let window = len.min(take.saturating_mul(WINDOW_PER_DRAW));
        // The window is the runs of `alive` between skipped positions.
        let mut from = 0;
        for end in skip.iter().copied().chain([self.alive.len()]) {
            let room = window - out.len();
            let run = &self.alive[from..end.min(from + room)];
            probes += run.len() as u64;
            out.extend_from_slice(run);
            if out.len() == window {
                break;
            }
            from = end + 1;
        }
        // The m-th skipped position has m skipped positions before it, so
        // this leaves the number of candidates that precede it.
        for (m, pos) in skip.iter_mut().enumerate() {
            *pos -= m;
        }
        let candidate = |k: usize| self.alive[k + skip.partition_point(|&before| before <= k)];
        // Candidates past the window that a swap overwrote, by index,
        // and a filter with bit `k % FILTER_BITS` set for each index `k`
        // in the table: a clear bit proves `j` was never overwritten.
        let mut displaced: Vec<(usize, PeerId)> = Vec::new();
        let mut filter = [0u64; FILTER_BITS / 64];
        for i in 0..take {
            probes += 1;
            let j = rng.gen_range(i..len);
            if j < window {
                out.swap(i, j);
                continue;
            }
            let (word, bit) = (j % FILTER_BITS / 64, 1u64 << (j % 64));
            let at = if filter[word] & bit == 0 {
                None
            } else {
                displaced.iter().position(|&(k, _)| k == j)
            };
            match at {
                Some(at) => std::mem::swap(&mut out[i], &mut displaced[at].1),
                None => {
                    if displaced.is_empty() {
                        displaced.reserve_exact(take - i);
                    }
                    let front = std::mem::replace(&mut out[i], candidate(j));
                    displaced.push((j, front));
                    filter[word] |= bit;
                }
            }
        }
        out.truncate(take);
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The copy-and-filter handout `handout_into` replaced: materialize
    /// every alive peer that is neither the requester nor excluded, then
    /// shuffle the front. The oracle for the virtual-list sampler.
    fn reference_handout<R: Rng + ?Sized>(
        t: &Tracker,
        requester: PeerId,
        exclude: &[PeerId],
        count: usize,
        rng: &mut R,
    ) -> Vec<PeerId> {
        let mut out: Vec<PeerId> = t
            .peers()
            .iter()
            .copied()
            .filter(|&p| p != requester && !exclude.contains(&p))
            .collect();
        let take = count.min(out.len());
        for i in 0..take {
            let j = rng.gen_range(i..out.len());
            out.swap(i, j);
        }
        out.truncate(take);
        out
    }

    /// Runs both samplers from the same seed and asserts the same peers
    /// come out and the RNGs are left in the same state.
    fn assert_matches_reference(
        t: &Tracker,
        requester: PeerId,
        exclude: &[PeerId],
        count: usize,
        seed: u64,
    ) {
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let mut got = Vec::new();
        let probes = t.handout_into(&mut got, requester, exclude, count, &mut fast_rng);
        let want = reference_handout(t, requester, exclude, count, &mut reference_rng);
        assert_eq!(
            got, want,
            "requester {requester}, exclude {exclude:?}, count {count}"
        );
        assert_eq!(
            fast_rng.gen::<u64>(),
            reference_rng.gen::<u64>(),
            "RNG streams diverged"
        );
        let candidates = t
            .peers()
            .iter()
            .filter(|&&p| p != requester && !exclude.contains(&p))
            .count();
        let window = candidates.min(got.len() * WINDOW_PER_DRAW);
        assert_eq!(probes, (1 + exclude.len() + window + got.len()) as u64);
    }

    fn tracker_with_gaps(population: u64, departed: &[u64]) -> Tracker {
        let mut t = Tracker::new();
        for seq in 0..population {
            t.register(PeerId::synthetic(seq));
        }
        for &seq in departed {
            t.deregister(PeerId::synthetic(seq));
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn handout_matches_copy_and_filter_reference(
            population in 0u64..400,
            departed in prop::collection::vec(0u64..400, 0..120),
            requester in 0u64..420,
            exclude in prop::collection::vec(0u64..440, 0..40),
            requester_excluded in prop::bool::ANY,
            count_mode in 0u8..4,
            extra in 0usize..12,
            seed in any::<u64>(),
        ) {
            let t = tracker_with_gaps(population, &departed);
            let requester = PeerId::synthetic(requester);
            let mut exclude: Vec<PeerId> = exclude.into_iter().map(PeerId::synthetic).collect();
            if requester_excluded {
                exclude.push(requester);
            }
            let candidates = t
                .peers()
                .iter()
                .filter(|&&p| p != requester && !exclude.contains(&p))
                .count();
            let count = match count_mode {
                0 => 0,
                1 => candidates,
                2 => candidates + 1 + extra,
                _ => extra,
            };
            assert_matches_reference(&t, requester, &exclude, count, seed);
        }
    }

    #[test]
    fn handout_matches_reference_on_edge_cases() {
        let empty = Tracker::new();
        assert_matches_reference(&empty, PeerId::synthetic(0), &[], 5, 1);
        assert_matches_reference(&empty, PeerId::synthetic(0), &[PeerId::synthetic(3)], 0, 1);

        let t = tracker_with_gaps(20, &[0, 3, 4, 5, 19]);
        let ids = |seqs: &[u64]| {
            seqs.iter()
                .copied()
                .map(PeerId::synthetic)
                .collect::<Vec<_>>()
        };
        // Unregistered requester, duplicated and departed excludes, the
        // requester inside its own exclude list, synthetic ids past the
        // population.
        assert_matches_reference(&t, PeerId::synthetic(4), &ids(&[6, 6, 7]), 3, 2);
        assert_matches_reference(&t, PeerId::synthetic(8), &ids(&[8, 1, 1, 99, 3]), 9, 3);
        // Everything excluded; exactly L; more than L.
        assert_matches_reference(&t, PeerId::synthetic(1), t.peers(), 4, 4);
        assert_matches_reference(&t, PeerId::synthetic(1), &ids(&[2, 18]), 12, 5);
        assert_matches_reference(&t, PeerId::synthetic(1), &ids(&[2, 18]), 40, 6);
    }

    #[test]
    fn handout_matches_reference_when_draws_revisit_the_side_table() {
        // A few draws from far beyond the copied window: across many
        // seeds some land on the same overwritten candidate twice.
        let departed: Vec<u64> = (0..2_000).step_by(7).collect();
        let t = tracker_with_gaps(2_000, &departed);
        let exclude: Vec<PeerId> = (0..2_000).step_by(50).map(PeerId::synthetic).collect();
        for seed in 0..1_000 {
            assert_matches_reference(&t, PeerId::synthetic(seed), &exclude, 6, seed);
        }
    }

    #[test]
    fn handout_matches_reference_at_join_scale() {
        // A join's handout: 40 draws from 20 000 alive peers, almost all
        // past the 1 280-candidate window, so the side table fills and
        // its filter sees revisits and collisions; a third of the seeds
        // also exclude a full neighbor list.
        let departed: Vec<u64> = (0..21_000).step_by(21).collect();
        let t = tracker_with_gaps(21_000, &departed);
        assert_eq!(t.len(), 20_000);
        for seed in 0..400 {
            let requester = PeerId::synthetic(seed * 37 % 21_000);
            let exclude: Vec<PeerId> = match seed % 3 {
                0 => (0..40)
                    .map(|n| PeerId::synthetic(seed * 101 + n * 500))
                    .collect(),
                _ => Vec::new(),
            };
            assert_matches_reference(&t, requester, &exclude, 40, seed);
        }
    }

    #[test]
    fn register_out_of_order_sorts_by_seq() {
        let mut t = Tracker::new();
        for seq in [5, 2, 9, 0] {
            t.register(PeerId::synthetic(seq));
        }
        let seqs: Vec<u64> = t.peers().iter().map(|p| p.seq()).collect();
        assert_eq!(seqs, [0, 2, 5, 9]);
    }

    #[test]
    fn deregister_unknown_id_returns_false() {
        let mut t = tracker_with_gaps(4, &[2]);
        assert!(!t.deregister(PeerId::synthetic(2)), "already departed");
        assert!(!t.deregister(PeerId::synthetic(7)), "never registered");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn register_and_deregister() {
        let mut t = Tracker::new();
        assert!(t.is_empty());
        t.register(PeerId::synthetic(1));
        t.register(PeerId::synthetic(2));
        assert_eq!(t.len(), 2);
        assert!(t.deregister(PeerId::synthetic(1)));
        assert!(!t.deregister(PeerId::synthetic(1)));
        assert_eq!(t.peers(), &[PeerId::synthetic(2)]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut t = Tracker::new();
        t.register(PeerId::synthetic(1));
        t.register(PeerId::synthetic(1));
    }

    #[test]
    fn handout_excludes_requester_and_existing() {
        let mut t = Tracker::new();
        for i in 0..10 {
            t.register(PeerId::synthetic(i));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut got = Vec::new();
        t.handout_into(
            &mut got,
            PeerId::synthetic(0),
            &[PeerId::synthetic(1), PeerId::synthetic(2)],
            20,
            &mut rng,
        );
        assert_eq!(got.len(), 7, "10 minus requester minus 2 excluded");
        assert!(!got.contains(&PeerId::synthetic(0)));
        assert!(!got.contains(&PeerId::synthetic(1)));
        assert!(!got.contains(&PeerId::synthetic(2)));
    }

    #[test]
    fn handout_is_without_replacement() {
        let mut t = Tracker::new();
        for i in 0..50 {
            t.register(PeerId::synthetic(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut got = Vec::new();
        t.handout_into(&mut got, PeerId::synthetic(0), &[], 49, &mut rng);
        let mut sorted = got.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len());
    }

    #[test]
    fn handout_respects_count() {
        let mut t = Tracker::new();
        for i in 0..30 {
            t.register(PeerId::synthetic(i));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut got = Vec::new();
        t.handout_into(&mut got, PeerId::synthetic(0), &[], 5, &mut rng);
        assert_eq!(got.len(), 5);
        t.handout_into(&mut got, PeerId::synthetic(0), &[], 0, &mut rng);
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn handout_covers_population_over_draws() {
        // Every candidate is reachable (uniformity smoke test).
        let mut t = Tracker::new();
        for i in 0..6 {
            t.register(PeerId::synthetic(i));
        }
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        let mut got = Vec::new();
        for _ in 0..200 {
            t.handout_into(&mut got, PeerId::synthetic(0), &[], 1, &mut rng);
            seen.extend(got.iter().copied());
        }
        assert_eq!(seen.len(), 5);
    }
}
