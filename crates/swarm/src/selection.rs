//! Piece-selection strategies (§2.1): rarest-first and random-first.
//!
//! Selection is generic over a [`Substream`] — a source of uniform
//! picks. The serial engine path feeds it the model `StdRng`; the
//! parallel exchange plan phase feeds it a [`PlanStream`], a stateless
//! per-pair-direction SplitMix64 stream keyed off run identity alone so
//! that decisions are independent of worker count and shard layout.

use rand::Rng;

use crate::config::PieceSelection;
use crate::piece::{lane, lane_words, Bitfield, PieceId};

/// A source of uniform random picks for piece selection.
///
/// Implemented by the model RNG (`StdRng`, the serial engine path) and
/// by [`PlanStream`] (the parallel plan phase). Keeping selection
/// generic over this trait — rather than `rand::Rng` — lets the plan
/// phase draw from deterministic per-pair streams that never touch the
/// serial model RNG.
pub trait Substream {
    /// Returns a uniform index in `0..n`.
    ///
    /// # Panics
    ///
    /// May panic if `n == 0`; callers pick from non-empty candidate
    /// sets.
    fn pick(&mut self, n: usize) -> usize;
}

impl Substream for rand::rngs::StdRng {
    fn pick(&mut self, n: usize) -> usize {
        self.gen_range(0..n)
    }
}

/// A stateless SplitMix64 pick stream keyed from run identity.
///
/// The parallel exchange plan derives one stream per connection-pair
/// direction via [`PlanStream::pair`], chaining the run seed, round,
/// both peer sequence numbers, and the direction through the same
/// SplitMix64 mix `bt_des::SeedStream` uses for substream derivation.
/// Because the key depends only on *what* is being decided — never on
/// which worker or shard decides it — the resulting bytes are identical
/// at any `--threads` value, and a 1-shard plan equals an N-shard plan
/// bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct PlanStream {
    state: u64,
}

impl PlanStream {
    /// Derives the stream for one direction of a connection pair in one
    /// round: `lo`/`hi` are the canonical (sorted) peer sequence
    /// numbers and `dir` is 0 for the lo→hi download and 1 for hi→lo.
    #[must_use]
    pub fn pair(seed: u64, round: u64, lo: u64, hi: u64, dir: u64) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for salt in [round, lo, hi, dir] {
            h = splitmix64(h ^ salt);
        }
        PlanStream { state: h }
    }

    /// The next raw 64-bit draw (SplitMix64 sequence step).
    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }
}

impl Substream for PlanStream {
    fn pick(&mut self, n: usize) -> usize {
        // Modulo bias is ~n / 2^64 — negligible at piece-count scale.
        (self.next_u64() % n as u64) as usize
    }
}

/// SplitMix64 finalizer, mirroring `bt_des::rng`'s derivation mix so
/// plan streams and seed substreams share one well-studied permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ranks candidate pieces to download from connected peers: the plan
/// phase's selection step, with scratch space reused across calls so a
/// warm ranker allocates nothing.
///
/// Each rank is drawn by the §2.1 rule from the wanted pieces (held by
/// the uploader, missing at the downloader) not yet ranked: uniformly
/// over all of them for random-first, uniformly over the ones with the
/// fewest copies in the downloader's neighbor set for rarest-first.
///
/// The draws are those of selection without replacement over the
/// wanted list in increasing piece order, where a ranked piece is
/// removed by `swap_remove` (the last entry moves into its place) and a
/// tie is resolved by the `pick(ties)`-th tied entry in list order. That
/// is the engine's RNG stream; the ranker reproduces it in one pass:
///
/// * the wanted pieces are recorded as `(key, position, piece)` with the
///   replication count as key (0 for random-first), and their keys
///   counted into a histogram;
/// * only pieces whose key is at most the `limit`-th smallest key can
///   be drawn within `limit` ranks, so the histogram gives that
///   threshold and a counting sort places the rest by
///   `(key, position)`;
/// * each rank picks among the minimum-key prefix, then moves the entry
///   at the list's last position into the freed position, re-sorting it
///   inside its key group.
///
/// Every `pick` call and its argument match the list-based ranking, so
/// the output and the stream state afterwards are identical.
#[derive(Debug)]
pub struct Ranker {
    strategy: PieceSelection,
    /// The wanted pieces by list position; after a rank, the entry at
    /// a freed position carries the key of the piece moved there.
    wanted: Vec<Candidate>,
    /// Candidates still rankable, sorted by `(key, pos)`.
    kept: Vec<Candidate>,
    /// Per-key counts, then bucket offsets up to the threshold, during
    /// one call; all zero between calls. Lane counts are bytes, so 256
    /// keys suffice.
    histogram: [u32; 256],
}

/// One wanted piece: its key (replication count, or 0), its position in
/// the virtual wanted list, and its id.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    key: u32,
    pos: u32,
    piece: PieceId,
}

impl Ranker {
    /// A ranker for `strategy` with empty scratch space.
    #[must_use]
    pub fn new(strategy: PieceSelection) -> Self {
        Ranker {
            strategy,
            wanted: Vec::new(),
            kept: Vec::new(),
            histogram: [0; 256],
        }
    }

    /// Ranks up to `limit` pieces `theirs` holds and `mine` lacks, best
    /// first, into `out` (cleared first). `lanes` is the downloader's
    /// byte-lane replication view over its neighbor set (see
    /// [`Bitfield::accumulate_lanes`]); random-first ignores it.
    ///
    /// Returns the candidates examined: one per wanted piece scanned
    /// plus one per rank drawn.
    ///
    /// # Example
    ///
    /// ```
    /// use bt_swarm::config::PieceSelection;
    /// use bt_swarm::piece::{lane_words, Bitfield};
    /// use bt_swarm::selection::{PlanStream, Ranker};
    ///
    /// let mine = Bitfield::new(4);
    /// let theirs = Bitfield::full(4);
    /// // Two neighbors hold pieces 0, 2 and 3; piece 1 is rare.
    /// let mut common = Bitfield::new(4);
    /// for p in [0, 2, 3] {
    ///     common.set(p);
    /// }
    /// let mut lanes = vec![0u64; lane_words(4)];
    /// common.accumulate_lanes(&mut lanes);
    /// common.accumulate_lanes(&mut lanes);
    /// let mut stream = PlanStream::pair(0, 1, 0, 1, 0);
    /// let mut ranked = Vec::new();
    /// let mut ranker = Ranker::new(PieceSelection::RarestFirst);
    /// ranker.rank(&mine, &theirs, &lanes, 2, &mut stream, &mut ranked);
    /// assert_eq!(ranked.len(), 2);
    /// assert_eq!(ranked[0], 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the bitfields cover different files, or if `strategy`
    /// is rarest-first and `lanes` does not cover all pieces.
    pub fn rank<S: Substream + ?Sized>(
        &mut self,
        mine: &Bitfield,
        theirs: &Bitfield,
        lanes: &[u64],
        limit: usize,
        rng: &mut S,
        out: &mut Vec<PieceId>,
    ) -> u64 {
        out.clear();
        let rarest = self.strategy == PieceSelection::RarestFirst;
        if rarest {
            assert!(
                lanes.len() >= lane_words(mine.len()),
                "replication lanes must cover all {} pieces",
                mine.len()
            );
        }
        let Ranker {
            wanted,
            kept,
            histogram,
            ..
        } = self;
        wanted.clear();
        let mut max_key = 0;
        mine.for_each_wanted(theirs, |piece| {
            let key = if rarest { lane(lanes, piece) } else { 0 };
            histogram[key as usize] += 1;
            max_key = max_key.max(key as usize);
            wanted.push(Candidate {
                key,
                pos: wanted.len() as u32,
                piece,
            });
        });
        let scanned = wanted.len() as u64;

        let need = limit.min(wanted.len());
        if need == 0 {
            histogram[..=max_key].fill(0);
            return scanned;
        }
        // The threshold is the `limit`-th smallest key; turn the counts
        // up to it into bucket offsets and place the candidates in
        // position order, which leaves each bucket sorted by position.
        let mut threshold = 0;
        let mut kept_len = histogram[0] as usize;
        while kept_len < need {
            threshold += 1;
            kept_len += histogram[threshold] as usize;
        }
        let mut below = 0;
        for count in &mut histogram[..=threshold] {
            let bucket = *count;
            *count = below;
            below += bucket;
        }
        kept.clear();
        kept.resize(kept_len, Candidate::default());
        for c in wanted.iter().filter(|c| c.key as usize <= threshold) {
            let slot = &mut histogram[c.key as usize];
            kept[*slot as usize] = *c;
            *slot += 1;
        }
        histogram[..=max_key].fill(0);
        let threshold = threshold as u32;

        // `kept[start..]` are the unranked candidates; `last` is the
        // list position of the last unranked wanted piece.
        let mut start = 0;
        let mut last = wanted.len() - 1;
        while out.len() < limit && start < kept.len() {
            let min = kept[start].key;
            let ties = kept[start..].partition_point(|c| c.key == min);
            let chosen = start + rng.pick(ties);
            let Candidate { pos, piece, .. } = kept[chosen];
            out.push(piece);
            kept[start..=chosen].rotate_right(1);
            start += 1;
            // swap_remove: the entry at `last` moves into `pos`.
            let pos = pos as usize;
            if pos != last {
                let key = wanted[last].key;
                wanted[pos].key = key;
                if key <= threshold {
                    let at = |c: &Candidate| (c.key, c.pos as usize);
                    let from = start
                        + kept[start..]
                            .binary_search_by(|c| at(c).cmp(&(key, last)))
                            .expect("every kept key is in the sorted candidates");
                    kept[from].pos = pos as u32;
                    let to = start + kept[start..from].partition_point(|c| at(c) < (key, pos));
                    kept[to..=from].rotate_right(1);
                }
            }
            last = last.saturating_sub(1);
        }
        scanned + out.len() as u64
    }
}

/// Per-piece replication counts over a collection of bitfields (the view a
/// peer has of its neighbor set, and the quantity whose skew defines the
/// §6 entropy).
///
/// The engine no longer calls this on its hot paths: global counts come
/// from the incrementally maintained [`crate::replication::ReplicationIndex`],
/// and neighbor-local views are accumulated word-wise by the exchange
/// stage. This from-scratch rebuild is kept as the *oracle* the
/// property tests and [`crate::engine::Swarm::assert_invariants`] check
/// the index against.
#[must_use]
pub fn replication_counts<'a, I>(pieces: u32, fields: I) -> Vec<u64>
where
    I: IntoIterator<Item = &'a Bitfield>,
{
    let mut counts = vec![0u64; pieces as usize];
    for field in fields {
        for p in field.iter() {
            counts[p as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The list-based ranking the engine drew from before [`Ranker`]:
    /// kept as the oracle its draws are checked against. `replication`
    /// is indexed by piece.
    fn rank_pieces<S: Substream + ?Sized>(
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        replication: &[u64],
        limit: usize,
        rng: &mut S,
        out: &mut Vec<PieceId>,
    ) {
        out.clear();
        let mut remaining = Vec::new();
        mine.for_each_wanted(theirs, |p| remaining.push(p));
        if remaining.is_empty() {
            return;
        }
        if strategy == PieceSelection::RarestFirst {
            assert!(
                replication.len() == mine.len() as usize,
                "replication vector must cover all {} pieces",
                mine.len()
            );
        }
        while out.len() < limit && !remaining.is_empty() {
            let idx = match strategy {
                PieceSelection::RandomFirst => rng.pick(remaining.len()),
                PieceSelection::RarestFirst => {
                    let min_rep = remaining
                        .iter()
                        .map(|&p| replication[p as usize])
                        .min()
                        .expect("remaining is non-empty");
                    let ties = remaining
                        .iter()
                        .filter(|&&p| replication[p as usize] == min_rep)
                        .count();
                    let nth = rng.pick(ties);
                    remaining
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| replication[p as usize] == min_rep)
                        .nth(nth)
                        .map(|(i, _)| i)
                        .expect("tie index within tie count")
                }
            };
            out.push(remaining.swap_remove(idx));
        }
    }

    fn bf(pieces: u32, have: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(pieces);
        for &p in have {
            b.set(p);
        }
        b
    }

    /// A byte-lane view holding `counts[p]` in lane `p`.
    fn lanes_of(counts: &[u8]) -> Vec<u64> {
        let mut lanes = vec![0u64; lane_words(counts.len() as u32)];
        for (p, &c) in counts.iter().enumerate() {
            lanes[p / 8] |= u64::from(c) << (8 * (p % 8));
        }
        lanes
    }

    /// The top-ranked piece, as the engine's first candidate.
    fn top<S: Substream>(
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        counts: &[u8],
        rng: &mut S,
    ) -> Option<PieceId> {
        let mut out = Vec::new();
        Ranker::new(strategy).rank(mine, theirs, &lanes_of(counts), 1, rng, &mut out);
        out.first().copied()
    }

    #[test]
    fn rarest_first_picks_minimum_replication() {
        let mine = bf(5, &[0]);
        let theirs = bf(5, &[1, 2, 3]);
        let counts = [9, 4, 1, 4, 9];
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let p = top(
                PieceSelection::RarestFirst,
                &mine,
                &theirs,
                &counts,
                &mut rng,
            );
            assert_eq!(p, Some(2));
        }
    }

    #[test]
    fn rarest_first_breaks_ties_within_minimum() {
        let mine = bf(4, &[]);
        let theirs = bf(4, &[0, 1, 2, 3]);
        let counts = [2, 2, 7, 7];
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = top(
                PieceSelection::RarestFirst,
                &mine,
                &theirs,
                &counts,
                &mut rng,
            )
            .unwrap();
            assert!(p < 2, "only pieces 0 and 1 are rarest, got {p}");
            seen.insert(p);
        }
        assert_eq!(seen.len(), 2, "both ties should be hit eventually");
    }

    #[test]
    fn random_first_covers_all_wanted() {
        let mine = bf(6, &[0]);
        let theirs = bf(6, &[1, 2, 3, 4, 5]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(top(PieceSelection::RandomFirst, &mine, &theirs, &[], &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn nothing_to_offer_ranks_nothing() {
        let mine = bf(4, &[0, 1]);
        let theirs = bf(4, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            top(PieceSelection::RandomFirst, &mine, &theirs, &[], &mut rng),
            None
        );
    }

    #[test]
    fn plan_stream_is_reproducible() {
        let mut a = PlanStream::pair(42, 3, 10, 17, 0);
        let mut b = PlanStream::pair(42, 3, 10, 17, 0);
        let draws_a: Vec<usize> = (0..16).map(|_| a.pick(1000)).collect();
        let draws_b: Vec<usize> = (0..16).map(|_| b.pick(1000)).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().all(|&d| d < 1000));
    }

    #[test]
    fn plan_stream_keys_separate_streams() {
        let base: Vec<usize> = {
            let mut s = PlanStream::pair(42, 3, 10, 17, 0);
            (0..8).map(|_| s.pick(usize::MAX)).collect()
        };
        for key in [
            PlanStream::pair(43, 3, 10, 17, 0), // seed
            PlanStream::pair(42, 4, 10, 17, 0), // round
            PlanStream::pair(42, 3, 11, 17, 0), // lo
            PlanStream::pair(42, 3, 10, 18, 0), // hi
            PlanStream::pair(42, 3, 10, 17, 1), // direction
        ] {
            let mut s = key;
            let draws: Vec<usize> = (0..8).map(|_| s.pick(usize::MAX)).collect();
            assert_ne!(draws, base, "key {key:?} must not collide with base");
        }
    }

    #[test]
    fn plan_stream_drives_selection() {
        // The ranker accepts a PlanStream wherever it accepts the model
        // RNG, and the pick lands in the wanted set.
        let mine = bf(8, &[0]);
        let theirs = bf(8, &[1, 2, 3]);
        let mut stream = PlanStream::pair(7, 1, 0, 1, 0);
        for _ in 0..32 {
            let p = top(
                PieceSelection::RandomFirst,
                &mine,
                &theirs,
                &[],
                &mut stream,
            )
            .expect("uploader has novel pieces");
            assert!([1, 2, 3].contains(&p));
        }
    }

    #[test]
    fn ranker_lists_distinct_wanted_pieces() {
        let mine = bf(8, &[0]);
        let theirs = bf(8, &[1, 2, 3, 4]);
        let mut stream = PlanStream::pair(1, 1, 0, 1, 0);
        let mut out = Vec::new();
        let examined = Ranker::new(PieceSelection::RandomFirst).rank(
            &mine,
            &theirs,
            &[],
            10,
            &mut stream,
            &mut out,
        );
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4], "all wanted pieces, each once");
        assert_eq!(examined, 4 + 4, "four scanned, four drawn");
    }

    #[test]
    fn ranker_respects_limit_and_empty_want() {
        let mine = bf(8, &[]);
        let theirs = bf(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut stream = PlanStream::pair(2, 1, 0, 1, 0);
        let mut ranker = Ranker::new(PieceSelection::RandomFirst);
        let mut out = vec![99];
        ranker.rank(&mine, &theirs, &[], 3, &mut stream, &mut out);
        assert_eq!(out.len(), 3);
        let full = bf(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let examined = ranker.rank(&full, &theirs, &[], 3, &mut stream, &mut out);
        assert!(out.is_empty(), "nothing wanted clears the output");
        assert_eq!(examined, 0);
    }

    #[test]
    fn ranker_orders_rarest_first() {
        let mine = bf(6, &[]);
        let theirs = bf(6, &[0, 1, 2, 3]);
        let lanes = lanes_of(&[9, 1, 5, 5, 0, 0]);
        let mut stream = PlanStream::pair(3, 1, 0, 1, 0);
        let mut out = Vec::new();
        Ranker::new(PieceSelection::RarestFirst).rank(
            &mine,
            &theirs,
            &lanes,
            10,
            &mut stream,
            &mut out,
        );
        assert_eq!(out[0], 1, "unique rarest piece ranks first");
        assert_eq!(out[3], 0, "most replicated ranks last");
        assert!(out[1] == 2 || out[1] == 3, "ties fill the middle ranks");
    }

    /// Ranks with both the ranker and the oracle from identical streams
    /// and checks the lists and the next draw agree.
    fn assert_matches_oracle(
        ranker: &mut Ranker,
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        counts: &[u8],
        limit: usize,
        seed: u64,
    ) {
        let replication: Vec<u64> = counts.iter().map(|&c| u64::from(c)).collect();
        let mut oracle_stream = PlanStream::pair(seed, 1, 2, 3, 0);
        let mut expected = Vec::new();
        rank_pieces(
            strategy,
            mine,
            theirs,
            &replication,
            limit,
            &mut oracle_stream,
            &mut expected,
        );
        let mut stream = PlanStream::pair(seed, 1, 2, 3, 0);
        let mut ranked = vec![u32::MAX];
        let mut wanted = 0;
        mine.for_each_wanted(theirs, |_| wanted += 1);
        let examined = ranker.rank(
            mine,
            theirs,
            &lanes_of(counts),
            limit,
            &mut stream,
            &mut ranked,
        );
        assert_eq!(ranked, expected, "{strategy:?} limit {limit}");
        assert_eq!(
            stream.pick(usize::MAX),
            oracle_stream.pick(usize::MAX),
            "{strategy:?} limit {limit}: streams diverged after ranking"
        );
        assert_eq!(examined, wanted + ranked.len() as u64);
    }

    #[test]
    fn ranker_matches_oracle_at_edge_limits() {
        // One ranker per strategy serves every call, so scratch state
        // left by one ranking must not leak into the next.
        let mut rankers = [
            Ranker::new(PieceSelection::RarestFirst),
            Ranker::new(PieceSelection::RandomFirst),
        ];
        let mut rng = StdRng::seed_from_u64(8);
        for pieces in [1, 7, 8, 63, 64, 65, 100, 200] {
            for trial in 0..20u64 {
                let mut mine = Bitfield::new(pieces);
                let mut theirs = Bitfield::new(pieces);
                let counts: Vec<u8> = (0..pieces).map(|_| rng.gen_range(0..3)).collect();
                for p in 0..pieces {
                    if rng.gen_bool(0.3) {
                        mine.set(p);
                    }
                    if rng.gen_bool(0.7) {
                        theirs.set(p);
                    }
                }
                let mut wanted = 0;
                mine.for_each_wanted(&theirs, |_| wanted += 1);
                for ranker in &mut rankers {
                    let strategy = ranker.strategy;
                    for limit in [0, 1, 2, 17, 40, wanted, wanted + 1, wanted + 9] {
                        assert_matches_oracle(
                            ranker, strategy, &mine, &theirs, &counts, limit, trial,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ranker_matches_oracle_on_an_empty_want() {
        let mine = Bitfield::full(70);
        let theirs = bf(70, &[3, 69]);
        for strategy in [PieceSelection::RarestFirst, PieceSelection::RandomFirst] {
            let mut ranker = Ranker::new(strategy);
            for limit in [0, 1, 8] {
                assert_matches_oracle(&mut ranker, strategy, &mine, &theirs, &[1; 70], limit, 5);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn ranker_matches_list_oracle(
            pieces in 1u32..260,
            mine_density in 0u8..100,
            theirs_density in 0u8..100,
            max_key in 0u8..255,
            limit in 0usize..80,
            second_limit in 0usize..80,
            random_first in prop::bool::ANY,
            seed in any::<u64>(),
        ) {
            // Small `max_key` values give heavy ties; 254 gives nearly
            // distinct keys.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mine = Bitfield::new(pieces);
            let mut theirs = Bitfield::new(pieces);
            let mut counts = Vec::with_capacity(pieces as usize);
            for p in 0..pieces {
                if rng.gen_range(0..100u8) < mine_density {
                    mine.set(p);
                }
                if rng.gen_range(0..100u8) < theirs_density {
                    theirs.set(p);
                }
                counts.push(rng.gen_range(0..=max_key));
            }
            let strategy = if random_first {
                PieceSelection::RandomFirst
            } else {
                PieceSelection::RarestFirst
            };
            // The second call runs on the scratch state the first left.
            let mut ranker = Ranker::new(strategy);
            assert_matches_oracle(&mut ranker, strategy, &mine, &theirs, &counts, limit, seed);
            assert_matches_oracle(&mut ranker, strategy, &theirs, &mine, &counts, second_limit, seed);
        }
    }

    #[test]
    fn replication_counts_sum() {
        let fields = [bf(4, &[0, 1]), bf(4, &[1, 2]), bf(4, &[1])];
        let counts = replication_counts(4, fields.iter());
        assert_eq!(counts, vec![1, 3, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "replication lanes")]
    fn rarest_first_checks_lane_length() {
        let mine = bf(65, &[]);
        let theirs = bf(65, &[0]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut out = Vec::new();
        Ranker::new(PieceSelection::RarestFirst)
            .rank(&mine, &theirs, &[0; 8], 1, &mut rng, &mut out);
    }
}
