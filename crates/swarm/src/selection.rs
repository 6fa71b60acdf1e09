//! Piece-selection strategies (§2.1): rarest-first and random-first.
//!
//! Selection is generic over a [`Substream`] — a source of uniform
//! picks. The serial engine path feeds it the model `StdRng`; the
//! parallel exchange plan phase feeds it a [`PlanStream`], a stateless
//! per-pair-direction SplitMix64 stream keyed off run identity alone so
//! that decisions are independent of worker count and shard layout.

use bt_markov::seed::splitmix64;
use rand::Rng;

use crate::config::PieceSelection;
use crate::piece::{row_words, PieceId, Row};

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
/// SplitMix64 mix `bt_markov::SeedStream` uses for substream derivation.
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

/// Draws ranked candidate pieces one at a time, for one download
/// direction after another of a single downloader: the plan phase's
/// selection step, with scratch space reused across calls so a warm
/// ranker allocates nothing.
///
/// Each draw follows the §2.1 rule over the wanted pieces (held by the
/// uploader, missing at the downloader) not drawn yet: uniformly over
/// all of them for random-first, uniformly over the ones with the fewest
/// copies in the downloader's neighbor set for rarest-first.
///
/// The draws are those of selection without replacement over the wanted
/// list in increasing piece order, where a drawn piece is removed by
/// `swap_remove` (the last entry moves into its place) and a tie is
/// resolved by the `pick(ties)`-th tied entry in list order. That is the
/// engine's RNG stream; the ranker reproduces it without building the
/// list:
///
/// * the neighbor view is bit-sliced ([`Ranker::set_view`]): plane `j`
///   holds bit `j` of every piece's neighbor count, so the minimum-count
///   group of the remaining wanted pieces takes one masked pass over the
///   row's words per plane, not a scan of the pieces;
/// * a list position holds its original piece unless a `swap_remove`
///   moved another one there. After `r` draws at most `r` positions
///   have, and the ranker records only those. An unmoved piece's
///   position is its rank in the wanted mask, so the chosen tie's
///   position comes from rank/select over the mask and the moved entries.
///
/// Every `pick` call and its argument match the list-based ranking, so
/// every prefix of the draws, and the stream state after it, is the
/// same.
///
/// # Example
///
/// ```
/// use bt_swarm::config::PieceSelection;
/// use bt_swarm::piece::Bitfield;
/// use bt_swarm::selection::{PlanStream, Ranker};
///
/// let mine = Bitfield::new(4);
/// let mut theirs = Bitfield::new(4);
/// for p in 0..4 {
///     theirs.set(p);
/// }
/// // Two neighbors hold pieces 0, 2 and 3; piece 1 is rare.
/// let mut common = Bitfield::new(4);
/// for p in [0, 2, 3] {
///     common.set(p);
/// }
/// let mut ranker = Ranker::new(PieceSelection::RarestFirst, 4);
/// assert_eq!(ranker.set_view([common.row(), common.row()]), 2);
/// ranker.start(mine.row(), theirs.row());
/// let mut stream = PlanStream::pair(0, 1, 0, 1, 0);
/// assert_eq!(ranker.draw(&mut stream), Some(1));
/// assert!(ranker.draw(&mut stream).is_some());
/// ```
#[derive(Debug)]
pub struct Ranker {
    strategy: PieceSelection,
    pieces: u32,
    /// The neighbor view, one plane of the blocks' width per bit of the
    /// largest count: bit `j` of piece `p`'s count is bit `p % 64` of
    /// word `p / 64` of plane `j`.
    planes: Vec<Block>,
    /// The direction's wanted pieces at [`Ranker::start`]. Piece `p`'s
    /// list position before any draw is its rank in this mask.
    wanted: Vec<Block>,
    /// Wanted pieces not drawn yet.
    remaining: Vec<Block>,
    /// The remaining pieces of the minimum-count group the last draw
    /// chose from (all remaining pieces for random-first). Removing a
    /// piece cannot lower the minimum, so while the group keeps a piece
    /// it is still the minimum-count group.
    group: Vec<Block>,
    /// One draw's tie group, less its moved entries.
    ties: Vec<Block>,
    /// Length of the virtual list, counting the pending draw.
    len: u32,
    /// The last piece drawn, still in the list: a draw removes the one
    /// before it first, so a direction's last draw costs no removal.
    pending: Option<PieceId>,
    /// `(position, piece)` for every list position a `swap_remove`
    /// moved a piece into.
    moved: Vec<(u32, PieceId)>,
    /// One draw's moved entries that are in its tie group, by position.
    moved_ties: Vec<(u32, PieceId)>,
}

/// Four words of a piece mask. The ranker's masks are whole blocks,
/// zero past the file's last piece, so its word loops have a fixed
/// length the compiler unrolls (one block up to B = 256).
type Block = [u64; 4];

impl Ranker {
    /// A ranker for `strategy` over a file of `pieces` pieces.
    #[must_use]
    pub fn new(strategy: PieceSelection, pieces: u32) -> Self {
        let blocks = row_words(pieces).div_ceil(4);
        let mask = || vec![[0; 4]; blocks];
        Ranker {
            strategy,
            pieces,
            planes: Vec::new(),
            wanted: mask(),
            remaining: mask(),
            group: mask(),
            ties: mask(),
            len: 0,
            pending: None,
            moved: Vec::new(),
            moved_ties: Vec::new(),
        }
    }

    /// Replaces the neighbor view with the per-piece counts over `rows`,
    /// the downloader's neighbors' rows. Returns the rows read. Each row
    /// ripples up from plane 0, and a plane is added whenever the rows
    /// read reach a power of two, so the planes count any number of
    /// rows. Random-first draws ignore the view.
    ///
    /// # Panics
    ///
    /// Panics if a row covers a different file.
    pub fn set_view<'a>(&mut self, rows: impl IntoIterator<Item = Row<'a>>) -> u64 {
        self.planes.clear();
        let blocks = self.wanted.len();
        let width = blocks * 4;
        let mut read = 0u64;
        for row in rows {
            assert_eq!(row.len(), self.pieces, "bitfields cover different files");
            read += 1;
            if read.is_power_of_two() {
                self.planes.resize(self.planes.len() + blocks, [0; 4]);
            }
            let planes = self.planes.as_flattened_mut();
            for (w, &word) in row.words().iter().enumerate() {
                ripple(planes, width, w, word);
            }
        }
        read
    }

    /// Starts a download direction: the wanted pieces are those `theirs`
    /// holds and `mine` lacks, and nothing is drawn yet.
    ///
    /// # Panics
    ///
    /// Panics if a row covers a different file.
    pub fn start(&mut self, mine: Row<'_>, theirs: Row<'_>) {
        assert!(
            mine.len() == self.pieces && theirs.len() == self.pieces,
            "bitfields cover different files"
        );
        let wanted = self.wanted.as_flattened_mut();
        for ((wanted, &mine), &theirs) in wanted.iter_mut().zip(mine.words()).zip(theirs.words()) {
            *wanted = theirs & !mine;
        }
        self.remaining.copy_from_slice(&self.wanted);
        self.group.fill([0; 4]);
        self.len = ones(&self.wanted);
        self.pending = None;
        self.moved.clear();
    }

    /// Draws the direction's next rank, or `None` once every wanted
    /// piece is drawn. Makes exactly one `pick` call per rank drawn.
    pub fn draw<S: Substream + ?Sized>(&mut self, rng: &mut S) -> Option<PieceId> {
        if let Some(piece) = self.pending.take() {
            self.remove(piece);
        }
        if self.len == 0 {
            return None;
        }
        if ones(&self.group) == 0 {
            self.group.copy_from_slice(&self.remaining);
            if self.strategy == PieceSelection::RarestFirst {
                keep_minimum(&mut self.group, &self.planes);
            }
        }
        self.ties.copy_from_slice(&self.group);
        let nth = rng.pick(ones(&self.ties) as usize) as u32;

        // Moved ties sit at their recorded positions, the others at their
        // rank in the wanted mask: set the moved ones apart, by position.
        self.moved.sort_unstable();
        self.moved_ties.clear();
        for &(at, piece) in &self.moved {
            if take_bit(&mut self.ties, piece) {
                self.moved_ties.push((at, piece));
            }
        }
        let mut passed = 0;
        for &(at, piece) in &self.moved_ties {
            // The unmoved ties ahead of position `at` are the ones below
            // the piece the wanted mask places there.
            let ahead = rank(&self.ties, select(&self.wanted, at)) + passed;
            if nth < ahead {
                break;
            }
            if nth == ahead {
                self.pending = Some(piece);
                return self.pending;
            }
            passed += 1;
        }
        self.pending = Some(select(&self.ties, nth - passed));
        self.pending
    }

    /// Removes a drawn piece from the list as `swap_remove` does: the
    /// entry at the last position moves into the piece's position.
    fn remove(&mut self, piece: PieceId) {
        take_bit(&mut self.remaining, piece);
        take_bit(&mut self.group, piece);
        let pos = match self.moved.iter().position(|&(_, p)| p == piece) {
            Some(i) => self.moved.swap_remove(i).0,
            None => rank(&self.wanted, piece),
        };
        let last = self.len - 1;
        if pos != last {
            let from_last = match self.moved.iter().position(|&(at, _)| at == last) {
                Some(i) => self.moved.swap_remove(i).1,
                None => select(&self.wanted, last),
            };
            self.moved.push((pos, from_last));
        }
        self.len = last;
    }
}

/// Adds `carry`, at the weight of plane 0, into word `w` of the count
/// planes (`width` words each), rippling it up.
fn ripple(planes: &mut [u64], width: usize, w: usize, mut carry: u64) {
    for bits in planes[w..].iter_mut().step_by(width) {
        let next = *bits & carry;
        *bits ^= carry;
        carry = next;
    }
}

/// Narrows `group` to its pieces of minimum count in `planes`: from the
/// top plane down, keep the pieces whose bit is clear if any are.
fn keep_minimum(group: &mut [Block], planes: &[Block]) {
    for plane in planes.chunks_exact(group.len()).rev() {
        let clear = group
            .iter()
            .zip(plane)
            .fold(0, |any, (pieces, bits)| any | clear_bits(pieces, bits));
        for (pieces, bits) in group.iter_mut().zip(plane) {
            narrow(pieces, bits, clear);
        }
    }
}

/// The pieces of `pieces` whose bit in `bits` is clear, folded into one
/// word: zero if and only if there are none.
fn clear_bits(pieces: &Block, bits: &Block) -> u64 {
    pieces
        .iter()
        .zip(bits)
        .fold(0, |any, (&piece, &bit)| any | (piece & !bit))
}

/// Drops the pieces whose bit in `bits` is set, if `clear` says some
/// piece has it clear. Nothing branches on the data.
fn narrow(pieces: &mut Block, bits: &Block, clear: u64) {
    let keep = 0u64.wrapping_sub(u64::from(clear != 0));
    for (piece, &bit) in pieces.iter_mut().zip(bits) {
        *piece &= !(bit & keep);
    }
}

/// Number of set bits in `mask`.
fn ones(mask: &[Block]) -> u32 {
    mask.as_flattened().iter().map(|w| w.count_ones()).sum()
}

/// Number of set bits in `mask` below bit `p`.
fn rank(mask: &[Block], p: PieceId) -> u32 {
    let (word, below) = ((p / 64) as usize, (1 << (p % 64)) - 1);
    mask.as_flattened()
        .iter()
        .enumerate()
        .map(|(i, &bits)| {
            let keep = match i.cmp(&word) {
                std::cmp::Ordering::Less => u64::MAX,
                std::cmp::Ordering::Equal => below,
                std::cmp::Ordering::Greater => 0,
            };
            (bits & keep).count_ones()
        })
        .sum()
}

/// The `n`-th set bit of `mask`, counting from 0.
///
/// # Panics
///
/// Panics if `mask` has at most `n` set bits.
fn select(mask: &[Block], mut n: u32) -> PieceId {
    for (i, &word) in mask.as_flattened().iter().enumerate() {
        let count = word.count_ones();
        if n < count {
            return i as u32 * 64 + select_in_word(word, n);
        }
        n -= count;
    }
    panic!("select past the last set bit");
}

/// The `n`-th set bit of `word` (`n` below its popcount): halve the
/// search three times by popcount, then look the bit up in its byte,
/// without branching on the data.
fn select_in_word(mut word: u64, mut n: u32) -> u32 {
    let mut base = 0;
    for width in [32, 16, 8] {
        let low = (word & ((1 << width) - 1)).count_ones();
        let up = u32::from(n >= low);
        n -= low * up;
        word >>= width * up;
        base += width * up;
    }
    base + u32::from(SELECT_IN_BYTE[(word & 0xFF) as usize][n as usize])
}

/// `SELECT_IN_BYTE[x][n]` is the position of the `n`-th set bit of `x`
/// (0 where `x` has no `n`-th bit).
const SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut x = 0;
    while x < 256 {
        let (mut bit, mut n) = (0, 0);
        while bit < 8 {
            if (x >> bit) & 1 == 1 {
                table[x][n] = bit as u8;
                n += 1;
            }
            bit += 1;
        }
        x += 1;
    }
    table
};

/// Clears bit `p` of `mask`; returns whether it was set.
fn take_bit(mask: &mut [Block], p: PieceId) -> bool {
    let word = &mut mask.as_flattened_mut()[(p / 64) as usize];
    let bit = 1 << (p % 64);
    let was = *word & bit != 0;
    *word &= !bit;
    was
}

/// Per-piece replication counts over a collection of rows (the view a
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
    I: IntoIterator<Item = Row<'a>>,
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
    use crate::piece::Bitfield;
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
        let mut remaining: Vec<PieceId> = theirs.iter().filter(|&p| !mine.contains(p)).collect();
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

    /// A ranker whose view counts `counts[p]` neighbors holding piece
    /// `p`: one row per count level, so up to 255 rows in 8 planes.
    fn ranker_with(strategy: PieceSelection, pieces: u32, counts: &[u8]) -> Ranker {
        let levels = counts.iter().copied().max().unwrap_or(0);
        let rows: Vec<Bitfield> = (0..levels)
            .map(|level| {
                let mut row = Bitfield::new(pieces);
                for (p, &c) in counts.iter().enumerate() {
                    if c > level {
                        row.set(p as u32);
                    }
                }
                row
            })
            .collect();
        let mut ranker = Ranker::new(strategy, pieces);
        assert_eq!(
            ranker.set_view(rows.iter().map(Bitfield::row)),
            u64::from(levels)
        );
        ranker
    }

    /// Up to `limit` ranks of one direction.
    fn draws<S: Substream>(
        ranker: &mut Ranker,
        mine: &Bitfield,
        theirs: &Bitfield,
        limit: usize,
        rng: &mut S,
    ) -> Vec<PieceId> {
        ranker.start(mine.row(), theirs.row());
        std::iter::from_fn(|| ranker.draw(rng))
            .take(limit)
            .collect()
    }

    /// The top-ranked piece, as the engine's first candidate.
    fn top<S: Substream>(
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        counts: &[u8],
        rng: &mut S,
    ) -> Option<PieceId> {
        let mut ranker = ranker_with(strategy, mine.len(), counts);
        draws(&mut ranker, mine, theirs, 1, rng).first().copied()
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
        assert_eq!(draws_a[..8], [235, 961, 554, 865, 579, 19, 205, 487]);
        let mut raw = PlanStream::pair(42, 3, 10, 17, 0);
        assert_eq!(
            [raw.next_u64(), raw.next_u64(), raw.next_u64()],
            [
                0x20d1_7466_a3a6_b6c3,
                0xe694_6e9c_0368_1df1,
                0x20e1_cef0_0258_a60a
            ]
        );
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
        let mut ranker = Ranker::new(PieceSelection::RandomFirst, 8);
        let mut out = draws(&mut ranker, &mine, &theirs, 10, &mut stream);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3, 4], "all wanted pieces, each once");
        assert_eq!(ranker.draw(&mut stream), None, "the list is spent");
    }

    #[test]
    fn ranker_respects_limit_and_empty_want() {
        let mine = bf(8, &[]);
        let theirs = bf(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut stream = PlanStream::pair(2, 1, 0, 1, 0);
        let mut ranker = Ranker::new(PieceSelection::RandomFirst, 8);
        assert_eq!(draws(&mut ranker, &mine, &theirs, 3, &mut stream).len(), 3);
        // A new direction starts afresh, whatever the last one left.
        let full = bf(8, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let before = stream;
        assert!(draws(&mut ranker, &full, &theirs, 3, &mut stream).is_empty());
        assert_eq!(
            stream.pick(usize::MAX),
            { before }.pick(usize::MAX),
            "nothing wanted draws nothing from the stream"
        );
    }

    #[test]
    fn ranker_orders_rarest_first() {
        let mine = bf(6, &[]);
        let theirs = bf(6, &[0, 1, 2, 3]);
        let mut ranker = ranker_with(PieceSelection::RarestFirst, 6, &[9, 1, 5, 5, 0, 0]);
        let mut stream = PlanStream::pair(3, 1, 0, 1, 0);
        let out = draws(&mut ranker, &mine, &theirs, 10, &mut stream);
        assert_eq!(out[0], 1, "unique rarest piece ranks first");
        assert_eq!(out[3], 0, "most replicated ranks last");
        assert!(out[1] == 2 || out[1] == 3, "ties fill the middle ranks");
    }

    /// Draws one direction to its end and checks every prefix against
    /// the oracle run with that prefix's length as its limit: the same
    /// list, and the same next draw from the stream afterwards. Limits
    /// past the wanted count must leave both unchanged.
    fn assert_matches_oracle(
        ranker: &mut Ranker,
        strategy: PieceSelection,
        mine: &Bitfield,
        theirs: &Bitfield,
        counts: &[u8],
        seed: u64,
    ) {
        let replication: Vec<u64> = counts.iter().map(|&c| u64::from(c)).collect();
        let wanted = theirs.iter().filter(|&p| !mine.contains(p)).count();
        let mut stream = PlanStream::pair(seed, 1, 2, 3, 0);
        let mut drawn = Vec::new();
        let mut expected = Vec::new();
        ranker.start(mine.row(), theirs.row());
        for limit in 0..=wanted + 2 {
            let mut oracle_stream = PlanStream::pair(seed, 1, 2, 3, 0);
            rank_pieces(
                strategy,
                mine,
                theirs,
                &replication,
                limit,
                &mut oracle_stream,
                &mut expected,
            );
            assert_eq!(drawn, expected, "{strategy:?} limit {limit}");
            assert_eq!(
                { stream }.pick(usize::MAX),
                oracle_stream.pick(usize::MAX),
                "{strategy:?} limit {limit}: streams diverged after ranking"
            );
            drawn.extend(ranker.draw(&mut stream));
        }
        assert_eq!(drawn.len(), wanted, "every wanted piece drawn once");
    }

    #[test]
    fn ranker_matches_oracle_at_edge_sizes() {
        // One ranker per strategy serves every direction, so scratch
        // state left by one direction must not leak into the next. Keys
        // up to 255 fill all eight planes.
        let mut rng = StdRng::seed_from_u64(8);
        for pieces in [1, 7, 8, 63, 64, 65, 100, 128, 200, 260] {
            for trial in 0..20u64 {
                let max_key = [0u8, 1, 2, 7, 255][trial as usize % 5];
                let mut mine = Bitfield::new(pieces);
                let mut theirs = Bitfield::new(pieces);
                let counts: Vec<u8> = (0..pieces).map(|_| rng.gen_range(0..=max_key)).collect();
                for p in 0..pieces {
                    if rng.gen_bool(0.3) {
                        mine.set(p);
                    }
                    if rng.gen_bool(0.7) {
                        theirs.set(p);
                    }
                }
                for strategy in [PieceSelection::RarestFirst, PieceSelection::RandomFirst] {
                    let mut ranker = ranker_with(strategy, pieces, &counts);
                    for seed in [trial, 99] {
                        assert_matches_oracle(&mut ranker, strategy, &mine, &theirs, &counts, seed);
                        assert_matches_oracle(&mut ranker, strategy, &theirs, &mine, &counts, seed);
                    }
                }
            }
        }
    }

    #[test]
    fn ranker_matches_oracle_on_an_empty_want() {
        let mine = bf(70, &(0..70).collect::<Vec<_>>());
        let theirs = bf(70, &[3, 69]);
        for strategy in [PieceSelection::RarestFirst, PieceSelection::RandomFirst] {
            let mut ranker = ranker_with(strategy, 70, &[1; 70]);
            assert_matches_oracle(&mut ranker, strategy, &mine, &theirs, &[1; 70], 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn ranker_matches_list_oracle(
            pieces in 1u32..=260,
            mine_density in 0u8..100,
            theirs_density in 0u8..100,
            max_key in 0u8..=255,
            random_first in prop::bool::ANY,
            seed in any::<u64>(),
        ) {
            // Small `max_key` values give heavy ties; 255 gives nearly
            // distinct keys in all eight planes.
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
            // The second direction runs on the scratch state the first left.
            let mut ranker = ranker_with(strategy, pieces, &counts);
            assert_matches_oracle(&mut ranker, strategy, &mine, &theirs, &counts, seed);
            assert_matches_oracle(&mut ranker, strategy, &theirs, &mine, &counts, seed);
        }
    }

    #[test]
    fn set_view_counts_each_row_in_the_planes() {
        // Counts from 0 to 255 across B = 77 (the last word is partial):
        // the rarest-first draw order of a full want sorts them.
        let counts: Vec<u8> = (0..77u32).map(|p| ((p * 97) % 256) as u8).collect();
        let mut ranker = ranker_with(PieceSelection::RarestFirst, 77, &counts);
        let mut stream = PlanStream::pair(4, 1, 0, 1, 0);
        let order = draws(
            &mut ranker,
            &Bitfield::new(77),
            &bf(77, &(0..77).collect::<Vec<_>>()),
            77,
            &mut stream,
        );
        let keys: Vec<u8> = order.iter().map(|&p| counts[p as usize]).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
    }

    #[test]
    fn set_view_adds_planes_past_eight() {
        // 300 rows: piece 0 is in every row, piece 1 in the first 256
        // and piece 2 in the first 257, so the counts need nine planes
        // and rarest-first draws 1, 2, 0.
        let rows: Vec<Bitfield> = (0..300)
            .map(|r| match r {
                0..256 => bf(3, &[0, 1, 2]),
                256 => bf(3, &[0, 2]),
                _ => bf(3, &[0]),
            })
            .collect();
        let mut ranker = Ranker::new(PieceSelection::RarestFirst, 3);
        assert_eq!(ranker.set_view(rows.iter().map(Bitfield::row)), 300);
        let mut stream = PlanStream::pair(6, 1, 0, 1, 0);
        let order = draws(&mut ranker, &bf(3, &[]), &bf(3, &[0, 1, 2]), 3, &mut stream);
        assert_eq!(order, vec![1, 2, 0]);
        // A smaller view after it drops the planes it no longer needs.
        assert_eq!(ranker.set_view([bf(3, &[1]).row()]), 1);
        let order = draws(&mut ranker, &bf(3, &[]), &bf(3, &[0, 1, 2]), 3, &mut stream);
        assert_eq!(order[2], 1, "the only held piece ranks last");
    }

    #[test]
    #[should_panic(expected = "different files")]
    fn a_ranker_checks_row_lengths() {
        let mut ranker = Ranker::new(PieceSelection::RarestFirst, 65);
        ranker.start(bf(64, &[]).row(), bf(64, &[0]).row());
    }

    #[test]
    fn replication_counts_sum() {
        let fields = [bf(4, &[0, 1]), bf(4, &[1, 2]), bf(4, &[1])];
        let counts = replication_counts(4, fields.iter().map(Bitfield::row));
        assert_eq!(counts, vec![1, 3, 1, 0]);
    }
}
