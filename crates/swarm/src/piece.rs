//! Pieces and piece-possession bitfields.

use rand::Rng;

/// Identifier of a piece: its index in `0..B`.
pub type PieceId = u32;

/// A fixed-size bitfield recording which of a file's `B` pieces a peer
/// holds.
///
/// # Example
///
/// ```
/// use bt_swarm::piece::Bitfield;
///
/// let mut have = Bitfield::new(10);
/// have.set(3);
/// have.set(7);
/// assert_eq!(have.count(), 2);
/// assert!(have.contains(3));
/// assert!(!have.is_complete());
/// let missing: Vec<u32> = have.iter_missing().collect();
/// assert_eq!(missing.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bitfield {
    words: Vec<u64>,
    len: u32,
    count: u32,
}

impl Bitfield {
    /// Creates an empty bitfield over `len` pieces.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(len: u32) -> Self {
        assert!(len > 0, "a file has at least one piece");
        Bitfield {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// Creates a complete bitfield (a seed's possession map).
    #[must_use]
    pub fn full(len: u32) -> Self {
        let mut bf = Bitfield::new(len);
        for p in 0..len {
            bf.set(p);
        }
        bf
    }

    /// Number of pieces in the file.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the peer holds no pieces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of pieces held.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Whether all pieces are held.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.count == self.len
    }

    /// Whether piece `p` is held.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len`.
    #[must_use]
    pub fn contains(&self, p: PieceId) -> bool {
        assert!(p < self.len, "piece {p} out of range {}", self.len);
        self.words[(p / 64) as usize] & (1 << (p % 64)) != 0
    }

    /// Marks piece `p` as held. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len`.
    pub fn set(&mut self, p: PieceId) -> bool {
        assert!(p < self.len, "piece {p} out of range {}", self.len);
        let word = &mut self.words[(p / 64) as usize];
        let mask = 1 << (p % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.count += 1;
        true
    }

    /// Iterates over held pieces in increasing order.
    ///
    /// Word-at-a-time via `trailing_zeros`, so sparse bitfields cost
    /// O(words + held) rather than O(len).
    pub fn iter(&self) -> SetBits<'_> {
        SetBits(WordBits::new(self.words.iter().copied()))
    }

    /// Iterates over missing pieces in increasing order.
    pub fn iter_missing(&self) -> impl Iterator<Item = PieceId> + '_ {
        let last = self.words.len().saturating_sub(1);
        let tail_bits = self.len % 64;
        let words = self.words.iter().enumerate().map(move |(i, &word)| {
            // Invert, then mask off the phantom bits past `len` in the
            // final word so they do not read as "missing".
            if i == last && tail_bits != 0 {
                !word & ((1u64 << tail_bits) - 1)
            } else {
                !word
            }
        });
        WordBits::new(words)
    }

    /// Adds one to `counts[p]` for every held piece `p` — the inner
    /// loop of replication counting, word-at-a-time.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is shorter than `len` pieces.
    pub fn accumulate_into(&self, counts: &mut [u64]) {
        assert!(
            counts.len() >= self.len as usize,
            "count table shorter than bitfield"
        );
        for (i, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = i * 64 + bits.trailing_zeros() as usize;
                counts[p] += 1;
                bits &= bits - 1;
            }
        }
    }

    /// Adds this bitfield into a byte-lane count table: lane `p` (byte
    /// `p % 8` of `lanes[p / 8]`) gains one for every held piece `p`.
    ///
    /// Each 64-bit word costs eight lookups into a 256-entry table that
    /// spreads a byte's bits into the low bit of eight lanes; zero words
    /// are skipped. Lanes do not saturate: a table summing more than
    /// 255 bitfields carries into the next lane, which is why the swarm
    /// caps `neighbor_set_size` at 255.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is shorter than [`lane_words`]`(len)`.
    pub fn accumulate_lanes(&self, lanes: &mut [u64]) {
        assert!(
            lanes.len() >= lane_words(self.len),
            "lane table shorter than bitfield"
        );
        // Eight lane words per bitfield word; the last group is partial
        // when B is not a multiple of 64, and its phantom bits are 0.
        let (groups, tail) = lanes[..lane_words(self.len)].as_chunks_mut::<8>();
        for (group, &word) in groups.iter_mut().zip(&self.words) {
            add_spread(group, word);
        }
        if let Some(&word) = self.words.get(groups.len()) {
            add_spread(tail, word);
        }
    }

    /// Whether `other` holds at least one piece that `self` lacks
    /// (`self` is *interested in* `other`, in protocol terms).
    ///
    /// # Panics
    ///
    /// Panics if the bitfields cover different files.
    #[must_use]
    pub fn is_interested_in(&self, other: &Bitfield) -> bool {
        assert_eq!(self.len, other.len, "bitfields cover different files");
        self.words
            .iter()
            .zip(&other.words)
            .any(|(mine, theirs)| theirs & !mine != 0)
    }

    /// Whether `self` and `other` can trade under strict tit-for-tat:
    /// each holds at least one piece the other lacks (the paper's
    /// potential-set membership test).
    #[must_use]
    pub fn can_trade_with(&self, other: &Bitfield) -> bool {
        self.is_interested_in(other) && other.is_interested_in(self)
    }

    /// Calls `visit` on every piece `other` holds that `self` lacks, in
    /// increasing order, without materializing the set.
    ///
    /// # Panics
    ///
    /// Panics if the bitfields cover different files.
    pub fn for_each_wanted(&self, other: &Bitfield, mut visit: impl FnMut(PieceId)) {
        assert_eq!(self.len, other.len, "bitfields cover different files");
        for (i, (mine, theirs)) in self.words.iter().zip(&other.words).enumerate() {
            let mut bits = theirs & !mine;
            while bits != 0 {
                visit(i as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// A uniformly random missing piece, or `None` if complete.
    pub fn random_missing<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<PieceId> {
        let missing: Vec<PieceId> = self.iter_missing().collect();
        if missing.is_empty() {
            None
        } else {
            Some(missing[rng.gen_range(0..missing.len())])
        }
    }
}

/// Number of `u64` words in a byte-lane count table over `pieces`
/// pieces: eight one-byte lanes per word.
#[must_use]
pub fn lane_words(pieces: u32) -> usize {
    (pieces as usize).div_ceil(8)
}

/// The count in lane `p` of a byte-lane table filled by
/// [`Bitfield::accumulate_lanes`].
#[must_use]
pub fn lane(lanes: &[u64], p: PieceId) -> u32 {
    ((lanes[(p / 8) as usize] >> (8 * (p % 8))) & 0xFF) as u32
}

/// Adds byte `b` of `word`, spread one bit per lane, to `group[b]`.
#[inline]
fn add_spread(group: &mut [u64], word: u64) {
    if word == 0 {
        return;
    }
    for (b, lanes) in group.iter_mut().enumerate() {
        *lanes += SPREAD[((word >> (8 * b)) & 0xFF) as usize];
    }
}

/// `SPREAD[x]` has bit `b` of `x` in the low bit of byte `b`: adding it
/// to a lane word adds one to the lanes of the pieces set in byte `x`.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut x = 0;
    while x < 256 {
        let mut b = 0;
        while b < 8 {
            if (x >> b) & 1 == 1 {
                table[x] |= 1 << (8 * b);
            }
            b += 1;
        }
        x += 1;
    }
    table
};

/// Iterator over the set bits of a stream of 64-bit words, yielding
/// bit indices in increasing order via `trailing_zeros`.
struct WordBits<I> {
    words: I,
    current: u64,
    /// Base piece index of the word in `current`. Starts one word
    /// "before" zero so the first load lands on base 0.
    base: u32,
}

impl<I: Iterator<Item = u64>> WordBits<I> {
    fn new(words: I) -> Self {
        WordBits {
            words,
            current: 0,
            base: 0u32.wrapping_sub(64),
        }
    }
}

impl<I: Iterator<Item = u64>> Iterator for WordBits<I> {
    type Item = PieceId;

    fn next(&mut self) -> Option<PieceId> {
        while self.current == 0 {
            self.current = self.words.next()?;
            self.base = self.base.wrapping_add(64);
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some(self.base + bit)
    }
}

/// Iterator over held pieces, returned by [`Bitfield::iter`].
pub struct SetBits<'a>(WordBits<std::iter::Copied<std::slice::Iter<'a, u64>>>);

impl Iterator for SetBits<'_> {
    type Item = PieceId;

    fn next(&mut self) -> Option<PieceId> {
        self.0.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_is_empty_full_is_complete() {
        let empty = Bitfield::new(100);
        assert!(empty.is_empty());
        assert_eq!(empty.count(), 0);
        let full = Bitfield::full(100);
        assert!(full.is_complete());
        assert_eq!(full.count(), 100);
    }

    #[test]
    fn set_is_idempotent() {
        let mut bf = Bitfield::new(65);
        assert!(bf.set(64));
        assert!(!bf.set(64));
        assert_eq!(bf.count(), 1);
        assert!(bf.contains(64));
        assert!(!bf.contains(63));
    }

    #[test]
    fn iter_and_missing_partition() {
        let mut bf = Bitfield::new(10);
        bf.set(1);
        bf.set(9);
        let have: Vec<_> = bf.iter().collect();
        let missing: Vec<_> = bf.iter_missing().collect();
        assert_eq!(have, vec![1, 9]);
        assert_eq!(have.len() + missing.len(), 10);
        assert!(!missing.contains(&1));
    }

    #[test]
    fn interest_is_directional() {
        let mut a = Bitfield::new(4);
        let mut b = Bitfield::new(4);
        a.set(0);
        b.set(0);
        b.set(1);
        assert!(a.is_interested_in(&b)); // b has piece 1
        assert!(!b.is_interested_in(&a)); // a has nothing new
        assert!(!a.can_trade_with(&b));
    }

    #[test]
    fn trade_requires_mutual_novelty() {
        let mut a = Bitfield::new(4);
        let mut b = Bitfield::new(4);
        a.set(0);
        b.set(1);
        assert!(a.can_trade_with(&b));
        assert!(b.can_trade_with(&a));
    }

    #[test]
    fn identical_sets_cannot_trade() {
        let mut a = Bitfield::new(4);
        let mut b = Bitfield::new(4);
        for p in [0, 2] {
            a.set(p);
            b.set(p);
        }
        assert!(!a.can_trade_with(&b));
    }

    fn wanted(mine: &Bitfield, theirs: &Bitfield) -> Vec<PieceId> {
        let mut out = Vec::new();
        mine.for_each_wanted(theirs, |p| out.push(p));
        out
    }

    #[test]
    fn for_each_wanted_lists_difference() {
        let mut a = Bitfield::new(5);
        let mut b = Bitfield::new(5);
        a.set(0);
        b.set(0);
        b.set(2);
        b.set(4);
        assert_eq!(wanted(&a, &b), vec![2, 4]);
        assert!(wanted(&b, &a).is_empty());
    }

    #[test]
    fn for_each_wanted_crosses_word_boundaries() {
        let mut mine = Bitfield::new(130);
        let mut theirs = Bitfield::new(130);
        for p in [0, 63, 64, 100, 129] {
            theirs.set(p);
        }
        mine.set(64);
        assert_eq!(wanted(&mine, &theirs), vec![0, 63, 100, 129]);
    }

    #[test]
    fn random_missing_respects_support() {
        let mut bf = Bitfield::new(6);
        for p in [0, 1, 2, 4, 5] {
            bf.set(p);
        }
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            assert_eq!(bf.random_missing(&mut rng), Some(3));
        }
        bf.set(3);
        assert_eq!(bf.random_missing(&mut rng), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_bounds_checked() {
        let _ = Bitfield::new(5).contains(5);
    }

    #[test]
    #[should_panic(expected = "different files")]
    fn interest_requires_same_len() {
        let _ = Bitfield::new(5).is_interested_in(&Bitfield::new(6));
    }

    #[test]
    fn word_boundary_cases() {
        let mut bf = Bitfield::new(128);
        bf.set(63);
        bf.set(64);
        bf.set(127);
        assert_eq!(bf.iter().collect::<Vec<_>>(), vec![63, 64, 127]);
        assert_eq!(bf.count(), 3);
    }

    #[test]
    fn iter_missing_masks_phantom_tail_bits() {
        // 70 pieces = one full word + a 6-bit tail; the 58 phantom bits
        // of the second word must never surface as "missing".
        let mut bf = Bitfield::new(70);
        for p in 0..70 {
            bf.set(p);
        }
        assert_eq!(bf.iter_missing().count(), 0);
        let mut partial = Bitfield::new(70);
        partial.set(0);
        partial.set(69);
        let missing: Vec<_> = partial.iter_missing().collect();
        assert_eq!(missing.len(), 68);
        assert_eq!(missing.first(), Some(&1));
        assert_eq!(missing.last(), Some(&68));
    }

    #[test]
    fn accumulate_into_counts_each_held_piece() {
        let mut a = Bitfield::new(70);
        let mut b = Bitfield::new(70);
        for p in [0, 63, 64, 69] {
            a.set(p);
        }
        b.set(63);
        let mut counts = vec![0u64; 70];
        a.accumulate_into(&mut counts);
        b.accumulate_into(&mut counts);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[63], 2);
        assert_eq!(counts[64], 1);
        assert_eq!(counts[69], 1);
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn accumulate_lanes_matches_accumulate_into() {
        // B = 77 is a multiple of neither 8 nor 64, so the last lane word
        // and the last bitfield word are both partial.
        let mut rng = StdRng::seed_from_u64(9);
        for pieces in [1, 8, 64, 77, 200] {
            let mut counts = vec![0u64; pieces as usize];
            let mut lanes = vec![0u64; lane_words(pieces)];
            for _ in 0..40 {
                let mut bf = Bitfield::new(pieces);
                for p in 0..pieces {
                    if rng.gen_bool(0.3) {
                        bf.set(p);
                    }
                }
                bf.accumulate_into(&mut counts);
                bf.accumulate_lanes(&mut lanes);
            }
            for p in 0..pieces {
                assert_eq!(
                    u64::from(lane(&lanes, p)),
                    counts[p as usize],
                    "B={pieces} p={p}"
                );
            }
        }
    }

    #[test]
    fn accumulate_lanes_holds_255_full_neighbors() {
        let pieces = 77;
        let full = Bitfield::full(pieces);
        let mut counts = vec![0u64; pieces as usize];
        let mut lanes = vec![0u64; lane_words(pieces)];
        for _ in 0..255 {
            full.accumulate_into(&mut counts);
            full.accumulate_lanes(&mut lanes);
        }
        for p in 0..pieces {
            assert_eq!(lane(&lanes, p), 255, "lane {p} saturates without carry");
            assert_eq!(u64::from(lane(&lanes, p)), counts[p as usize]);
        }
        // Lanes past B stay zero: phantom bits are never set.
        assert!((pieces..lanes.len() as u32 * 8).all(|p| lane(&lanes, p) == 0));
    }
}
