//! Pieces and piece-possession bitfields.

/// Identifier of a piece: its index in `0..B`.
pub type PieceId = u32;

/// A fixed-size bitfield recording which of a file's `B` pieces a peer
/// holds: the owned form of a [`Row`].
///
/// Every read goes through [`Bitfield::row`], so an owned bitfield and a
/// row of the peer store's possession table answer with the same code.
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
            words: vec![0; row_words(len)],
            len,
        }
    }

    /// The read-only view every query goes through.
    #[must_use]
    pub fn row(&self) -> Row<'_> {
        Row::new(&self.words, self.len)
    }

    /// Number of pieces in the file.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the peer holds no pieces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row().is_empty()
    }

    /// Number of pieces held.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.row().count()
    }

    /// Whether all pieces are held.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.row().is_complete()
    }

    /// Whether piece `p` is held.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len`.
    #[must_use]
    pub fn contains(&self, p: PieceId) -> bool {
        self.row().contains(p)
    }

    /// Marks piece `p` as held. Returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len`.
    pub fn set(&mut self, p: PieceId) -> bool {
        set_piece(&mut self.words, self.len, p)
    }

    /// Iterates over held pieces in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = PieceId> + '_ {
        self.row().iter()
    }

    /// Iterates over missing pieces in increasing order.
    pub fn iter_missing(&self) -> impl Iterator<Item = PieceId> + '_ {
        self.row().iter_missing()
    }

    /// Whether `self` and `other` can trade under strict tit-for-tat
    /// ([`Row::can_trade_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the bitfields cover different files.
    #[must_use]
    pub fn can_trade_with(&self, other: &Bitfield) -> bool {
        self.row().can_trade_with(other.row())
    }
}

/// Number of `u64` words in a possession bitfield over `pieces` pieces.
pub(crate) fn row_words(pieces: u32) -> usize {
    (pieces as usize).div_ceil(64)
}

/// Marks piece `p` held in the bitfield words `words` over `len`
/// pieces. Returns `true` if it was newly added. The one write both an
/// owned [`Bitfield`] and the peer store's possession table use.
///
/// # Panics
///
/// Panics if `p >= len`.
pub(crate) fn set_piece(words: &mut [u64], len: u32, p: PieceId) -> bool {
    assert!(p < len, "piece {p} out of range {len}");
    let word = &mut words[(p / 64) as usize];
    let mask = 1 << (p % 64);
    if *word & mask != 0 {
        return false;
    }
    *word |= mask;
    true
}

/// A borrowed possession bitfield: the `⌈B/64⌉` words of one peer's
/// row in the peer store's possession table, or of a [`Bitfield`].
///
/// Piece `p` is bit `p % 64` of word `p / 64`; bits past `B` are zero.
/// The count is a popcount over the words, so nothing beside the bits
/// has to be kept in step with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    words: &'a [u64],
    len: u32,
}

impl<'a> Row<'a> {
    /// The row over `words` for a file of `len` pieces.
    #[inline]
    pub(crate) fn new(words: &'a [u64], len: u32) -> Self {
        debug_assert_eq!(words.len(), row_words(len), "row width");
        Row { words, len }
    }

    /// Number of pieces in the file.
    #[must_use]
    pub fn len(self) -> u32 {
        self.len
    }

    /// Whether the peer holds no pieces.
    #[must_use]
    #[inline]
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of pieces held: a popcount of the words.
    #[must_use]
    #[inline]
    pub fn count(self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether all pieces are held.
    #[must_use]
    pub fn is_complete(self) -> bool {
        self.count() == self.len
    }

    /// Completion fraction `pieces held / B`.
    #[must_use]
    pub fn completion(self) -> f64 {
        f64::from(self.count()) / f64::from(self.len)
    }

    /// Whether piece `p` is held.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len`.
    #[must_use]
    #[inline]
    pub fn contains(self, p: PieceId) -> bool {
        assert!(p < self.len, "piece {p} out of range {}", self.len);
        self.words[(p / 64) as usize] & (1 << (p % 64)) != 0
    }

    /// Iterates over held pieces in increasing order.
    ///
    /// Word-at-a-time via `trailing_zeros`, so sparse rows cost
    /// O(words + held) rather than O(len).
    pub fn iter(self) -> impl Iterator<Item = PieceId> + 'a {
        WordBits::new(self.words.iter().copied())
    }

    /// Iterates over missing pieces in increasing order.
    pub fn iter_missing(self) -> impl Iterator<Item = PieceId> + 'a {
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

    /// The row's words: piece `p` is bit `p % 64` of word `p / 64`.
    #[inline]
    pub(crate) fn words(self) -> &'a [u64] {
        self.words
    }

    /// Whether `other` holds at least one piece that `self` lacks
    /// (`self` is *interested in* `other`, in protocol terms).
    ///
    /// # Panics
    ///
    /// Panics if the rows cover different files.
    #[must_use]
    #[inline]
    pub fn is_interested_in(self, other: Row<'_>) -> bool {
        assert_eq!(self.len, other.len, "bitfields cover different files");
        self.words
            .iter()
            .zip(other.words)
            .any(|(mine, theirs)| theirs & !mine != 0)
    }

    /// Whether `self` and `other` can trade under strict tit-for-tat:
    /// each holds at least one piece the other lacks (the paper's
    /// potential-set membership test).
    #[must_use]
    #[inline]
    pub fn can_trade_with(self, other: Row<'_>) -> bool {
        self.is_interested_in(other) && other.is_interested_in(self)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete bitfield (a seed's possession map).
    fn full(len: u32) -> Bitfield {
        let mut bf = Bitfield::new(len);
        for p in 0..len {
            bf.set(p);
        }
        bf
    }

    #[test]
    fn new_is_empty_full_is_complete() {
        let empty = Bitfield::new(100);
        assert!(empty.is_empty());
        assert_eq!(empty.count(), 0);
        let full = full(100);
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
        assert!(a.row().is_interested_in(b.row())); // b has piece 1
        assert!(!b.row().is_interested_in(a.row())); // a has nothing new
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_bounds_checked() {
        let _ = Bitfield::new(5).contains(5);
    }

    #[test]
    #[should_panic(expected = "different files")]
    fn interest_requires_same_len() {
        let _ = Bitfield::new(5)
            .row()
            .is_interested_in(Bitfield::new(6).row());
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
}
