//! A fixed-capacity bitset over dense vertex ids.

use crate::vertex::VertexId;

const WORD_BITS: usize = 64;

/// A fixed-size bitset backed by `u64` words.
///
/// Used as the "visited" set of every traversal and as the raw representation
/// of per-source reachable sets before interval compression (the transitive
/// closure baseline of Section 3.6 / PWAH \[28\]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates a bitset able to hold `len` bits, all initially clear.
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits the set can hold.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset has capacity zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`. Returns `true` if the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let was_clear = self.words[w] & mask == 0;
        self.words[w] |= mask;
        was_clear
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words[w] &= !(1u64 << b);
    }

    /// Tests bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words[w] & (1u64 << b) != 0
    }

    /// Convenience: sets the bit for a vertex id.
    #[inline]
    pub fn insert_vertex(&mut self, v: VertexId) -> bool {
        self.insert(v.index())
    }

    /// Convenience: tests the bit for a vertex id.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.contains(v.index())
    }

    /// Clears every bit, keeping the capacity (workhorse-reuse pattern for
    /// repeated traversals).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union with another bitset of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset lengths must match for union");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// True if any bit is set in both bitsets.
    pub fn intersects(&self, other: &FixedBitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Grows the capacity to at least `len` bits, preserving existing bits
    /// (no-op when already large enough). This is what lets a thread-local
    /// scratch bitset be reused across graphs of different sizes.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.words.resize(len.div_ceil(WORD_BITS), 0);
            self.len = len;
        }
    }

    /// Sets the bit for every id in `ids`.
    pub fn insert_ids(&mut self, ids: &[u32]) {
        for &i in ids {
            self.insert(i as usize);
        }
    }

    /// Clears the bit for every id in `ids` — the sparse counterpart of
    /// [`FixedBitSet::clear`] for scratch bitsets whose set positions are
    /// known, costing `O(|ids|)` instead of `O(capacity)`.
    pub fn remove_ids(&mut self, ids: &[u32]) {
        for &i in ids {
            self.remove(i as usize);
        }
    }

    /// Iterator over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// The backing words, least-significant bit first (bit `i` lives at
    /// `words()[i / 64] & (1 << (i % 64))`). Exposed so flat bitset layouts
    /// (e.g. stride-indexed row stores) can intersect against a scratch
    /// bitset without materializing one `FixedBitSet` per row.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Words processed per iteration by the wide (`u64x4`-style) kernels below.
pub const KERNEL_LANES: usize = 4;

/// Scalar reference kernel: true if any `(a[i] & b[i]) != 0` over the common
/// prefix of the two word slices. This is the loop the wide kernel must match
/// bit-for-bit; it stays `pub` so differential tests can pin the two.
#[inline]
pub fn and_any_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// True if any `(a[i] & b[i]) != 0` over the common prefix of `a` and `b`.
///
/// This is the Case-4 inner loop of the k-reach query (hub row AND candidate
/// scratch): it processes [`KERNEL_LANES`] words per iteration with a single
/// combined zero test, a shape the autovectorizer lowers to 256-bit loads and
/// ANDs on targets that have them, falling back to [`and_any_scalar`] for the
/// tail.
#[inline]
pub fn and_any(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let mut ca = a[..n].chunks_exact(KERNEL_LANES);
    let mut cb = b[..n].chunks_exact(KERNEL_LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        let m = (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]);
        if m != 0 {
            return true;
        }
    }
    and_any_scalar(ca.remainder(), cb.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bs = FixedBitSet::new(200);
        assert!(bs.insert(3));
        assert!(!bs.insert(3));
        assert!(bs.contains(3));
        assert!(!bs.contains(4));
        bs.remove(3);
        assert!(!bs.contains(3));
    }

    #[test]
    fn count_and_iter_agree() {
        let mut bs = FixedBitSet::new(130);
        for i in [0usize, 1, 63, 64, 65, 127, 129] {
            bs.insert(i);
        }
        assert_eq!(bs.count_ones(), 7);
        let ones: Vec<_> = bs.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 127, 129]);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        a.insert(10);
        b.insert(20);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(20));
        assert!(a.intersects(&b));
    }

    #[test]
    fn clear_resets_bits_but_not_capacity() {
        let mut bs = FixedBitSet::new(70);
        bs.insert(69);
        bs.clear();
        assert_eq!(bs.count_ones(), 0);
        assert_eq!(bs.len(), 70);
    }

    #[test]
    fn vertex_helpers() {
        let mut bs = FixedBitSet::new(10);
        assert!(bs.insert_vertex(VertexId(9)));
        assert!(bs.contains_vertex(VertexId(9)));
        assert!(!bs.contains_vertex(VertexId(0)));
    }

    #[test]
    fn grow_preserves_bits_and_sparse_ops_round_trip() {
        let mut bs = FixedBitSet::new(10);
        bs.insert(9);
        bs.grow(200);
        assert_eq!(bs.len(), 200);
        assert!(bs.contains(9));
        bs.grow(50); // shrinking is a no-op
        assert_eq!(bs.len(), 200);
        bs.insert_ids(&[3, 64, 199]);
        assert_eq!(bs.count_ones(), 4);
        bs.remove_ids(&[3, 64, 199, 9]);
        assert_eq!(bs.count_ones(), 0);
    }

    #[test]
    fn intersects_tolerates_capacity_mismatch() {
        // A grown scratch bitset may be longer than a row bitset; the common
        // prefix decides.
        let mut long = FixedBitSet::new(200);
        let mut short = FixedBitSet::new(100);
        long.insert(42);
        assert!(!short.intersects(&long));
        short.insert(42);
        assert!(short.intersects(&long));
        assert!(long.intersects(&short));
    }

    #[test]
    #[should_panic]
    fn union_length_mismatch_panics() {
        let mut a = FixedBitSet::new(10);
        let b = FixedBitSet::new(20);
        a.union_with(&b);
    }

    #[test]
    fn and_any_matches_scalar_across_lengths_and_tails() {
        // Deterministic LCG so word counts 0..=9 cover every tail length the
        // 4-wide kernel can see, including mismatched slice lengths.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for la in 0..=9usize {
            for lb in 0..=9usize {
                for round in 0..8 {
                    let mut a: Vec<u64> = (0..la).map(|_| next()).collect();
                    let b: Vec<u64> = (0..lb).map(|_| next() & next()).collect();
                    if round % 2 == 0 {
                        // Half the rounds force disjoint words so the
                        // all-false path is exercised too.
                        a.fill(0);
                    }
                    assert_eq!(
                        and_any(&a, &b),
                        and_any_scalar(&a, &b),
                        "la={la} lb={lb} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn and_any_hits_in_every_lane_position() {
        for len in 1..=9usize {
            for hit in 0..len {
                let mut a = vec![0u64; len];
                let mut b = vec![0u64; len];
                a[hit] = 1 << (hit % 64);
                b[hit] = 1 << (hit % 64);
                assert!(and_any(&a, &b), "len={len} hit={hit}");
                b[hit] = 2 << (hit % 63);
                assert_eq!(
                    and_any(&a, &b),
                    and_any_scalar(&a, &b),
                    "len={len} near-miss at {hit}"
                );
            }
        }
    }
}
