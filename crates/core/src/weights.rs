//! Edge-weight storage for the index graph.
//!
//! Definition 1 of the paper assigns every index edge one of only three
//! weights — `k−2`, `k−1` or `k` — so "we only need to use 2 bits to
//! represent each edge weight" (§4.3). [`PackedWeights`] is that 2-bit
//! representation. The (h,k)-reach index of §5 needs `2h+1` distinct values
//! (`k−2h … k`), for which [`PlainWeights`] stores a clamped distance in a
//! `u16` per edge.
//!
//! Both stores hold the *clamped shortest-path distance*
//! `w(u,v) = max(dist(u,v), k − slack)` where `slack` is 2 for k-reach and
//! `2h` for (h,k)-reach; queries only ever compare `w ≤ k − i`, which is
//! exactly the comparison the paper's weight function supports.

/// Backing store for per-edge clamped distances.
pub trait WeightStore {
    /// Creates an empty store for weights with the given lower clamp value.
    fn with_clamp(clamp_min: u32) -> Self;
    /// The lower clamp every stored weight respects.
    fn clamp_min(&self) -> u32;
    /// Appends a weight (already clamped by the caller to `>= clamp_min`).
    fn push(&mut self, weight: u32);
    /// Overwrites the weight of the `i`-th edge (clamped like [`WeightStore::push`]).
    fn set(&mut self, i: usize, weight: u32);
    /// Appends the weights `range` of `src` (a store with the same clamp).
    fn extend_from(&mut self, src: &Self, range: std::ops::Range<usize>) {
        range.for_each(|i| self.push(src.get(i)));
    }
    /// Weight of the `i`-th edge.
    fn get(&self, i: usize) -> u32;
    /// Number of stored weights.
    fn len(&self) -> usize;
    /// True if no weights are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Heap footprint in bytes.
    fn size_bytes(&self) -> usize;
}

/// 2-bit-per-edge weight storage for the k-reach index.
///
/// Weights are stored as the offset `weight − clamp_min ∈ {0, 1, 2}`; four
/// offsets are packed per byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedWeights {
    clamp_min: u32,
    len: usize,
    packed: Vec<u8>,
}

impl WeightStore for PackedWeights {
    fn with_clamp(clamp_min: u32) -> Self {
        PackedWeights {
            clamp_min,
            len: 0,
            packed: Vec::new(),
        }
    }

    fn clamp_min(&self) -> u32 {
        self.clamp_min
    }

    fn push(&mut self, weight: u32) {
        let offset = weight - self.clamp_min;
        debug_assert!(
            offset <= 2,
            "k-reach weights must be one of {{k-2, k-1, k}}"
        );
        let (byte, shift) = (self.len / 4, (self.len % 4) * 2);
        if byte == self.packed.len() {
            self.packed.push(0);
        }
        self.packed[byte] |= (offset as u8) << shift;
        self.len += 1;
    }

    fn set(&mut self, i: usize, weight: u32) {
        debug_assert!(i < self.len);
        let offset = weight - self.clamp_min;
        debug_assert!(
            offset <= 2,
            "k-reach weights must be one of {{k-2, k-1, k}}"
        );
        let (byte, shift) = (i / 4, (i % 4) * 2);
        self.packed[byte] = (self.packed[byte] & !(0b11 << shift)) | (offset as u8) << shift;
    }

    /// Four entries at a time — one whole byte — wherever this store is
    /// byte-aligned, so compacting an index copies bytes, not entries.
    fn extend_from(&mut self, src: &Self, range: std::ops::Range<usize>) {
        let mut i = range.start;
        while i < range.end {
            if self.len.is_multiple_of(4) && range.end - i >= 4 {
                let (byte, shift) = (i / 4, (i % 4) * 2);
                let next = src.packed.get(byte + 1).copied().unwrap_or(0);
                let window = src.packed[byte] as u16 | (next as u16) << 8;
                self.packed.push((window >> shift) as u8);
                self.len += 4;
                i += 4;
            } else {
                self.push(src.get(i));
                i += 1;
            }
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        let (byte, shift) = (i / 4, (i % 4) * 2);
        let offset = (self.packed[byte] >> shift) & 0b11;
        self.clamp_min + offset as u32
    }

    fn len(&self) -> usize {
        self.len
    }

    fn size_bytes(&self) -> usize {
        self.packed.len()
    }
}

impl PackedWeights {
    /// The lower clamp (`k − 2`, or 0 for very small k).
    pub fn clamp_min(&self) -> u32 {
        self.clamp_min
    }

    /// Raw packed bytes, for serialization.
    pub fn packed_bytes(&self) -> &[u8] {
        &self.packed
    }

    /// Reconstructs a store from its raw parts (inverse of
    /// [`PackedWeights::packed_bytes`] plus [`WeightStore::len`]).
    ///
    /// # Panics
    /// Panics if `packed` is too short to hold `len` 2-bit entries.
    pub fn from_raw(clamp_min: u32, len: usize, packed: Vec<u8>) -> Self {
        assert!(
            packed.len() * 4 >= len,
            "packed weight buffer too short for {len} entries"
        );
        PackedWeights {
            clamp_min,
            len,
            packed,
        }
    }
}

/// Plain `u16` weight storage used by the (h,k)-reach index, whose weights
/// span `2h+1` distinct values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlainWeights {
    clamp_min: u32,
    weights: Vec<u16>,
}

impl WeightStore for PlainWeights {
    fn with_clamp(clamp_min: u32) -> Self {
        PlainWeights {
            clamp_min,
            weights: Vec::new(),
        }
    }

    fn clamp_min(&self) -> u32 {
        self.clamp_min
    }

    fn push(&mut self, weight: u32) {
        debug_assert!(weight >= self.clamp_min);
        debug_assert!(weight <= u16::MAX as u32, "clamped distances fit in u16");
        self.weights.push(weight as u16);
    }

    fn set(&mut self, i: usize, weight: u32) {
        debug_assert!(weight >= self.clamp_min);
        debug_assert!(weight <= u16::MAX as u32, "clamped distances fit in u16");
        self.weights[i] = weight as u16;
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.weights[i] as u32
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    fn size_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_weights_round_trip() {
        let k = 6u32;
        let mut w = PackedWeights::with_clamp(k - 2);
        let values = [4u32, 5, 6, 6, 4, 5, 4, 6, 5];
        for &v in &values {
            w.push(v);
        }
        assert_eq!(w.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(w.get(i), v, "weight {i}");
        }
    }

    #[test]
    fn packed_extend_from_matches_entry_by_entry_copies() {
        let mut src = PackedWeights::with_clamp(2);
        for i in 0..61u32 {
            src.push(2 + (i * 7 + i / 3) % 3);
        }
        for (start, end) in [(0, 61), (1, 60), (2, 9), (3, 4), (5, 5), (6, 40), (57, 61)] {
            for lead in 0..4u32 {
                let mut fast = PackedWeights::with_clamp(2);
                let mut slow = PackedWeights::with_clamp(2);
                for j in 0..lead {
                    fast.push(2 + j % 3);
                    slow.push(2 + j % 3);
                }
                fast.extend_from(&src, start..end);
                (start..end).for_each(|i| slow.push(src.get(i)));
                assert_eq!(fast, slow, "range {start}..{end} after {lead}");
            }
        }
    }

    #[test]
    fn set_overwrites_one_weight_and_leaves_its_neighbours() {
        let mut packed = PackedWeights::with_clamp(4);
        let mut plain = PlainWeights::with_clamp(4);
        for v in [4u32, 5, 6, 6, 4, 5] {
            packed.push(v);
            plain.push(v);
        }
        for (i, v) in [(0, 6), (3, 4), (4, 5), (5, 5)] {
            packed.set(i, v);
            plain.set(i, v);
        }
        let want = [6u32, 5, 6, 4, 5, 5];
        for (i, &v) in want.iter().enumerate() {
            assert_eq!(packed.get(i), v, "packed weight {i}");
            assert_eq!(plain.get(i), v, "plain weight {i}");
        }
    }

    #[test]
    fn packed_weights_use_two_bits_per_edge() {
        let mut w = PackedWeights::with_clamp(1);
        for i in 0..1000 {
            w.push(1 + (i % 3) as u32);
        }
        assert_eq!(w.size_bytes(), 250, "1000 weights must pack into 250 bytes");
    }

    #[test]
    fn packed_weights_handle_small_k_clamp_zero() {
        // k = 1: clamp_min = 0, weights in {0, 1}.
        let mut w = PackedWeights::with_clamp(0);
        w.push(0);
        w.push(1);
        assert_eq!(w.get(0), 0);
        assert_eq!(w.get(1), 1);
    }

    #[test]
    fn plain_weights_round_trip() {
        let mut w = PlainWeights::with_clamp(3);
        for v in 3..20u32 {
            w.push(v);
        }
        for (i, v) in (3..20u32).enumerate() {
            assert_eq!(w.get(i), v);
        }
        assert_eq!(w.size_bytes(), 17 * 2);
    }

    #[test]
    fn empty_stores() {
        let p = PackedWeights::with_clamp(5);
        assert!(p.is_empty());
        assert_eq!(p.size_bytes(), 0);
        let q = PlainWeights::with_clamp(5);
        assert!(q.is_empty());
    }
}
