//! Galloping (exponential-probe) intersection over sorted id slices.
//!
//! Algorithm 2's Case 2–4 reduce to "does this sorted successor row share an
//! element with this sorted candidate list (subject to a weight bound)?".
//! Per-candidate binary search costs `O(|cand| · log |row|)`; a galloping
//! merge costs `O(min · log(max / min))`, which wins whenever the two sides
//! are skewed — exactly the hub-row vs. small-neighbourhood shape of the
//! paper's celebrity workloads. These helpers serve the k-reach index
//! graph's rows and the query's sorted position lists.

/// First index `i >= from` with `s[i] >= x`, found by exponential probing
/// from `from` followed by a binary search of the bracketed range. Returns
/// `s.len()` when every remaining id is smaller.
///
/// `s` must be sorted (non-decreasing) from `from` onward.
#[inline]
pub fn gallop_lower_bound(s: &[u32], from: usize, x: u32) -> usize {
    if from >= s.len() || s[from] >= x {
        return from.min(s.len());
    }
    // Invariant: key(s[lo]) < x.
    let mut lo = from;
    let mut step = 1usize;
    loop {
        let probe = lo + step;
        if probe >= s.len() || s[probe] >= x {
            break;
        }
        lo = probe;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(s.len());
    lo + 1 + s[lo + 1..hi].partition_point(|&v| v < x)
}

/// Binary membership test in a sorted id slice.
#[inline]
pub fn sorted_contains(s: &[u32], x: u32) -> bool {
    s.binary_search(&x).is_ok()
}

/// Ids compared per iteration by the wide any-match kernel.
pub const SCAN_LANES: usize = 8;

/// Scalar reference for [`scan_find`]: first index of `x` in `s`, by linear
/// scan. Kept `pub` so differential tests can pin the wide kernel to it.
#[inline]
pub fn scan_find_scalar(s: &[u32], x: u32) -> Option<usize> {
    s.iter().position(|&v| v == x)
}

/// First index of `x` in `s` by branch-reduced linear scan: [`SCAN_LANES`]
/// comparisons are ORed into one per-chunk hit flag (the autovectorizer's
/// 256-bit compare shape), and only a hit re-scans the chunk for the exact
/// lane. For the short sorted rows the index holds (tens of entries), this
/// beats a binary search's unpredictable branches; callers switch on length.
#[inline]
pub fn scan_find(s: &[u32], x: u32) -> Option<usize> {
    let mut chunks = s.chunks_exact(SCAN_LANES);
    let mut base = 0usize;
    for c in &mut chunks {
        let hit = (c[0] == x)
            | (c[1] == x)
            | (c[2] == x)
            | (c[3] == x)
            | (c[4] == x)
            | (c[5] == x)
            | (c[6] == x)
            | (c[7] == x);
        if hit {
            return scan_find_scalar(c, x).map(|i| base + i);
        }
        base += SCAN_LANES;
    }
    scan_find_scalar(chunks.remainder(), x).map(|i| base + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallop_lower_bound_matches_partition_point() {
        let s: Vec<u32> = vec![1, 3, 3, 7, 9, 12, 40, 41, 90];
        for from in 0..=s.len() {
            for x in 0..95u32 {
                let expected = from + s[from.min(s.len())..].partition_point(|&v| v < x);
                assert_eq!(
                    gallop_lower_bound(&s, from, x),
                    expected,
                    "from={from} x={x}"
                );
            }
        }
    }

    #[test]
    fn scan_find_matches_scalar_across_lengths_and_tails() {
        let mut state = 0xDEADBEEFCAFEBABEu64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        for len in 0..=26usize {
            for _ in 0..16 {
                let s: Vec<u32> = (0..len).map(|_| next(20)).collect();
                let x = next(22);
                assert_eq!(scan_find(&s, x), scan_find_scalar(&s, x), "len={len} x={x}");
            }
            // Needle present at every position, including mid-chunk lanes.
            for hit in 0..len {
                let mut s: Vec<u32> = (0..len as u32).map(|i| i + 100).collect();
                s[hit] = 7;
                assert_eq!(scan_find(&s, 7), Some(hit), "len={len} hit={hit}");
            }
        }
    }

    #[test]
    fn skewed_sizes_and_edges() {
        let huge: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        assert!(sorted_contains(&huge, 1_000));
        assert!(!sorted_contains(&huge, 1_001));
    }
}
