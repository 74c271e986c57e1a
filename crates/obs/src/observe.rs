//! Thread-local observation channels between the query hot path and the
//! engine.
//!
//! The `Reachability` trait answers a bare `bool`, and widening its return
//! type would force every backend and caller to thread observability
//! through their signatures. Instead the hot path *writes* cheap
//! thread-local signals as a side effect —
//!
//! * [`note_case`]: one query (one source of a target group) dispatched to
//!   Algorithm-2 case 1–4; each case keeps its own counter,
//! * [`note_bfs_fallback`]: the query ran the engine's exact online BFS
//!   (hop bound differs from the index's),
//! * [`note_dense_probe`] / [`note_sparse_gallop`]: a successor-row
//!   membership test resolved via the dense per-weight-class bitset words
//!   vs. a sorted-slice galloping merge —
//!
//! and the engine *reads* them around each backend call: snapshot a
//! [`ProbeMark`] before, derive a [`QueryObservation`] after. Everything is
//! a `Cell` in thread-local storage (one predictable add on the hot path,
//! no atomics, no locks), which works because a backend answers each query
//! synchronously on the calling thread.
//!
//! One backend call may answer a whole target group, so the observation
//! counts how many of its sources landed in each case, and
//! [`QueryObservation::class_counts`] spreads the group over the
//! [`CLASSES`] resolution classes — cases 1–4, BFS fallback, or unknown —
//! so per-class counters always sum to the total query count, the
//! invariant `GET /metrics` consumers rely on.

use std::cell::Cell;

/// Number of query classes: cases 1–4, BFS fallback, unknown.
pub const CLASSES: usize = 6;

/// Stable labels for the query classes, index-aligned with
/// [`QueryObservation::class_index`] (and with the `case` label on the
/// `kreach_engine_queries_by_case_total` Prometheus counter).
pub const CLASS_LABELS: [&str; CLASSES] = [
    "case1",
    "case2",
    "case3",
    "case4",
    "bfs_fallback",
    "unknown",
];

/// Number of Algorithm-2 cases.
pub const CASES: usize = 4;

thread_local! {
    static DENSE_PROBES: Cell<u64> = const { Cell::new(0) };
    static SPARSE_GALLOPS: Cell<u64> = const { Cell::new(0) };
    static CASE_COUNTS: [Cell<u64>; CASES] = const { [const { Cell::new(0) }; CASES] };
    static BFS_FALLBACK: Cell<bool> = const { Cell::new(false) };
}

/// Records one dense-representation membership probe (a bitset word read).
#[inline]
pub fn note_dense_probe() {
    DENSE_PROBES.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Records one sparse-representation intersection (a galloping merge or
/// binary row search).
#[inline]
pub fn note_sparse_gallop() {
    SPARSE_GALLOPS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Records that one query dispatched to Algorithm-2 case `case` (1–4).
#[inline]
pub fn note_case(case: u8) {
    debug_assert!(
        (1..=CASES as u8).contains(&case),
        "case {case} out of 1..=4"
    );
    CASE_COUNTS.with(|counts| {
        let slot = &counts[usize::from(case) - 1];
        slot.set(slot.get().wrapping_add(1));
    });
}

/// Records that the current query was answered by the exact online BFS
/// fallback instead of the index.
#[inline]
pub fn note_bfs_fallback() {
    BFS_FALLBACK.with(|c| c.set(true));
}

/// Cumulative probe counters for the calling thread, as
/// `(dense_probes, sparse_gallops)` — monotone totals; per-query numbers
/// come from [`ProbeMark`] deltas.
pub fn probe_totals() -> (u64, u64) {
    (DENSE_PROBES.with(Cell::get), SPARSE_GALLOPS.with(Cell::get))
}

/// Cumulative per-case query counters for the calling thread, index 0 for
/// case 1 — monotone totals like [`probe_totals`].
fn case_totals() -> [u64; CASES] {
    CASE_COUNTS.with(|counts| std::array::from_fn(|i| counts[i].get()))
}

/// How a query's answer was produced, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Never produced: the engine has no result cache. The variant keeps
    /// [`RESOLUTION_LABELS`] index-stable for readers that index it by
    /// position, so its counter always reads 0.
    CacheHit,
    /// The index answered and at least one dense bitset word was probed.
    DenseBitset,
    /// The index answered via sparse galloping merges only.
    SparseGallop,
    /// The exact online BFS ran (hop bound off the index's `k`).
    BfsFallback,
    /// None of the above — a trivial short-circuit (`s == t`, out-of-range
    /// endpoint) or a backend that emits no signals.
    Other,
}

/// Number of [`Resolution`] variants.
pub const RESOLUTIONS: usize = 5;

/// Stable labels for the resolutions, index-aligned with
/// [`Resolution::index`].
pub const RESOLUTION_LABELS: [&str; RESOLUTIONS] = [
    "cache_hit",
    "dense_bitset",
    "sparse_gallop",
    "bfs_fallback",
    "other",
];

impl Resolution {
    /// Stable label (the `resolution` label on Prometheus counters).
    pub fn label(&self) -> &'static str {
        RESOLUTION_LABELS[self.index()]
    }

    /// Dense index into [`RESOLUTION_LABELS`].
    pub fn index(&self) -> usize {
        match self {
            Resolution::CacheHit => 0,
            Resolution::DenseBitset => 1,
            Resolution::SparseGallop => 2,
            Resolution::BfsFallback => 3,
            Resolution::Other => 4,
        }
    }
}

/// Snapshot of the calling thread's signals, taken *before* a backend call
/// so [`ProbeMark::observe`] can attribute what changed to that call.
#[derive(Debug, Clone, Copy)]
pub struct ProbeMark {
    dense: u64,
    sparse: u64,
    cases: [u64; CASES],
}

impl ProbeMark {
    /// Snapshots the probe and case counters and clears the fallback flag.
    pub fn begin() -> ProbeMark {
        BFS_FALLBACK.with(|c| c.set(false));
        let (dense, sparse) = probe_totals();
        ProbeMark {
            dense,
            sparse,
            cases: case_totals(),
        }
    }

    /// Derives the observation for the backend call made since
    /// [`ProbeMark::begin`].
    pub fn observe(&self) -> QueryObservation {
        let (dense_now, sparse_now) = probe_totals();
        let dense = dense_now.wrapping_sub(self.dense);
        let sparse = sparse_now.wrapping_sub(self.sparse);
        let now = case_totals();
        let cases = std::array::from_fn(|i| now[i].wrapping_sub(self.cases[i]));
        let resolution = if BFS_FALLBACK.with(Cell::get) {
            Resolution::BfsFallback
        } else if dense > 0 {
            Resolution::DenseBitset
        } else if sparse > 0 {
            Resolution::SparseGallop
        } else {
            Resolution::Other
        };
        QueryObservation {
            cases,
            resolution,
            dense_probes: dense,
            sparse_gallops: sparse,
        }
    }
}

/// What the hot path reported about the queries of one backend call (one
/// query, or every source of a target group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryObservation {
    /// Queries that dispatched to each Algorithm-2 case, case 1 first.
    /// Queries that never reached the case split (BFS fallback, BFS
    /// backend) are not counted here.
    pub cases: [u64; CASES],
    /// How the answers were produced.
    pub resolution: Resolution,
    /// Dense bitset words probed by the call.
    pub dense_probes: u64,
    /// Sparse galloping intersections run by the call.
    pub sparse_gallops: u64,
}

impl QueryObservation {
    /// Spreads the call's `queries` over the classes of [`CLASS_LABELS`]:
    /// each case-noted query under its case, and the rest under BFS
    /// fallback when the call fell back, unknown otherwise. The counts sum
    /// to `queries` whenever no more than `queries` cases were noted.
    pub fn class_counts(&self, queries: u64) -> [u64; CLASSES] {
        let mut counts = [0; CLASSES];
        counts[..CASES].copy_from_slice(&self.cases);
        let noted: u64 = self.cases.iter().sum();
        let rest = if self.resolution == Resolution::BfsFallback {
            4
        } else {
            5
        };
        counts[rest] = queries.saturating_sub(noted);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_attribute_probes_between_begin_and_observe() {
        let mark = ProbeMark::begin();
        note_case(4);
        note_dense_probe();
        note_dense_probe();
        note_sparse_gallop();
        let obs = mark.observe();
        assert_eq!(obs.cases, [0, 0, 0, 1]);
        assert_eq!(obs.dense_probes, 2);
        assert_eq!(obs.sparse_gallops, 1);
        // Dense wins the mixed classification.
        assert_eq!(obs.resolution, Resolution::DenseBitset);
        assert_eq!(obs.class_counts(1), [0, 0, 0, 1, 0, 0]);

        // A fresh mark sees only what happens after it, and counts every
        // noted case of a group.
        let mark = ProbeMark::begin();
        note_case(2);
        note_case(2);
        note_case(1);
        note_sparse_gallop();
        let obs = mark.observe();
        assert_eq!(obs.cases, [1, 2, 0, 0]);
        assert_eq!(obs.dense_probes, 0);
        assert_eq!(obs.resolution, Resolution::SparseGallop);
        assert_eq!(obs.class_counts(3), [1, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn bfs_fallback_outranks_probe_signals() {
        let mark = ProbeMark::begin();
        note_bfs_fallback();
        note_dense_probe();
        let obs = mark.observe();
        assert_eq!(obs.resolution, Resolution::BfsFallback);
        assert_eq!(obs.cases, [0; CASES]);
        let counts = obs.class_counts(2);
        assert_eq!(counts, [0, 0, 0, 0, 2, 0]);
        assert_eq!(CLASS_LABELS[4], "bfs_fallback");
    }

    #[test]
    fn silent_queries_classify_as_unknown() {
        let mark = ProbeMark::begin();
        let obs = mark.observe();
        assert_eq!(obs.resolution, Resolution::Other);
        assert_eq!(obs.class_counts(1), [0, 0, 0, 0, 0, 1]);
        assert_eq!(CLASS_LABELS[5], "unknown");
    }

    #[test]
    fn attributed_cases_outrank_the_resolution() {
        // Case-noted members count under their case whatever the group's
        // resolution; only the un-noted rest takes the resolution's class.
        let group = QueryObservation {
            cases: [0, 0, 3, 0],
            resolution: Resolution::BfsFallback,
            dense_probes: 0,
            sparse_gallops: 0,
        };
        assert_eq!(group.class_counts(5), [0, 0, 3, 0, 2, 0]);
        let unclassified = QueryObservation {
            cases: [0; CASES],
            resolution: Resolution::Other,
            ..group
        };
        assert_eq!(unclassified.class_counts(2), [0, 0, 0, 0, 0, 2]);
        assert_eq!(Resolution::CacheHit.label(), "cache_hit");
        assert_eq!(Resolution::CacheHit.index(), 0);
    }

    #[test]
    fn class_labels_cover_every_class() {
        assert_eq!(CLASS_LABELS.len(), CLASSES);
        for case in 1..=CASES as u8 {
            let mark = ProbeMark::begin();
            note_case(case);
            let counts = mark.observe().class_counts(1);
            let class = counts.iter().position(|&n| n == 1).unwrap();
            assert_eq!(CLASS_LABELS[class], format!("case{case}"));
        }
    }
}
