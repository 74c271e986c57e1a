//! Thread-local observation channels between the query hot path and the
//! engine.
//!
//! The `Reachability` trait answers a bare `bool`, and widening its return
//! type would force every backend and caller to thread observability
//! through their signatures. Instead the hot path *writes* cheap
//! thread-local signals as a side effect —
//!
//! * [`note_case`]: which Algorithm-2 case (1–4) the k-reach query
//!   dispatcher picked,
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
//! synchronously on the calling worker thread.
//!
//! The derived observation classifies every served query into exactly one
//! of [`CLASSES`] resolution classes — cases 1–4, BFS fallback, or
//! unknown — so per-class counters always sum to the total query count,
//! the invariant `GET /metrics` consumers rely on.

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

thread_local! {
    static DENSE_PROBES: Cell<u64> = const { Cell::new(0) };
    static SPARSE_GALLOPS: Cell<u64> = const { Cell::new(0) };
    static LAST_CASE: Cell<u8> = const { Cell::new(0) };
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

/// Records which Algorithm-2 case (1–4) the current query dispatched to.
#[inline]
pub fn note_case(case: u8) {
    LAST_CASE.with(|c| c.set(case));
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
}

impl ProbeMark {
    /// Snapshots the probe counters and clears the per-query case and
    /// fallback flags.
    pub fn begin() -> ProbeMark {
        LAST_CASE.with(|c| c.set(0));
        BFS_FALLBACK.with(|c| c.set(false));
        let (dense, sparse) = probe_totals();
        ProbeMark { dense, sparse }
    }

    /// Derives the observation for the backend call made since
    /// [`ProbeMark::begin`].
    pub fn observe(&self) -> QueryObservation {
        let (dense_now, sparse_now) = probe_totals();
        let dense = dense_now.wrapping_sub(self.dense);
        let sparse = sparse_now.wrapping_sub(self.sparse);
        let case = LAST_CASE.with(Cell::get);
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
            case,
            resolution,
            dense_probes: dense,
            sparse_gallops: sparse,
        }
    }
}

/// What the hot path reported about one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryObservation {
    /// Algorithm-2 case 1–4, or 0 when the query never dispatched through
    /// the case split (BFS fallback, trivial short-circuit, BFS backend).
    pub case: u8,
    /// How the answer was produced.
    pub resolution: Resolution,
    /// Dense bitset words probed by this query.
    pub dense_probes: u64,
    /// Sparse galloping intersections run by this query.
    pub sparse_gallops: u64,
}

impl QueryObservation {
    /// The class this query counts under, indexing [`CLASS_LABELS`]:
    /// cases 1–4 map to 0–3 (whatever the resolution), BFS fallbacks to 4,
    /// everything else to 5.
    pub fn class_index(&self) -> usize {
        match (self.case, self.resolution) {
            (1..=4, _) => self.case as usize - 1,
            (_, Resolution::BfsFallback) => 4,
            _ => 5,
        }
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
        assert_eq!(obs.case, 4);
        assert_eq!(obs.dense_probes, 2);
        assert_eq!(obs.sparse_gallops, 1);
        // Dense wins the mixed classification.
        assert_eq!(obs.resolution, Resolution::DenseBitset);
        assert_eq!(obs.class_index(), 3);

        // A fresh mark sees only what happens after it.
        let mark = ProbeMark::begin();
        note_case(2);
        note_sparse_gallop();
        let obs = mark.observe();
        assert_eq!(obs.case, 2);
        assert_eq!(obs.dense_probes, 0);
        assert_eq!(obs.resolution, Resolution::SparseGallop);
        assert_eq!(obs.class_index(), 1);
    }

    #[test]
    fn bfs_fallback_outranks_probe_signals() {
        let mark = ProbeMark::begin();
        note_bfs_fallback();
        note_dense_probe();
        let obs = mark.observe();
        assert_eq!(obs.resolution, Resolution::BfsFallback);
        assert_eq!(obs.case, 0);
        assert_eq!(obs.class_index(), 4);
        assert_eq!(CLASS_LABELS[obs.class_index()], "bfs_fallback");
    }

    #[test]
    fn silent_queries_classify_as_unknown() {
        let mark = ProbeMark::begin();
        let obs = mark.observe();
        assert_eq!(obs.resolution, Resolution::Other);
        assert_eq!(obs.class_index(), 5);
        assert_eq!(CLASS_LABELS[obs.class_index()], "unknown");
    }

    #[test]
    fn attributed_cases_outrank_the_resolution() {
        // A target-grouped member takes its case from the backend's
        // classifier and its resolution from the group.
        let member = QueryObservation {
            case: 3,
            resolution: Resolution::Other,
            dense_probes: 0,
            sparse_gallops: 0,
        };
        assert_eq!(member.class_index(), 2);
        let unclassified = QueryObservation { case: 0, ..member };
        assert_eq!(unclassified.class_index(), 5);
        assert_eq!(Resolution::CacheHit.label(), "cache_hit");
        assert_eq!(Resolution::CacheHit.index(), 0);
    }

    #[test]
    fn class_labels_cover_every_class() {
        assert_eq!(CLASS_LABELS.len(), CLASSES);
        for case in 1..=4u8 {
            let obs = QueryObservation {
                case,
                resolution: Resolution::SparseGallop,
                dense_probes: 0,
                sparse_gallops: 1,
            };
            assert_eq!(CLASS_LABELS[obs.class_index()], format!("case{case}"));
        }
    }
}
