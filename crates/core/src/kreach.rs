//! The k-reach index: construction (Algorithm 1) and query processing
//! (Algorithm 2).

use crate::index_graph::{CoverIndexGraph, PreparedCandidates, Spans};
use crate::stats::IndexStats;
use crate::vertex_cover::{CoverStrategy, VertexCover};
use crate::weights::PackedWeights;
use kreach_graph::intersect::sorted_contains;
use kreach_graph::{GraphView, VertexId};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Per-thread memo of "does cover row `pu` reach any of the group's
/// candidates within the bound" verdicts for the target-grouped Case-4 path:
/// sources sharing a target often share covered out-neighbours, so each row
/// verdict is computed once per group. Entries are generation-stamped — a
/// stamp mismatch reads as absent — so starting a new group is O(1), not
/// O(cover).
struct RowMemo {
    stamp: Vec<u32>,
    val: Vec<bool>,
    cur: u32,
}

impl RowMemo {
    const fn new() -> Self {
        RowMemo {
            stamp: Vec::new(),
            val: Vec::new(),
            cur: 0,
        }
    }

    /// Starts a new group over a cover of `rows` rows, invalidating every
    /// memoized verdict.
    fn begin(&mut self, rows: usize) {
        if self.stamp.len() < rows {
            self.stamp.resize(rows, 0);
            self.val.resize(rows, false);
        }
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // The generation counter wrapped: stale stamps from 2^32 groups
            // ago could alias the new generation, so clear them once.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.cur = 1;
        }
    }

    #[inline]
    fn get_or_insert_with(&mut self, p: u32, f: impl FnOnce() -> bool) -> bool {
        let i = p as usize;
        if self.stamp[i] == self.cur {
            return self.val[i];
        }
        let v = f();
        self.stamp[i] = self.cur;
        self.val[i] = v;
        v
    }
}

thread_local! {
    static ROW_MEMO: RefCell<RowMemo> = const { RefCell::new(RowMemo::new()) };
}

/// Options controlling index construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// How the vertex cover is chosen (§4.1.1 vs §4.3).
    pub cover_strategy: CoverStrategy,
    /// Number of worker threads for the cover-vertex BFS sweep (Algorithm 1
    /// Line 5; the paper notes this step is trivially parallelizable). Each
    /// worker sweeps whole 64-source passes; the index is the same for every
    /// value. `1` forces sequential construction; `0` uses the number of
    /// available CPUs.
    pub threads: usize,
    /// Index out-degree at/above which a cover row is additionally stored as
    /// distance-bucketed bitsets (the hybrid fast path of
    /// [`crate::index_graph`]); `None` picks
    /// [`crate::index_graph::default_dense_threshold`], `Some(usize::MAX)`
    /// keeps every row sorted-slice only.
    pub dense_row_threshold: Option<usize>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            cover_strategy: CoverStrategy::DegreePriority,
            threads: 1,
            dense_row_threshold: None,
        }
    }
}

impl BuildOptions {
    /// Resolves `threads == 0` to the number of available CPUs.
    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// The four query cases of Algorithm 2, determined by cover membership of
/// the two query vertices. Table 8 of the paper reports how a random
/// workload distributes over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryCase {
    /// Case 1: both `s` and `t` are cover vertices — a single edge lookup.
    BothInCover,
    /// Case 2: only `s` is a cover vertex — scan `inNei(t, G)`.
    SourceInCover,
    /// Case 3: only `t` is a cover vertex — scan `outNei(s, G)`.
    TargetInCover,
    /// Case 4: neither is a cover vertex — scan `outNei(s, G) × inNei(t, G)`.
    NeitherInCover,
}

impl QueryCase {
    /// The case number (1–4) used in the paper's tables.
    pub fn number(self) -> u8 {
        match self {
            QueryCase::BothInCover => 1,
            QueryCase::SourceInCover => 2,
            QueryCase::TargetInCover => 3,
            QueryCase::NeitherInCover => 4,
        }
    }
}

/// A certificate explaining a positive k-hop reachability answer in terms of
/// the index structure (returned by [`KReachIndex::explain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryWitness {
    /// `s == t`: reachable in zero hops.
    Identity,
    /// Case 1: the index edge `(s, t)` exists with this weight.
    IndexEdge {
        /// Clamped distance stored on the index edge.
        weight: u32,
    },
    /// The direct edge `(s, t)` exists in the input graph.
    DirectEdge,
    /// Case 2: an in-neighbour `via` of `t` is a cover vertex with
    /// `ω(s, via) = weight ≤ k − 1`.
    ThroughInNeighbor {
        /// The covered in-neighbour of `t` on the certified path.
        via: VertexId,
        /// Weight of the index edge `(s, via)`.
        weight: u32,
    },
    /// Case 3: an out-neighbour `via` of `s` is a cover vertex with
    /// `ω(via, t) = weight ≤ k − 1`.
    ThroughOutNeighbor {
        /// The covered out-neighbour of `s` on the certified path.
        via: VertexId,
        /// Weight of the index edge `(via, t)`.
        weight: u32,
    },
    /// Case 4 with a single interior cover vertex: `s → via → t`.
    ThroughSingleCoverVertex {
        /// The shared covered neighbour of `s` and `t`.
        via: VertexId,
    },
    /// Case 4: a covered out-neighbour of `s` reaches a covered in-neighbour
    /// of `t` within `weight ≤ k − 2` hops.
    ThroughCoverPair {
        /// The covered out-neighbour of `s`.
        first: VertexId,
        /// The covered in-neighbour of `t`.
        last: VertexId,
        /// Weight of the index edge `(first, last)`.
        weight: u32,
    },
}

/// Cover-position-translated adjacency of the *uncovered* input vertices:
/// for each such vertex, the sorted cover positions of its in- and
/// out-neighbours. Cases 2–4 of Algorithm 2 only ever scan the neighbour
/// list of an uncovered endpoint — and by the cover property every such
/// neighbour *is* covered — so queries can intersect these pre-translated
/// sorted lists against index rows directly instead of round-tripping
/// through `cover_pos[]` once per neighbour per query.
///
/// Covered vertices get empty lists (they are never consulted). The lists
/// are span-addressed like the index rows, so the incremental maintainer
/// patches them edge by edge.
#[derive(Debug, Clone)]
pub(crate) struct PosAdjacency {
    out: Spans,
    out_pos: Vec<u32>,
    inn: Spans,
    in_pos: Vec<u32>,
}

impl PosAdjacency {
    fn build<G: GraphView>(g: &G, index: &CoverIndexGraph<PackedWeights>) -> Self {
        let n = g.vertex_count();
        let (mut out_off, mut out_pos) = (Vec::with_capacity(n + 1), Vec::new());
        let (mut in_off, mut in_pos) = (Vec::with_capacity(n + 1), Vec::new());
        out_off.push(0);
        in_off.push(0);
        for v in g.vertices() {
            if !index.in_cover(v) {
                translate_into(&mut out_pos, g.out_neighbors(v), index);
                translate_into(&mut in_pos, g.in_neighbors(v), index);
            }
            out_off.push(out_pos.len() as u32);
            in_off.push(in_pos.len() as u32);
        }
        PosAdjacency {
            out: Spans::from_offsets(out_off),
            out_pos,
            inn: Spans::from_offsets(in_off),
            in_pos,
        }
    }

    #[inline]
    pub(crate) fn out_pos(&self, v: VertexId) -> &[u32] {
        &self.out_pos[self.out.range(v.index())]
    }

    #[inline]
    pub(crate) fn in_pos(&self, v: VertexId) -> &[u32] {
        &self.in_pos[self.inn.range(v.index())]
    }

    /// Re-derives `v`'s lists from `g`: the sorted positions of its
    /// neighbours while it is uncovered, nothing once it is covered.
    fn refresh<G: GraphView>(
        &mut self,
        g: &G,
        index: &CoverIndexGraph<PackedWeights>,
        v: VertexId,
    ) {
        let lists = [
            (&mut self.out, &mut self.out_pos, g.out_neighbors(v)),
            (&mut self.inn, &mut self.in_pos, g.in_neighbors(v)),
        ];
        for (spans, column, neighbors) in lists {
            let mut list = Vec::new();
            if !index.in_cover(v) {
                translate_into(&mut list, neighbors, index);
            }
            let range = spans.resize(v.index(), list.len(), 0, &mut [&mut *column]);
            column[range].copy_from_slice(&list);
        }
    }

    /// Heap footprint of the pre-translation tables in bytes.
    fn size_bytes(&self) -> usize {
        self.out.size_bytes()
            + self.inn.size_bytes()
            + (self.out_pos.len() + self.in_pos.len()) * std::mem::size_of::<u32>()
    }
}

/// Appends the sorted cover positions of `neighbors` to `list`.
fn translate_into(
    list: &mut Vec<u32>,
    neighbors: &[VertexId],
    index: &CoverIndexGraph<PackedWeights>,
) {
    let start = list.len();
    list.extend(neighbors.iter().filter_map(|&u| index.position(u)));
    list[start..].sort_unstable();
}

/// The k-reach index of Definition 1.
///
/// `I = (V_I, E_I, ω_I)` where `V_I` is a vertex cover of the input graph,
/// `E_I` connects cover vertices that are k-hop reachable, and `ω_I` maps
/// each edge to one of {k−2, k−1, k} (stored in 2 bits per edge).
#[derive(Debug, Clone)]
pub struct KReachIndex {
    k: u32,
    index: CoverIndexGraph<PackedWeights>,
    build_millis: f64,
    cover_strategy: CoverStrategy,
    /// Cover-position-translated adjacency, built from the queried graph on
    /// first use (deserialized indexes see their graph only at query time).
    pos_adj: OnceLock<PosAdjacency>,
}

impl KReachIndex {
    /// Builds a k-reach index for hop bound `k` (Algorithm 1).
    ///
    /// # Panics
    /// Panics if `k == 0`; a 0-hop query is just an identity test and needs
    /// no index.
    pub fn build<G: GraphView>(g: &G, k: u32, options: BuildOptions) -> Self {
        assert!(k >= 1, "k-reach requires k >= 1");
        let started = Instant::now();
        let cover = VertexCover::compute(g, options.cover_strategy);
        let index = Self::build_index_graph(g, k, &cover, options);
        Self::finish_build(g, k, index, options.cover_strategy, started)
    }

    /// Wraps a freshly swept index graph. The graph is in hand, so the
    /// cover-position translation is built eagerly and the first live query
    /// doesn't pay the O(n + m) build (lazy init remains only for
    /// deserialized indexes, which see their graph at query time). The
    /// build time is stamped after it: the translation is part of the build.
    fn finish_build<G: GraphView>(
        g: &G,
        k: u32,
        index: CoverIndexGraph<PackedWeights>,
        cover_strategy: CoverStrategy,
        started: Instant,
    ) -> Self {
        let mut built = KReachIndex {
            k,
            index,
            build_millis: 0.0,
            cover_strategy,
            pos_adj: OnceLock::new(),
        };
        built.pos_adj(g);
        built.build_millis = started.elapsed().as_secs_f64() * 1e3;
        built
    }

    /// Builds the index for a pre-computed vertex cover. Exposed so that the
    /// benchmark harness can reuse one cover across several values of `k`
    /// (Table 7) and so callers can supply covers with application-specific
    /// vertices forced in (the "include all celebrities" idea of §4.3).
    pub fn build_with_cover<G: GraphView>(
        g: &G,
        k: u32,
        cover: &VertexCover,
        options: BuildOptions,
    ) -> Self {
        assert!(k >= 1, "k-reach requires k >= 1");
        let started = Instant::now();
        let index = Self::build_index_graph(g, k, cover, options);
        Self::finish_build(g, k, index, cover.strategy(), started)
    }

    /// Builds an index answering *classic* reachability queries (`k = ∞`),
    /// called n-reach in the paper's evaluation (Section 6.2). Internally the
    /// hop bound is `n`, which no simple path can exceed.
    pub fn for_classic_reachability<G: GraphView>(g: &G, options: BuildOptions) -> Self {
        let k = (g.vertex_count() as u32).max(1);
        Self::build(g, k, options)
    }

    /// Sk(u) for every cover vertex u, clamped to {k−2, k−1, k}
    /// (Algorithm 1, Lines 4–13).
    fn build_index_graph<G: GraphView>(
        g: &G,
        k: u32,
        cover: &VertexCover,
        options: BuildOptions,
    ) -> CoverIndexGraph<PackedWeights> {
        CoverIndexGraph::sweep(
            g,
            cover.members().to_vec(),
            k,
            k.saturating_sub(2),
            options.dense_row_threshold,
            options.effective_threads(),
        )
    }

    /// Reassembles an index from deserialized parts (the on-disk loaders in
    /// `kreach-store`). The caller vouches that `index` was validated on the
    /// way in — use [`CoverIndexGraph::from_raw_parts_with_accel`] or the
    /// checked storage readers rather than hand-built parts.
    pub fn from_parts(
        k: u32,
        cover_strategy: CoverStrategy,
        index: CoverIndexGraph<PackedWeights>,
    ) -> Self {
        KReachIndex {
            k,
            index,
            build_millis: 0.0,
            cover_strategy,
            pos_adj: OnceLock::new(),
        }
    }

    /// The hop bound `k` this index was built for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The cover strategy the index was built with.
    pub fn cover_strategy(&self) -> CoverStrategy {
        self.cover_strategy
    }

    /// Number of cover vertices `|V_I|`.
    pub fn cover_size(&self) -> usize {
        self.index.cover_size()
    }

    /// Number of index edges `|E_I|`.
    pub fn index_edge_count(&self) -> usize {
        self.index.edge_count()
    }

    /// Whether `v` belongs to the vertex cover backing this index.
    pub fn in_cover(&self, v: VertexId) -> bool {
        self.index.in_cover(v)
    }

    /// The underlying weighted index graph (read-only).
    pub fn index_graph(&self) -> &CoverIndexGraph<PackedWeights> {
        &self.index
    }

    /// Classifies a query into the four cases of Algorithm 2 without
    /// answering it (used to reproduce Table 8).
    pub fn classify(&self, s: VertexId, t: VertexId) -> QueryCase {
        match (self.index.in_cover(s), self.index.in_cover(t)) {
            (true, true) => QueryCase::BothInCover,
            (true, false) => QueryCase::SourceInCover,
            (false, true) => QueryCase::TargetInCover,
            (false, false) => QueryCase::NeitherInCover,
        }
    }

    /// Answers the k-hop reachability query `s →k t` (Algorithm 2).
    pub fn query<G: GraphView>(&self, g: &G, s: VertexId, t: VertexId) -> bool {
        self.query_with_case(g, s, t).0
    }

    /// Answers `s →k t` for an arbitrary hop bound, the trait-friendly entry
    /// point used by the serving engine: the index answers its own bound
    /// (Algorithm 2), and any other bound falls back to an exact online
    /// bidirectional search, so the answer is correct for every `k`.
    pub fn query_k<G: GraphView>(&self, g: &G, s: VertexId, t: VertexId, k: u32) -> bool {
        if k == self.k {
            self.query(g, s, t)
        } else {
            kreach_obs::observe::note_bfs_fallback();
            kreach_graph::traversal::khop_reachable_bidirectional(g, s, t, k)
        }
    }

    /// The cover-position-translated adjacency, built from `g` on first use.
    ///
    /// The translation is derived from the first graph a query sees; an
    /// index only ever answers for the graph it was built from (the
    /// long-standing contract — a different graph would already desynchronize
    /// the cover), so caching it is safe. The incremental maintainer builds
    /// it up front and patches it with the graph.
    pub(crate) fn pos_adj<G: GraphView>(&self, g: &G) -> &PosAdjacency {
        debug_assert_eq!(
            g.vertex_count(),
            self.index.input_vertex_count(),
            "queried graph must be the graph the index was built from"
        );
        self.pos_adj
            .get_or_init(|| PosAdjacency::build(g, &self.index))
    }

    /// Answers the query and reports which of the four cases was executed:
    /// the one-source call of [`KReachIndex::query_group_k`], so single and
    /// grouped queries share one Algorithm-2 kernel. The nested-loop
    /// formulation is retained as [`KReachIndex::query_with_case_naive`] and
    /// the two are asserted equivalent by the differential property tests.
    pub fn query_with_case<G: GraphView>(
        &self,
        g: &G,
        s: VertexId,
        t: VertexId,
    ) -> (bool, QueryCase) {
        let mut answer = [false];
        self.query_group_k(g, &[s], t, self.k, &mut answer);
        (answer[0], self.classify(s, t))
    }

    /// Answers a group of queries sharing one target: `answers[i] = s_i →k t`
    /// — Algorithm 2's one fast kernel, behind single queries
    /// ([`KReachIndex::query_with_case`]) and the engine's target-grouped
    /// dispatch alike.
    ///
    /// Cases 2–4 intersect pre-translated sorted neighbour-position lists
    /// against the index rows (bitset probes on dense rows, galloping merges
    /// on sparse ones) instead of one `cover_pos[]` load plus binary search
    /// per neighbour. For the index's own hop bound every source is answered
    /// against state prepared **once per group**: the backward candidate
    /// list `inNei(t)` is translated once, its Case-4 scratch bitset is built
    /// once ([`CoverIndexGraph::with_candidates`]), and per-row "does this
    /// covered out-neighbour reach the candidates" verdicts are memoized
    /// across the group's sources (`RowMemo`), since sources that share a
    /// target usually share hub out-neighbours. A one-source group skips
    /// the memo, and the scratch when it would serve a single row probe.
    /// Any other hop bound falls back to the exact per-query online search.
    ///
    /// Answers are bit-identical to [`KReachIndex::query_with_case_naive`]
    /// per source, and each source is tallied to its own Algorithm-2 case.
    ///
    /// # Panics
    /// Panics if `sources` and `answers` differ in length.
    #[inline]
    pub fn query_group_k<G: GraphView>(
        &self,
        g: &G,
        sources: &[VertexId],
        t: VertexId,
        k: u32,
        answers: &mut [bool],
    ) {
        assert_eq!(
            sources.len(),
            answers.len(),
            "one answer slot per grouped source"
        );
        if k != self.k {
            for (answer, &s) in answers.iter_mut().zip(sources) {
                *answer = self.query_k(g, s, t, k);
            }
            return;
        }
        let ig = &self.index;
        if let Some(pt) = ig.position(t) {
            // Covered target: Cases 1 and 3 only, no candidate scratch to
            // share — but the target position is translated once.
            for (answer, &s) in answers.iter_mut().zip(sources) {
                let case = self.classify(s, t);
                kreach_obs::observe::note_case(case.number());
                *answer = if s == t {
                    true
                } else if let Some(ps) = ig.position(s) {
                    // Case 1: both in the cover — the edge (s, t) exists iff
                    // s →k t.
                    ig.edge_exists_by_pos(ps, pt)
                } else {
                    // Case 3: every out-neighbour of s is covered, so a path
                    // is the edge (s, t) or leaves s through one of them
                    // with at most k−1 hops left.
                    let out = self.pos_adj(g).out_pos(s);
                    sorted_contains(out, pt) || ig.any_source_edge_le(out, pt, k - 1)
                };
            }
            return;
        }
        // Uncovered target: Cases 2 and 4 — every source probes the same
        // sorted candidate list inNei(t). A lone Case-2 source probes one
        // row; a lone Case-4 source one per covered out-neighbour.
        let adj = self.pos_adj(g);
        let inn = adj.in_pos(t);
        let row_probes = match sources {
            [s] if ig.in_cover(*s) => 1,
            [s] => adj.out_pos(*s).len(),
            _ => sources.len(),
        };
        ig.with_candidates(inn, row_probes, |prep| {
            if let ([s], [answer]) = (sources, &mut *answers) {
                // A lone source meets each row once: nothing to memoize.
                // Skipping the memo's thread-local set-up made lone Case-2
                // and Case-4 queries 20–40% faster in `query_throughput`.
                *answer = self.answer_uncovered_target(adj, prep, None, *s, t, k);
                return;
            }
            ROW_MEMO.with(|cell| {
                let mut memo = cell.borrow_mut();
                memo.begin(ig.cover_size());
                for (answer, &s) in answers.iter_mut().zip(sources) {
                    *answer = self.answer_uncovered_target(adj, prep, Some(&mut memo), s, t, k);
                }
            })
        });
    }

    /// Cases 2 and 4 for one source against the prepared candidates
    /// inNei(t) of an uncovered target, memoizing Case 4's per-row verdicts
    /// in `memo` when given.
    // Always inlined: a call per grouped source cost fan-in groups of 64
    // and 256 sources 14–22% in `query_throughput`.
    #[inline(always)]
    fn answer_uncovered_target(
        &self,
        adj: &PosAdjacency,
        prep: &PreparedCandidates<'_, PackedWeights>,
        memo: Option<&mut RowMemo>,
        s: VertexId,
        t: VertexId,
        k: u32,
    ) -> bool {
        let case = self.classify(s, t);
        kreach_obs::observe::note_case(case.number());
        if s == t {
            return true;
        }
        if let Some(ps) = self.index.position(s) {
            // Case 2, the mirror of Case 3: direct edge (ps ∈ inn) or an
            // index edge from ps into the candidates within k−1 hops.
            return prep.contains(ps) || prep.row_any_le(ps, k - 1);
        }
        if k < 2 {
            // Case 4 with k = 1: the path would be an uncovered edge, which
            // the cover property forbids.
            return false;
        }
        // Case 4: the path leaves s into a covered out-neighbour and enters
        // t from a covered in-neighbour, spending two hops: a shared covered
        // neighbour, or a cover pair within k−2.
        let out = adj.out_pos(s);
        let reaches = |pu: u32| prep.contains(pu) || prep.row_any_le(pu, k - 2);
        match memo {
            Some(memo) => out
                .iter()
                .any(|&pu| memo.get_or_insert_with(pu, || reaches(pu))),
            None => out.iter().any(|&pu| reaches(pu)),
        }
    }

    /// The original Algorithm-2 formulation — one `cover_pos[]` lookup plus
    /// binary search per scanned neighbour (the §4.2.2 cost model) — kept as
    /// the differential reference for the fast path and as the "before"
    /// measurement of the `query_throughput` bench.
    pub fn query_with_case_naive<G: GraphView>(
        &self,
        g: &G,
        s: VertexId,
        t: VertexId,
    ) -> (bool, QueryCase) {
        let case = self.classify(s, t);
        if s == t {
            return (true, case);
        }
        let k = self.k;
        let answer = match case {
            // Case 1: both in the cover — the edge (s, t) exists iff s →k t.
            QueryCase::BothInCover => self.index.edge_weight(s, t).is_some(),
            // Case 2: s in the cover. Every in-neighbour of t is in the cover,
            // and any path s ⇝ t of length ≤ k enters t through one of them
            // with at most k−1 hops used — or is the single edge (s, t).
            QueryCase::SourceInCover => {
                let ps = self.index.position(s).expect("case 2 source is covered");
                g.in_neighbors(t).iter().any(|&v| {
                    if v == s {
                        return k >= 1;
                    }
                    match self
                        .index
                        .position(v)
                        .and_then(|pv| self.index.edge_weight_by_pos(ps, pv))
                    {
                        Some(w) => w < k,
                        None => false,
                    }
                })
            }
            // Case 3: mirror image of Case 2 through outNei(s, G).
            QueryCase::TargetInCover => {
                let pt = self.index.position(t).expect("case 3 target is covered");
                g.out_neighbors(s).iter().any(|&u| {
                    if u == t {
                        return k >= 1;
                    }
                    match self
                        .index
                        .position(u)
                        .and_then(|pu| self.index.edge_weight_by_pos(pu, pt))
                    {
                        Some(w) => w < k,
                        None => false,
                    }
                })
            }
            // Case 4: neither endpoint is covered; the path must leave s into
            // a covered out-neighbour and enter t from a covered in-neighbour,
            // spending two hops on those steps.
            QueryCase::NeitherInCover => {
                let out = g.out_neighbors(s);
                let inn = g.in_neighbors(t);
                out.iter().any(|&u| {
                    let pu = match self.index.position(u) {
                        Some(p) => p,
                        // An uncovered out-neighbour can only happen if (s, u)
                        // were uncovered, which the cover forbids; defensive.
                        None => return false,
                    };
                    inn.iter().any(|&v| {
                        if u == v {
                            return k >= 2;
                        }
                        match self
                            .index
                            .position(v)
                            .and_then(|pv| self.index.edge_weight_by_pos(pu, pv))
                        {
                            Some(w) => w + 2 <= k,
                            None => false,
                        }
                    })
                })
            }
        };
        (answer, case)
    }

    /// Answers the query and, when the answer is positive, explains *why* in
    /// terms of the index structure: which case of Algorithm 2 fired and
    /// which cover vertices certify the path.
    ///
    /// The witness is a certificate, not a path: it names the cover
    /// vertices through which a path of length ≤ k is guaranteed to exist,
    /// together with the index weight that bounds the interior distance.
    pub fn explain<G: GraphView>(&self, g: &G, s: VertexId, t: VertexId) -> Option<QueryWitness> {
        let k = self.k;
        if s == t {
            return Some(QueryWitness::Identity);
        }
        match self.classify(s, t) {
            QueryCase::BothInCover => self
                .index
                .edge_weight(s, t)
                .map(|weight| QueryWitness::IndexEdge { weight }),
            QueryCase::SourceInCover => {
                let ps = self.index.position(s)?;
                for &v in g.in_neighbors(t) {
                    if v == s && k >= 1 {
                        return Some(QueryWitness::DirectEdge);
                    }
                    if let Some(w) = self
                        .index
                        .position(v)
                        .and_then(|pv| self.index.edge_weight_by_pos(ps, pv))
                    {
                        if w < k {
                            return Some(QueryWitness::ThroughInNeighbor { via: v, weight: w });
                        }
                    }
                }
                None
            }
            QueryCase::TargetInCover => {
                let pt = self.index.position(t)?;
                for &u in g.out_neighbors(s) {
                    if u == t && k >= 1 {
                        return Some(QueryWitness::DirectEdge);
                    }
                    if let Some(w) = self
                        .index
                        .position(u)
                        .and_then(|pu| self.index.edge_weight_by_pos(pu, pt))
                    {
                        if w < k {
                            return Some(QueryWitness::ThroughOutNeighbor { via: u, weight: w });
                        }
                    }
                }
                None
            }
            QueryCase::NeitherInCover => {
                let inn = g.in_neighbors(t);
                for &u in g.out_neighbors(s) {
                    let Some(pu) = self.index.position(u) else {
                        continue;
                    };
                    for &v in inn {
                        if u == v && k >= 2 {
                            return Some(QueryWitness::ThroughSingleCoverVertex { via: u });
                        }
                        if let Some(w) = self
                            .index
                            .position(v)
                            .and_then(|pv| self.index.edge_weight_by_pos(pu, pv))
                        {
                            if w + 2 <= k {
                                return Some(QueryWitness::ThroughCoverPair {
                                    first: u,
                                    last: v,
                                    weight: w,
                                });
                            }
                        }
                    }
                }
                None
            }
        }
    }

    /// Construction and size statistics for this index.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            name: "k-reach".to_string(),
            build_millis: self.build_millis,
            size_bytes: self.index.size_bytes(),
            cover_size: Some(self.cover_size()),
            index_edges: Some(self.index_edge_count()),
        }
    }

    /// Total index size in bytes (position map + cover + CSR + 2-bit weights).
    pub fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// Resident acceleration bytes: the dense-row bitset store **plus** the
    /// cover-position pre-translation tables (`PosAdjacency`) — everything
    /// held beyond the core index purely to make queries faster. The
    /// pre-translation part is 0 until the first query materializes it.
    pub fn accel_size_bytes(&self) -> usize {
        self.index.accel_size_bytes() + self.pos_adj.get().map_or(0, |adj| adj.size_bytes())
    }

    // In-place patching, for the incremental maintainer ([`crate::dynamic`]),
    // which keeps `g` and this index in step.

    /// Compacts rows and position lists where patches have left enough
    /// dead space — once per batch of patches.
    pub(crate) fn compact(&mut self) {
        self.index.compact();
        let adj = self.pos_adj.get_mut().expect("translated");
        adj.out.compact(&mut [&mut adj.out_pos]);
        adj.inn.compact(&mut [&mut adj.in_pos]);
    }

    /// The index graph, for row and cover patches.
    pub(crate) fn index_graph_mut(&mut self) -> &mut CoverIndexGraph<PackedWeights> {
        &mut self.index
    }

    /// Re-derives `v`'s position lists from `g`, after an edge at `v`
    /// changed or `v` joined the cover, first growing the index to `g`'s
    /// vertices (new ones are uncovered, with empty lists). Expects the
    /// translation built ([`KReachIndex::pos_adj`]).
    pub(crate) fn refresh_lists<G: GraphView>(&mut self, g: &G, v: VertexId) {
        self.index.grow_vertices(g.vertex_count());
        let adj = self.pos_adj.get_mut().expect("translated");
        while adj.out.len() < g.vertex_count() {
            adj.out.push();
            adj.inn.push();
        }
        adj.refresh(g, &self.index, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::traversal::khop_reachable_bfs;
    use kreach_graph::DiGraph;

    fn brute_force_check(g: &DiGraph, index: &KReachIndex) {
        let k = index.k();
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = khop_reachable_bfs(g, s, t, k);
                let got = index.query(g, s, t);
                assert_eq!(got, expected, "k={k} query ({s}, {t})");
                let (naive, naive_case) = index.query_with_case_naive(g, s, t);
                assert_eq!(naive, expected, "k={k} naive query ({s}, {t})");
                assert_eq!(naive_case, index.classify(s, t));
            }
        }
    }

    #[test]
    fn exact_on_small_path_graph_for_all_k() {
        let g = DiGraph::from_edges(7, (0..6u32).map(|i| (i, i + 1)));
        for k in 1..=7u32 {
            let index = KReachIndex::build(&g, k, BuildOptions::default());
            brute_force_check(&g, &index);
        }
    }

    #[test]
    fn exact_on_paper_example_for_k3() {
        let g = crate::paper_example::paper_example_graph();
        for strategy in [CoverStrategy::RandomEdge, CoverStrategy::DegreePriority] {
            let index = KReachIndex::build(
                &g,
                3,
                BuildOptions {
                    cover_strategy: strategy,
                    threads: 1,
                    ..BuildOptions::default()
                },
            );
            brute_force_check(&g, &index);
        }
    }

    #[test]
    fn exact_on_graph_with_cycles() {
        let g = DiGraph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
                (7, 6),
            ],
        );
        for k in [1, 2, 3, 5, 8] {
            let index = KReachIndex::build(&g, k, BuildOptions::default());
            brute_force_check(&g, &index);
        }
    }

    #[test]
    fn classic_reachability_matches_unbounded_bfs() {
        let g = DiGraph::from_edges(
            9,
            [
                (0, 1),
                (1, 2),
                (3, 2),
                (3, 4),
                (4, 5),
                (5, 3),
                (6, 7),
                (7, 8),
                (2, 6),
            ],
        );
        let index = KReachIndex::for_classic_reachability(&g, BuildOptions::default());
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = kreach_graph::traversal::reachable_bfs(&g, s, t);
                assert_eq!(index.query(&g, s, t), expected, "({s}, {t})");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let g = kreach_graph::generators::GeneratorSpec::PowerLaw {
            n: 300,
            m: 1200,
            hubs: 4,
        }
        .generate(99);
        let seq = KReachIndex::build(
            &g,
            4,
            BuildOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let par = KReachIndex::build(
            &g,
            4,
            BuildOptions {
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(seq.cover_size(), par.cover_size());
        assert_eq!(seq.index_edge_count(), par.index_edge_count());
        for s in g.vertices().step_by(7) {
            for t in g.vertices().step_by(11) {
                assert_eq!(seq.query(&g, s, t), par.query(&g, s, t));
            }
        }
    }

    #[test]
    fn query_cases_are_classified_consistently() {
        let g = crate::paper_example::paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        for s in g.vertices() {
            for t in g.vertices() {
                let case = index.classify(s, t);
                let expected = match (index.in_cover(s), index.in_cover(t)) {
                    (true, true) => QueryCase::BothInCover,
                    (true, false) => QueryCase::SourceInCover,
                    (false, true) => QueryCase::TargetInCover,
                    (false, false) => QueryCase::NeitherInCover,
                };
                assert_eq!(case, expected);
                assert_eq!(index.query_with_case(&g, s, t).1, case);
            }
        }
    }

    #[test]
    fn k_equal_one_only_sees_direct_edges() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let index = KReachIndex::build(&g, 1, BuildOptions::default());
        assert!(index.query(&g, VertexId(0), VertexId(1)));
        assert!(!index.query(&g, VertexId(0), VertexId(2)));
        assert!(index.query(&g, VertexId(2), VertexId(2)));
        brute_force_check(&g, &index);
    }

    #[test]
    fn stats_report_positive_sizes() {
        let g = crate::paper_example::paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        let stats = index.stats();
        assert!(stats.size_bytes > 0);
        assert_eq!(stats.cover_size, Some(index.cover_size()));
        assert_eq!(stats.index_edges, Some(index.index_edge_count()));
        assert!(stats.build_millis >= 0.0);
        assert_eq!(index.size_bytes(), stats.size_bytes);
    }

    #[test]
    fn case_numbers_match_paper_numbering() {
        assert_eq!(QueryCase::BothInCover.number(), 1);
        assert_eq!(QueryCase::SourceInCover.number(), 2);
        assert_eq!(QueryCase::TargetInCover.number(), 3);
        assert_eq!(QueryCase::NeitherInCover.number(), 4);
    }

    #[test]
    fn explain_agrees_with_query_and_certifies_real_paths() {
        use kreach_graph::traversal::shortest_distance;
        let g = crate::paper_example::paper_example_graph();
        let cover = crate::paper_example::paper_example_cover();
        let index = KReachIndex::build_with_cover(&g, 3, &cover, BuildOptions::default());
        for s in g.vertices() {
            for t in g.vertices() {
                let witness = index.explain(&g, s, t);
                assert_eq!(witness.is_some(), index.query(&g, s, t), "({s},{t})");
                match witness {
                    Some(QueryWitness::Identity) => assert_eq!(s, t),
                    Some(QueryWitness::DirectEdge) => assert!(g.has_edge(s, t)),
                    Some(QueryWitness::IndexEdge { weight }) => {
                        assert!(weight <= 3);
                        assert!(shortest_distance(&g, s, t).unwrap() <= 3);
                    }
                    Some(QueryWitness::ThroughInNeighbor { via, weight }) => {
                        assert!(g.has_edge(via, t));
                        assert!(index.in_cover(via));
                        assert!(weight < 3);
                    }
                    Some(QueryWitness::ThroughOutNeighbor { via, weight }) => {
                        assert!(g.has_edge(s, via));
                        assert!(index.in_cover(via));
                        assert!(weight < 3);
                    }
                    Some(QueryWitness::ThroughSingleCoverVertex { via }) => {
                        assert!(g.has_edge(s, via) && g.has_edge(via, t));
                    }
                    Some(QueryWitness::ThroughCoverPair {
                        first,
                        last,
                        weight,
                    }) => {
                        assert!(g.has_edge(s, first) && g.has_edge(last, t));
                        assert!(weight + 2 <= 3);
                    }
                    None => {}
                }
            }
        }
    }

    #[test]
    fn explain_reports_expected_variants_on_paper_example() {
        use crate::paper_example::{A, B, C, D, F, G, H};
        let g = crate::paper_example::paper_example_graph();
        let cover = crate::paper_example::paper_example_cover();
        let index = KReachIndex::build_with_cover(&g, 3, &cover, BuildOptions::default());
        assert!(matches!(
            index.explain(&g, B, G),
            Some(QueryWitness::IndexEdge { weight: 3 })
        ));
        assert!(matches!(
            index.explain(&g, D, H),
            Some(QueryWitness::ThroughInNeighbor { via, weight: 2 }) if via == G
        ));
        assert!(matches!(
            index.explain(&g, A, D),
            Some(QueryWitness::ThroughOutNeighbor { via, weight: 1 }) if via == B
        ));
        assert!(matches!(
            index.explain(&g, C, F),
            Some(QueryWitness::ThroughCoverPair { first, last, weight: 1 }) if first == B && last == D
        ));
        assert_eq!(index.explain(&g, C, H), None);
        assert!(matches!(
            index.explain(&g, A, A),
            Some(QueryWitness::Identity)
        ));
    }

    #[test]
    #[should_panic]
    fn zero_k_is_rejected() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        KReachIndex::build(&g, 0, BuildOptions::default());
    }

    #[test]
    fn grouped_queries_match_per_query_answers_for_every_target_and_k() {
        let g = kreach_graph::generators::GeneratorSpec::PowerLaw {
            n: 120,
            m: 520,
            hubs: 3,
        }
        .generate(17);
        for k in [1, 2, 3, 5] {
            // A tiny dense threshold forces dense rows so the grouped path's
            // scratch-bitset probes are exercised, not just the gallops.
            let index = KReachIndex::build(
                &g,
                k,
                BuildOptions {
                    dense_row_threshold: Some(4),
                    ..Default::default()
                },
            );
            let sources: Vec<VertexId> = g.vertices().collect();
            let mut grouped = vec![false; sources.len()];
            for t in g.vertices() {
                // The kernel against the nested-loop reference and BFS.
                index.query_group_k(&g, &sources, t, k, &mut grouped);
                for (&s, &got) in sources.iter().zip(&grouped) {
                    assert_eq!(
                        got,
                        index.query_with_case_naive(&g, s, t).0,
                        "k={k} ({s},{t})"
                    );
                    assert_eq!(got, khop_reachable_bfs(&g, s, t, k), "k={k} ({s},{t})");
                }
                // A mismatched hop bound exercises the fallback arm.
                index.query_group_k(&g, &sources, t, k + 1, &mut grouped);
                for (&s, &got) in sources.iter().zip(&grouped) {
                    let expected = khop_reachable_bfs(&g, s, t, k + 1);
                    assert_eq!(got, expected, "k={} ({s},{t})", k + 1);
                }
            }
        }
    }

    #[test]
    fn accel_bytes_include_pos_adjacency_tables() {
        let g = crate::paper_example::paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        // Built eagerly with the graph in hand, so the pre-translation
        // tables are resident and counted beyond the dense-row store.
        assert!(index.accel_size_bytes() > index.index_graph().accel_size_bytes());
        let parts = KReachIndex::from_parts(
            3,
            CoverStrategy::DegreePriority,
            index.index_graph().clone(),
        );
        // A deserialized index has no tables until the first query.
        assert_eq!(
            parts.accel_size_bytes(),
            parts.index_graph().accel_size_bytes()
        );
        parts.query(&g, VertexId(0), VertexId(1));
        assert!(parts.accel_size_bytes() > parts.index_graph().accel_size_bytes());
    }

    #[test]
    fn empty_graph_answers_identity_only() {
        let g = DiGraph::from_edges(3, std::iter::empty());
        let index = KReachIndex::build(&g, 2, BuildOptions::default());
        assert!(index.query(&g, VertexId(0), VertexId(0)));
        assert!(!index.query(&g, VertexId(0), VertexId(1)));
        assert_eq!(index.cover_size(), 0);
    }
}
