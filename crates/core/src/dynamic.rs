//! Incremental maintenance of a k-reach index under edge updates.
//!
//! Algorithm 1 builds the index by (a) computing a vertex cover and (b)
//! running one k-hop BFS per cover vertex. Both steps are global, so naively
//! supporting a mutation stream means a full rebuild per edge change. This
//! module maintains the index incrementally instead, patching only what an
//! update can actually touch:
//!
//! * **One index, patched in place.** The maintainer owns a
//!   [`KReachIndex`] — the same cover, clamped 2-bit rows, dense-row bitsets
//!   and position lists a static build produces — and patches it under the
//!   serving layer's write lock, so every query runs Algorithm 2 exactly as
//!   static serving does ([`KReachIndex::query_group_k`]). Maintenance only
//!   ever *writes* rows (each recomputed row comes from a fresh BFS), so the
//!   clamped weights lose nothing it needs.
//! * **Versioned storage.** The graph lives in a
//!   [`VersionedAdjGraph`] — per-vertex sorted adjacency with copy-on-write
//!   segments — so an edge change costs `O(degree)` and queries read the live
//!   view directly. There is no `O(m)` CSR re-materialization anywhere on
//!   the update path.
//! * **Cover repair.** Removing an edge never invalidates a vertex cover.
//!   Inserting `(u, v)` invalidates it only when *neither* endpoint is
//!   covered; the repair adds one endpoint to the cover, computing its
//!   index row with one forward k-BFS and splicing it into every other row
//!   with one backward k-BFS. Either endpoint restores the invariant, so
//!   the choice is purely a cost call: the repair picks the endpoint with
//!   the **smaller out-degree**, whose forward k-BFS row is the cheaper one
//!   to compute and to keep patching for the rest of its life
//!   ([`UpdateStats::repairs_picked_source`] /
//!   [`UpdateStats::repairs_picked_target`] count which arm won).
//! * **Coalesced row patching.** An edge change `(u, v)` can alter the k-hop
//!   row of a cover vertex `w` only if `w` reaches `u` within `k − 1` hops
//!   (any ≤ k-hop path through the edge spends one hop on it). One backward
//!   `(k−1)`-BFS per update finds the affected cover vertices, but the rows
//!   themselves are recomputed **once per batch**: affected positions are
//!   collected into a deduplicated pending set, so overlapping patches from
//!   different updates in the same batch collapse into one forward k-BFS per
//!   row ([`UpdateStats::rows_coalesced`] counts the recomputations saved).
//!   For removals the affected set is taken in the *pre-removal* graph,
//!   because that is where paths used the edge. The uncovered endpoint's
//!   position list gains or loses the covered one.
//! * **Rebuild thresholds.** Incremental cover repair only ever grows the
//!   cover, and deletions leave dead weight behind (a removed edge's
//!   endpoints stay covered forever). When the cover has grown past a
//!   configurable fraction since the last full build — or enough edges have
//!   been *deleted* that a fresh cover could be substantially smaller — the
//!   maintainer lazily re-covers: a fresh [`KReachIndex::build`], exactly
//!   Algorithm 1. The deletion trigger is what lets the cover (and with it
//!   the index) *shrink* under sustained removals.
//!
//! The correctness story is differential: `tests/dynamic_differential.rs`
//! replays random mutation sequences and asserts this maintainer answers
//! byte-identically to a from-scratch [`KReachIndex::build`] and to an
//! online BFS at every step, and this module's tests check the patched rows,
//! bitsets and position lists against a fresh build on the same cover.

use crate::kreach::{BuildOptions, KReachIndex};
use kreach_graph::traversal::{Direction, NeighborhoodExplorer};
use kreach_graph::versioned::{EdgeUpdate, VersionedAdjGraph};
use kreach_graph::{DiGraph, GraphView, VertexId};
use std::collections::BTreeSet;
use std::time::Instant;

/// Tuning knobs for incremental maintenance.
#[derive(Debug, Clone, Copy)]
pub struct DynamicOptions {
    /// Options forwarded to full (re)builds.
    pub build: BuildOptions,
    /// Fraction of the cover size at the last full build by which incremental
    /// repair may grow the cover before a lazy re-cover + rebuild triggers.
    pub max_cover_growth: f64,
    /// Absolute growth floor so small covers do not rebuild on every insert.
    pub min_cover_growth: usize,
    /// Fraction of the edge count at the last full build that may be
    /// *removed* before a lazy re-cover triggers — the path by which
    /// deletions shrink the cover (incremental repair alone never removes a
    /// cover vertex).
    pub max_removal_fraction: f64,
    /// Absolute removal floor so small graphs do not rebuild on every delete.
    pub min_removal_trigger: usize,
}

impl Default for DynamicOptions {
    fn default() -> Self {
        DynamicOptions {
            build: BuildOptions::default(),
            max_cover_growth: 0.25,
            min_cover_growth: 16,
            max_removal_fraction: 0.25,
            min_removal_trigger: 32,
        }
    }
}

/// Cumulative counters describing the work the maintainer has done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Edge insertions that changed the graph.
    pub inserts: u64,
    /// Edge removals that changed the graph.
    pub removes: u64,
    /// Updates that were no-ops (duplicate insert, absent removal, self-loop).
    pub noops: u64,
    /// Index rows recomputed by a forward k-BFS.
    pub rows_patched: u64,
    /// Row recomputations *avoided* because several updates in one batch
    /// affected the same cover row (deduplicated before recomputation).
    pub rows_coalesced: u64,
    /// Vertices added to the cover by incremental repair.
    pub cover_additions: u64,
    /// Cover repairs that picked the inserted edge's *source* endpoint (its
    /// out-degree was no larger than the target's, so its forward-BFS row
    /// was the cheaper arm).
    pub repairs_picked_source: u64,
    /// Cover repairs that picked the inserted edge's *target* endpoint.
    pub repairs_picked_target: u64,
    /// Lazy full rebuilds (fresh cover + BFS sweep) triggered by cover
    /// growth or by the deletion threshold.
    pub full_rebuilds: u64,
    /// Nanoseconds spent recomputing rows at batch end (the coalesced
    /// pending-set drain of [`DynamicKReach::apply_all`]).
    pub patch_nanos: u64,
    /// Nanoseconds spent on incremental cover repairs (forward row compute
    /// plus the backward splice of [`UpdateStats::cover_additions`]).
    pub repair_nanos: u64,
    /// Nanoseconds spent in lazy full rebuilds.
    pub rebuild_nanos: u64,
}

impl UpdateStats {
    /// Updates that changed the graph (inserts + removes).
    pub fn applied(&self) -> u64 {
        self.inserts + self.removes
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: UpdateStats) -> UpdateStats {
        UpdateStats {
            inserts: self.inserts - earlier.inserts,
            removes: self.removes - earlier.removes,
            noops: self.noops - earlier.noops,
            rows_patched: self.rows_patched - earlier.rows_patched,
            rows_coalesced: self.rows_coalesced - earlier.rows_coalesced,
            cover_additions: self.cover_additions - earlier.cover_additions,
            repairs_picked_source: self.repairs_picked_source - earlier.repairs_picked_source,
            repairs_picked_target: self.repairs_picked_target - earlier.repairs_picked_target,
            full_rebuilds: self.full_rebuilds - earlier.full_rebuilds,
            patch_nanos: self.patch_nanos - earlier.patch_nanos,
            repair_nanos: self.repair_nanos - earlier.repair_nanos,
            rebuild_nanos: self.rebuild_nanos - earlier.rebuild_nanos,
        }
    }

    /// Folds a batch's counter deltas into this accumulator — how the
    /// engine keeps lifetime update totals across mutation batches.
    pub fn absorb(&mut self, delta: &UpdateStats) {
        self.inserts += delta.inserts;
        self.removes += delta.removes;
        self.noops += delta.noops;
        self.rows_patched += delta.rows_patched;
        self.rows_coalesced += delta.rows_coalesced;
        self.cover_additions += delta.cover_additions;
        self.repairs_picked_source += delta.repairs_picked_source;
        self.repairs_picked_target += delta.repairs_picked_target;
        self.full_rebuilds += delta.full_rebuilds;
        self.patch_nanos += delta.patch_nanos;
        self.repair_nanos += delta.repair_nanos;
        self.rebuild_nanos += delta.rebuild_nanos;
    }
}

/// A k-reach index kept consistent with a mutating graph.
///
/// The maintainer owns the graph (a [`VersionedAdjGraph`]) and the
/// [`KReachIndex`] over it. Queries read both directly, so they need only
/// `&self` and are always consistent with every update applied so far.
#[derive(Debug, Clone)]
pub struct DynamicKReach {
    options: DynamicOptions,
    graph: VersionedAdjGraph,
    /// The served index, patched in place; repair only ever appends cover
    /// positions, so existing positions are stable between rebuilds.
    index: KReachIndex,
    cover_at_rebuild: usize,
    edges_at_rebuild: usize,
    removals_since_rebuild: usize,
    stats: UpdateStats,
    /// Reusable single-source BFS for row maintenance; grows with the graph.
    explorer: NeighborhoodExplorer,
    /// Scratch row of `(target position, true distance)`.
    row_buf: Vec<(u32, u32)>,
}

impl DynamicKReach {
    /// Builds the initial index over `g` (a full Algorithm-1 build).
    ///
    /// # Panics
    /// Panics if `k == 0`, like [`KReachIndex::build`].
    pub fn new(g: DiGraph, k: u32, options: DynamicOptions) -> Self {
        let index = KReachIndex::build(&g, k, options.build);
        Self::from_index(g, index, options).expect("a fresh build fits its graph")
    }

    /// Maintains an index loaded for `g` — the restore path of `kreach
    /// serve --data-dir` — as if it had just been built. The index must have
    /// been checked on the way in
    /// ([`crate::index_graph::CoverIndexGraph::from_raw_parts_with_accel`]);
    /// a vertex count or cover that does not fit `g` is an `Err`. (The CSR's
    /// flat adjacency is what the checks and the translation scan fastest.)
    pub fn from_index(
        g: DiGraph,
        index: KReachIndex,
        options: DynamicOptions,
    ) -> Result<Self, String> {
        if index.k() == 0 {
            return Err("k-reach requires k >= 1".to_string());
        }
        let (n, indexed) = (g.vertex_count(), index.index_graph());
        if indexed.input_vertex_count() != n {
            return Err(format!("index and graph differ in vertex count ({n})"));
        }
        if let Some((u, v)) = g
            .edges()
            .find(|&(u, v)| !index.in_cover(u) && !index.in_cover(v))
        {
            return Err(format!("edge ({u}, {v}) has no endpoint in the cover"));
        }
        index.pos_adj(&g);
        Ok(DynamicKReach {
            options,
            cover_at_rebuild: index.cover_size(),
            edges_at_rebuild: g.edge_count(),
            graph: VersionedAdjGraph::from_csr(&g),
            index,
            removals_since_rebuild: 0,
            stats: UpdateStats::default(),
            explorer: NeighborhoodExplorer::new(),
            row_buf: Vec::new(),
        })
    }

    /// The hop bound `k` the maintained index answers.
    pub fn k(&self) -> u32 {
        self.index.k()
    }

    /// The live graph view (always consistent with the index).
    pub fn graph(&self) -> &VersionedAdjGraph {
        &self.graph
    }

    /// The maintained index, consistent with [`DynamicKReach::graph`]: what
    /// queries run, and what checkpoints persist.
    pub fn index(&self) -> &KReachIndex {
        &self.index
    }

    /// Materializes the current graph as a frozen CSR (`O(n + m)`; for
    /// persistence or hand-off, not the serving path).
    pub fn snapshot_csr(&self) -> DiGraph {
        self.graph.to_csr()
    }

    /// Current number of cover vertices.
    pub fn cover_size(&self) -> usize {
        self.index.cover_size()
    }

    /// Whether `v` is currently a cover vertex.
    pub fn in_cover(&self, v: VertexId) -> bool {
        self.index.in_cover(v)
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> UpdateStats {
        self.stats
    }

    /// Answers `s →k t` at the maintained hop bound (Algorithm 2).
    pub fn query(&self, s: VertexId, t: VertexId) -> bool {
        self.index.query(&self.graph, s, t)
    }

    /// Answers `answers[i] = sources[i] →k t` at the maintained hop bound
    /// ([`KReachIndex::query_group_k`]; panics on a length mismatch).
    pub fn query_group(&self, sources: &[VertexId], t: VertexId, answers: &mut [bool]) {
        self.index
            .query_group_k(&self.graph, sources, t, self.k(), answers);
    }

    /// Answers `s →k t` for an arbitrary hop bound, as
    /// [`KReachIndex::query_k`] does.
    pub fn query_k(&self, s: VertexId, t: VertexId, k: u32) -> bool {
        self.index.query_k(&self.graph, s, t, k)
    }

    /// Inserts one edge; returns whether the graph changed.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.apply_all(&[EdgeUpdate::Insert(u, v)]).inserts == 1
    }

    /// Removes one edge; returns whether the graph changed.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.apply_all(&[EdgeUpdate::Remove(u, v)]).removes == 1
    }

    /// Applies a batch of updates in order. Graph mutations, cover repairs
    /// and position-list patches happen immediately; affected cover rows are
    /// collected into a deduplicated pending set and recomputed **once** at
    /// the end of the batch, so overlapping row patches coalesce. Returns
    /// the counter deltas for this call.
    pub fn apply_all(&mut self, updates: &[EdgeUpdate]) -> UpdateStats {
        let before = self.stats;
        let mut pending: BTreeSet<u32> = BTreeSet::new();
        for &update in updates {
            self.apply_one(update, &mut pending);
        }
        if !pending.is_empty() {
            let started = Instant::now();
            for p in pending {
                let w = self.index.index_graph().cover_vertices()[p as usize];
                self.compute_row(w);
                self.index.index_graph_mut().patch_row(p, 0, &self.row_buf);
                self.stats.rows_patched += 1;
            }
            self.stats.patch_nanos += started.elapsed().as_nanos() as u64;
        }
        self.index.compact();
        self.stats.since(before)
    }

    /// Applies one update to the graph, repairs the cover if needed, and
    /// schedules the affected rows. A rebuild (threshold hit) recomputes
    /// everything, so it drains the pending set.
    fn apply_one(&mut self, update: EdgeUpdate, pending: &mut BTreeSet<u32>) {
        let (u, v) = match update {
            EdgeUpdate::Insert(u, v) => {
                if !self.graph.insert_edge(u, v) {
                    self.stats.noops += 1;
                    return;
                }
                self.stats.inserts += 1;
                // Cover repair: the new edge must have a covered endpoint.
                // Either endpoint restores the invariant, so pick the one
                // whose forward k-BFS row is cheaper to compute and maintain:
                // the smaller out-degree (ties go to the source).
                let repaired = if !self.in_cover(u) && !self.in_cover(v) {
                    let w = if self.graph.out_degree(u) <= self.graph.out_degree(v) {
                        self.stats.repairs_picked_source += 1;
                        u
                    } else {
                        self.stats.repairs_picked_target += 1;
                        v
                    };
                    Some(self.add_to_cover(w))
                } else {
                    None
                };
                // The freshly repaired row was computed post-insert already;
                // skip it instead of scheduling a redundant recomputation.
                self.schedule_affected(u, repaired, pending);
                (u, v)
            }
            EdgeUpdate::Remove(u, v) => {
                // Affected rows are found in the PRE-removal graph: only
                // paths that existed there can have used the edge.
                if !self.graph.has_edge(u, v) {
                    self.stats.noops += 1;
                    return;
                }
                self.schedule_affected(u, None, pending);
                let removed = self.graph.remove_edge(u, v);
                debug_assert!(removed);
                self.stats.removes += 1;
                self.removals_since_rebuild += 1;
                (u, v)
            }
        };
        for w in [u, v] {
            self.index.refresh_lists(&self.graph, w);
        }
        if self.maybe_rebuild() {
            pending.clear();
        }
    }

    /// Schedules recomputation of every cover row an edge update out of `u`
    /// can have changed: exactly the cover vertices within `k − 1` backward
    /// hops of `u` (paths through the edge spend one hop on it), plus `u`
    /// itself when covered. A row at position `skip` (just computed on the
    /// current graph) is left alone. Already-pending rows count as coalesced.
    fn schedule_affected(&mut self, u: VertexId, skip: Option<u32>, pending: &mut BTreeSet<u32>) {
        if u.index() >= self.graph.vertex_count() {
            return;
        }
        let index = self.index.index_graph();
        let reach = self
            .explorer
            .explore(&self.graph, u, self.index.k() - 1, Direction::Backward);
        for &(w, _) in reach {
            if let Some(p) = index.position(w) {
                if Some(p) != skip && !pending.insert(p) {
                    self.stats.rows_coalesced += 1;
                }
            }
        }
    }

    /// One forward k-hop BFS from `w`, keeping reached cover vertices
    /// (Algorithm 1, Lines 4–13) — the row of `w` with true distances,
    /// sorted by target position, left in `row_buf`.
    fn compute_row(&mut self, w: VertexId) {
        let index = self.index.index_graph();
        let reach = self
            .explorer
            .explore(&self.graph, w, self.index.k(), Direction::Forward);
        self.row_buf.clear();
        self.row_buf.extend(
            reach
                .iter()
                .filter(|&&(v, _)| v != w)
                .filter_map(|&(v, d)| index.position(v).map(|p| (p, d))),
        );
        self.row_buf.sort_unstable_by_key(|&(p, _)| p);
    }

    /// Appends `w` to the cover: computes its row with one forward k-BFS and
    /// splices `w` into every row that reaches it with one backward k-BFS.
    /// Rows stay sorted because the new position is the largest so far.
    /// Returns the new cover position.
    fn add_to_cover(&mut self, w: VertexId) -> u32 {
        let started = Instant::now();
        let p = self.index.index_graph_mut().push_cover(w);
        // Existing cover vertices that reach w gain the edge (them → w).
        let back = self
            .explorer
            .explore(&self.graph, w, self.index.k(), Direction::Backward);
        for &(x, d) in back {
            if x == w {
                continue;
            }
            let index = self.index.index_graph_mut();
            if let Some(px) = index.position(x) {
                // p is the largest position, so the row stays sorted.
                index.patch_row(px, index.out_degree_by_pos(px), &[(p, d)]);
            }
        }
        self.compute_row(w);
        self.index.index_graph_mut().patch_row(p, 0, &self.row_buf);
        self.stats.cover_additions += 1;
        self.stats.rows_patched += 1;
        self.stats.repair_nanos += started.elapsed().as_nanos() as u64;
        p
    }

    /// Lazily re-covers once incremental repair has grown the cover past the
    /// configured threshold since the last full build, or once enough edges
    /// have been removed that a fresh (smaller) cover is worth computing.
    /// Returns whether a rebuild happened.
    fn maybe_rebuild(&mut self) -> bool {
        let grown = self.cover_size().saturating_sub(self.cover_at_rebuild);
        let growth_allowed = self
            .options
            .min_cover_growth
            .max((self.cover_at_rebuild as f64 * self.options.max_cover_growth).ceil() as usize);
        let removals_allowed = self.options.min_removal_trigger.max(
            (self.edges_at_rebuild as f64 * self.options.max_removal_fraction).ceil() as usize,
        );
        if grown > growth_allowed || self.removals_since_rebuild > removals_allowed {
            self.rebuild();
            true
        } else {
            false
        }
    }

    /// Full Algorithm-1 build: fresh vertex cover, fresh BFS sweep.
    fn rebuild(&mut self) {
        let started = Instant::now();
        self.index = KReachIndex::build(&self.graph, self.index.k(), self.options.build);
        self.cover_at_rebuild = self.cover_size();
        self.edges_at_rebuild = self.graph.edge_count();
        self.removals_since_rebuild = 0;
        self.stats.full_rebuilds += 1;
        self.stats.rebuild_nanos += started.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::traversal::khop_reachable_bfs;
    use proptest::prelude::*;

    fn check_exact(dynk: &DynamicKReach) {
        let g = dynk.graph();
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    dynk.query(s, t),
                    khop_reachable_bfs(g, s, t, dynk.k()),
                    "k={} ({s},{t})",
                    dynk.k()
                );
            }
        }
    }

    #[test]
    fn insert_opens_new_paths() {
        let g = DiGraph::from_edges(5, [(0, 1), (2, 3)]);
        for k in [1, 2, 3] {
            let mut dynk = DynamicKReach::new(g.clone(), k, DynamicOptions::default());
            check_exact(&dynk);
            assert!(dynk.insert_edge(VertexId(1), VertexId(2)));
            check_exact(&dynk);
            assert!(dynk.insert_edge(VertexId(3), VertexId(4)));
            check_exact(&dynk);
            assert_eq!(dynk.stats().inserts, 2);
        }
    }

    #[test]
    fn remove_closes_paths() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (4, 5)]);
        for k in [1, 2, 3, 5] {
            let mut dynk = DynamicKReach::new(g.clone(), k, DynamicOptions::default());
            assert!(dynk.remove_edge(VertexId(0), VertexId(3)));
            check_exact(&dynk);
            assert!(dynk.remove_edge(VertexId(2), VertexId(3)));
            check_exact(&dynk);
            assert!(!dynk.remove_edge(VertexId(2), VertexId(3)));
            assert_eq!(dynk.stats().removes, 2);
            assert_eq!(dynk.stats().noops, 1);
        }
    }

    #[test]
    fn insert_between_uncovered_endpoints_repairs_the_cover() {
        // A path 0→1→2 puts 1 in the cover; vertices 3 and 4 are isolated
        // and uncovered, so inserting (3, 4) must repair the cover.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2)]);
        let mut dynk = DynamicKReach::new(g, 2, DynamicOptions::default());
        assert!(!dynk.in_cover(VertexId(3)));
        assert!(!dynk.in_cover(VertexId(4)));
        assert!(dynk.insert_edge(VertexId(3), VertexId(4)));
        assert!(dynk.in_cover(VertexId(3)) || dynk.in_cover(VertexId(4)));
        assert_eq!(dynk.stats().cover_additions, 1);
        assert!(
            dynk.stats().repair_nanos > 0,
            "repairs are timed: {:?}",
            dynk.stats()
        );
        check_exact(&dynk);
    }

    #[test]
    fn cover_repair_picks_the_cheaper_forward_bfs_arm() {
        // Start with no edges: the cover is empty, so every insert between
        // uncovered endpoints forces a repair. Out-degrees are observed
        // post-insert (the source always counts the new edge).
        let g = DiGraph::from_edges(8, []);
        let mut dynk = DynamicKReach::new(g, 2, DynamicOptions::default());

        // (2, 3): out(2) = 1 > out(3) = 0 → the target's row is cheaper.
        assert!(dynk.insert_edge(VertexId(2), VertexId(3)));
        assert!(dynk.in_cover(VertexId(3)));
        assert!(!dynk.in_cover(VertexId(2)));
        assert_eq!(dynk.stats().repairs_picked_target, 1);
        assert_eq!(dynk.stats().repairs_picked_source, 0);

        // (4, 3): target already covered → no repair, but out(4) becomes 1.
        assert!(dynk.insert_edge(VertexId(4), VertexId(3)));
        // (1, 4): out(1) = 1 = out(4) → tie breaks to the source.
        assert!(dynk.insert_edge(VertexId(1), VertexId(4)));
        assert!(dynk.in_cover(VertexId(1)));
        assert!(!dynk.in_cover(VertexId(4)));
        assert_eq!(dynk.stats().repairs_picked_source, 1);

        // (5, 1): target covered → no repair; out(5) becomes 1. Then
        // (5, 6): out(5) = 2 > out(6) = 0 → target again.
        assert!(dynk.insert_edge(VertexId(5), VertexId(1)));
        assert!(dynk.insert_edge(VertexId(5), VertexId(6)));
        assert!(dynk.in_cover(VertexId(6)));
        assert!(!dynk.in_cover(VertexId(5)));
        assert_eq!(dynk.stats().repairs_picked_target, 2);

        // Every repair is attributed to exactly one arm.
        let stats = dynk.stats();
        assert_eq!(
            stats.cover_additions,
            stats.repairs_picked_source + stats.repairs_picked_target
        );
        check_exact(&dynk);

        // The arm counters report as deltas too.
        let mut fresh =
            DynamicKReach::new(DiGraph::from_edges(4, []), 2, DynamicOptions::default());
        let delta = fresh.apply_all(&[EdgeUpdate::Insert(VertexId(0), VertexId(1))]);
        assert_eq!(delta.repairs_picked_source + delta.repairs_picked_target, 1);
        assert_eq!(delta.cover_additions, 1);
    }

    #[test]
    fn vertex_growth_is_supported() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let mut dynk = DynamicKReach::new(g, 3, DynamicOptions::default());
        assert!(dynk.insert_edge(VertexId(2), VertexId(6)));
        assert_eq!(dynk.graph().vertex_count(), 7);
        assert!(dynk.query(VertexId(0), VertexId(6))); // 0→1→2→6, 3 hops
        assert!(!dynk.query(VertexId(0), VertexId(5))); // 5 is isolated
        check_exact(&dynk);
    }

    #[test]
    fn interleaved_updates_stay_exact_and_match_fresh_builds() {
        let g = DiGraph::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        let mut dynk = DynamicKReach::new(g, 3, DynamicOptions::default());
        let script = [
            EdgeUpdate::Insert(VertexId(3), VertexId(4)),
            EdgeUpdate::Remove(VertexId(1), VertexId(2)),
            EdgeUpdate::Insert(VertexId(0), VertexId(2)),
            EdgeUpdate::Insert(VertexId(7), VertexId(0)),
            EdgeUpdate::Remove(VertexId(5), VertexId(6)),
            EdgeUpdate::Insert(VertexId(2), VertexId(2)), // self-loop no-op
        ];
        for update in script {
            dynk.apply_all(&[update]);
            check_exact(&dynk);
            let csr = dynk.snapshot_csr();
            let fresh = KReachIndex::build(&csr, 3, BuildOptions::default());
            for s in csr.vertices() {
                for t in csr.vertices() {
                    assert_eq!(dynk.query(s, t), fresh.query(&csr, s, t), "({s},{t})");
                }
            }
        }
        assert_eq!(dynk.stats().noops, 1);
    }

    #[test]
    fn cover_growth_triggers_lazy_rebuild() {
        // Start from a single edge (tiny cover), then keep inserting edges
        // between fresh uncovered endpoint pairs; each insert repairs the
        // cover until the growth threshold forces a full re-cover.
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let mut dynk = DynamicKReach::new(
            g,
            2,
            DynamicOptions {
                min_cover_growth: 4,
                max_cover_growth: 0.0,
                ..DynamicOptions::default()
            },
        );
        for i in 0..6u32 {
            let u = VertexId(2 + 2 * i);
            let v = VertexId(3 + 2 * i);
            assert!(dynk.insert_edge(u, v));
            check_exact(&dynk);
        }
        assert!(
            dynk.stats().full_rebuilds >= 1,
            "growth must trigger a rebuild: {:?}",
            dynk.stats()
        );
        assert!(
            dynk.stats().rebuild_nanos > 0,
            "rebuilds are timed: {:?}",
            dynk.stats()
        );
    }

    #[test]
    fn deletions_trigger_re_cover_and_shrink_the_cover() {
        // A long path: every interior vertex is matched into the cover.
        // Deleting most edges leaves the old cover full of dead weight; the
        // removal threshold must fire a re-cover that shrinks it.
        let n = 40u32;
        let g = DiGraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1)));
        let mut dynk = DynamicKReach::new(
            g,
            2,
            DynamicOptions {
                max_removal_fraction: 0.25,
                min_removal_trigger: 4,
                ..DynamicOptions::default()
            },
        );
        let before = dynk.cover_size();
        // Remove every other edge: no new cover vertices are ever needed,
        // yet the graph loses half its edges.
        for i in (0..n - 1).step_by(2) {
            assert!(dynk.remove_edge(VertexId(i), VertexId(i + 1)));
            check_exact(&dynk);
        }
        let stats = dynk.stats();
        assert!(
            stats.full_rebuilds >= 1,
            "deletions must trigger a re-cover: {stats:?}"
        );
        assert!(
            dynk.cover_size() < before,
            "re-cover must shrink the cover: {} -> {}",
            before,
            dynk.cover_size()
        );
    }

    /// Every cover member has an uncovered neighbour: the pruned cover
    /// has no redundant member.
    fn assert_cover_minimal(dynk: &DynamicKReach) {
        let g = dynk.graph();
        for &v in dynk.index().index_graph().cover_vertices() {
            assert!(
                g.out_neighbors(v)
                    .iter()
                    .chain(g.in_neighbors(v))
                    .any(|&w| !dynk.in_cover(w)),
                "cover member {v} is redundant"
            );
        }
    }

    #[test]
    fn re_cover_after_removals_is_minimal_and_exact() {
        // A hub fan-out plus a chain. Removing hub edges past the removal
        // threshold fires a re-cover, whose cover must be pruned too.
        let mut edges: Vec<(u32, u32)> = (1..24u32).map(|i| (0, i)).collect();
        edges.extend((24..40u32).map(|i| (i, i + 1)));
        let g = DiGraph::from_edges(41, edges);
        let options = DynamicOptions {
            max_removal_fraction: 0.25,
            min_removal_trigger: 4,
            ..DynamicOptions::default()
        };
        for k in [1, 2, 3] {
            let mut dynk = DynamicKReach::new(g.clone(), k, options);
            assert_cover_minimal(&dynk);
            // Remove hub edges until the threshold fires: the cover is then
            // exactly the fresh one the re-cover computed.
            let mut leaves = 1..24u32;
            while dynk.stats().full_rebuilds == 0 {
                let leaf = leaves.next().expect("the removal threshold fires");
                assert!(dynk.remove_edge(VertexId(0), VertexId(leaf)));
            }
            assert_cover_minimal(&dynk);
            check_exact(&dynk);
        }
    }

    #[test]
    fn query_group_matches_per_source_bfs() {
        // Two hubs feeding shared targets: fan-in groups land on covered
        // targets (hubs, mid-path vertices) and uncovered ones (leaves).
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        for i in 5..20u32 {
            edges.push((0, i));
            edges.push((i, 1 + i % 3));
            edges.push((2, 20 + i % 4));
        }
        edges.push((24, 0));
        let g = DiGraph::from_edges(26, edges);
        for k in [1, 2, 3, 4] {
            let dynk = DynamicKReach::new(g.clone(), k, DynamicOptions::default());
            let mut covered_target = false;
            let mut uncovered_target = false;
            // Every group holds every vertex, so `s == t` is always a member.
            let sources: Vec<VertexId> = dynk.graph().vertices().collect();
            let mut answers = vec![false; sources.len()];
            for t in dynk.graph().vertices() {
                covered_target |= dynk.in_cover(t);
                uncovered_target |= !dynk.in_cover(t);
                dynk.query_group(&sources, t, &mut answers);
                for (&s, &answer) in sources.iter().zip(&answers) {
                    assert_eq!(
                        answer,
                        khop_reachable_bfs(dynk.graph(), s, t, k),
                        "k={k} ({s},{t})"
                    );
                    assert_eq!(answer, dynk.query(s, t), "k={k} ({s},{t})");
                }
            }
            assert!(covered_target && uncovered_target);
        }
    }

    #[test]
    fn batch_apply_coalesces_overlapping_row_patches() {
        // A hub graph where every update lands in the same k-neighbourhood:
        // applying the updates one per batch patches rows repeatedly, while
        // one big batch dedupes the affected set.
        let n = 16u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (0, i)).collect();
        let g = DiGraph::from_edges(n as usize, edges);
        let script: Vec<EdgeUpdate> = (1..8u32)
            .map(|i| EdgeUpdate::Insert(VertexId(i), VertexId(i + 8)))
            .collect();

        let mut one_by_one = DynamicKReach::new(g.clone(), 3, DynamicOptions::default());
        for &u in &script {
            one_by_one.apply_all(&[u]);
        }
        let mut batched = DynamicKReach::new(g, 3, DynamicOptions::default());
        let delta = batched.apply_all(&script);

        assert_eq!(delta.inserts, 7);
        assert!(
            delta.rows_coalesced > 0,
            "overlapping patches must coalesce: {delta:?}"
        );
        assert!(
            batched.stats().rows_patched < one_by_one.stats().rows_patched,
            "batching must patch fewer rows ({} vs {})",
            batched.stats().rows_patched,
            one_by_one.stats().rows_patched
        );
        // Both end states answer identically.
        check_exact(&batched);
        check_exact(&one_by_one);
        for s in batched.graph().vertices() {
            for t in batched.graph().vertices() {
                assert_eq!(batched.query(s, t), one_by_one.query(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn batch_apply_reports_deltas() {
        let g = DiGraph::from_edges(4, [(0, 1)]);
        let mut dynk = DynamicKReach::new(g, 2, DynamicOptions::default());
        let delta = dynk.apply_all(&[
            EdgeUpdate::Insert(VertexId(1), VertexId(2)),
            EdgeUpdate::Insert(VertexId(1), VertexId(2)), // duplicate no-op
            EdgeUpdate::Insert(VertexId(2), VertexId(3)),
            EdgeUpdate::Remove(VertexId(0), VertexId(1)),
        ]);
        assert_eq!(delta.inserts, 2);
        assert_eq!(delta.removes, 1);
        assert_eq!(delta.noops, 1);
        assert_eq!(delta.applied(), 3);
        check_exact(&dynk);
        // A pure-no-op batch leaves the index untouched.
        let delta = dynk.apply_all(&[EdgeUpdate::Remove(VertexId(0), VertexId(1))]);
        assert_eq!(delta.applied(), 0);
        assert_eq!(delta.noops, 1);
    }

    #[test]
    fn to_index_matches_live_queries() {
        let g = DiGraph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 3)]);
        let mut dynk = DynamicKReach::new(g, 3, DynamicOptions::default());
        dynk.apply_all(&[
            EdgeUpdate::Insert(VertexId(4), VertexId(6)),
            EdgeUpdate::Remove(VertexId(0), VertexId(5)),
        ]);
        let index = dynk.index();
        let csr = dynk.snapshot_csr();
        assert_eq!(index.cover_size(), dynk.cover_size());
        for s in csr.vertices() {
            for t in csr.vertices() {
                assert_eq!(dynk.query(s, t), index.query(&csr, s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn updates_do_not_rematerialize_storage() {
        // The graph's version advances exactly once per applied mutation and
        // queries observe each stamp — there is no snapshot generation.
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2)]);
        let mut dynk = DynamicKReach::new(g, 2, DynamicOptions::default());
        assert_eq!(dynk.graph().version(), 0);
        dynk.insert_edge(VertexId(2), VertexId(3));
        assert_eq!(dynk.graph().version(), 1);
        dynk.remove_edge(VertexId(0), VertexId(1));
        assert_eq!(dynk.graph().version(), 2);
        dynk.insert_edge(VertexId(2), VertexId(3)); // no-op
        assert_eq!(dynk.graph().version(), 2);
        check_exact(&dynk);
    }

    /// Checks the maintained index against a fresh build on its own cover:
    /// every row (targets and clamped weights), every dense slot's class
    /// bits, every uncovered vertex's position lists, and every answer
    /// against BFS.
    fn check_maintained(dynk: &DynamicKReach, build: BuildOptions) -> Result<(), TestCaseError> {
        use crate::index_graph::CoverIndexGraph;
        use crate::vertex_cover::VertexCover;
        use crate::weights::PackedWeights;
        use kreach_graph::traversal::bfs;

        let csr = dynk.snapshot_csr();
        let (index, k, n) = (dynk.index(), dynk.k(), csr.vertex_count());
        let ig = index.index_graph();
        let cover = VertexCover::from_members(n, ig.cover_vertices().iter().copied());
        let fresh = KReachIndex::build_with_cover(&csr, k, &cover, build);
        let rows = |ig: &CoverIndexGraph<PackedWeights>| -> Vec<Vec<(u32, u32)>> {
            (0..ig.cover_size() as u32)
                .map(|p| ig.out_edges_by_pos(p).collect())
                .collect()
        };
        prop_assert_eq!(rows(ig), rows(fresh.index_graph()), "rows");

        let accel = ig.accel_parts();
        let clamp_min = ig.weights().clamp_min();
        let words = accel.words_per_class;
        prop_assert!(words * 64 >= ig.cover_size(), "bitsets span the cover");
        for (p, &slot) in accel.dense_of.iter().enumerate() {
            if slot == u32::MAX {
                continue;
            }
            for c in 0..accel.classes {
                let mut want = vec![0u64; words];
                for (t, w) in ig.out_edges_by_pos(p as u32) {
                    if w - clamp_min <= c {
                        want[t as usize / 64] |= 1 << (t % 64);
                    }
                }
                let base = (slot as usize * accel.classes as usize + c as usize) * words;
                prop_assert_eq!(
                    &accel.dense_words[base..base + words],
                    &want[..],
                    "dense row {} class {}",
                    p,
                    c
                );
            }
        }

        let lists = |index: &KReachIndex, v| {
            let adj = index.pos_adj(&csr);
            (adj.out_pos(v).to_vec(), adj.in_pos(v).to_vec())
        };
        for v in csr.vertices().filter(|&v| !ig.in_cover(v)) {
            prop_assert_eq!(lists(index, v), lists(&fresh, v), "position lists of {}", v);
        }

        let sources: Vec<VertexId> = csr.vertices().collect();
        let reach: Vec<Vec<bool>> = sources
            .iter()
            .map(|&s| {
                let mut row = vec![false; n];
                for (v, _) in bfs(&csr, s, Direction::Forward, Some(k)).reached_with_distance() {
                    row[v.index()] = true;
                }
                row
            })
            .collect();
        let mut answers = vec![false; n];
        for t in csr.vertices() {
            dynk.query_group(&sources, t, &mut answers);
            for (&s, &answer) in sources.iter().zip(&answers) {
                prop_assert_eq!(answer, reach[s.index()][t.index()], "k={} ({},{})", k, s, t);
            }
        }
        Ok(())
    }

    /// One drawn update against the current graph: `kind` 0–1 inserts
    /// between existing vertices, 2 removes an existing edge, 3 inserts
    /// towards a new vertex.
    fn draw_update(dynk: &DynamicKReach, (kind, (a, b)): (u32, (u32, u32))) -> EdgeUpdate {
        let g = dynk.graph();
        let n = g.vertex_count() as u32;
        let edges: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        match kind {
            2 if !edges.is_empty() => {
                let (u, v) = edges[a as usize % edges.len()];
                EdgeUpdate::Remove(u, v)
            }
            3 => EdgeUpdate::Insert(VertexId(a % n), VertexId(n + b % 4)),
            _ => EdgeUpdate::Insert(VertexId(a % n), VertexId(b % n)),
        }
    }

    #[test]
    fn maintained_index_matches_a_fresh_build_under_random_batches() {
        use proptest::collection::vec;

        let case = (
            (8u32..32, vec((0u32..32, 0u32..32), 0..64)),
            (
                vec(vec((0u32..4, (0u32..64, 0u32..64)), 1..8), 1..10),
                ((1u32..5, 0usize..3), proptest::bool::ANY),
            ),
        );
        let config = ProptestConfig {
            cases: 40,
            ..ProptestConfig::default()
        };
        let mut rng = proptest::rng_for("dynamic::maintained_index", &config);
        let mut compactions = 0;
        for case_no in 0..config.cases {
            let ((n, edges), (batches, ((k, threshold_i), eager))) = case.generate(&mut rng);
            let g = DiGraph::from_edges(n as usize, edges.iter().map(|&(u, v)| (u % n, v % n)));
            let mut options = DynamicOptions::default();
            options.build.dense_row_threshold = [Some(1), None, Some(usize::MAX)][threshold_i];
            if eager {
                // Small thresholds force re-covers mid-sequence.
                options.min_cover_growth = 2;
                options.max_cover_growth = 0.0;
                options.min_removal_trigger = 3;
                options.max_removal_fraction = 0.0;
            }
            let mut dynk = DynamicKReach::new(g, k, options);
            let outcome = (|| {
                check_maintained(&dynk, options.build)?;
                for batch in &batches {
                    let updates: Vec<EdgeUpdate> =
                        batch.iter().map(|&op| draw_update(&dynk, op)).collect();
                    let (bytes, rebuilds) = (
                        dynk.index().index_graph().size_bytes(),
                        dynk.stats().full_rebuilds,
                    );
                    dynk.apply_all(&updates);
                    // Patches only ever grow the rows' columns; only a
                    // compaction (or a rebuild) shrinks them.
                    if dynk.index().index_graph().size_bytes() < bytes
                        && dynk.stats().full_rebuilds == rebuilds
                    {
                        compactions += 1;
                    }
                    check_maintained(&dynk, options.build)?;
                }
                Ok::<(), TestCaseError>(())
            })();
            if let Err(e) = outcome {
                panic!("case {case_no} (k={k}, {options:?}): {e}");
            }
        }
        assert!(compactions > 0, "no batch compacted the index");
    }

    #[test]
    fn cover_growth_past_the_bitset_width_rederives_the_accel() {
        // A 120-vertex path has a cover of about 60 with every row
        // non-empty; a dense threshold of 1 makes all of them dense.
        let g = DiGraph::from_edges(120, (0..119u32).map(|i| (i, i + 1)));
        let mut options = DynamicOptions {
            min_cover_growth: 64,
            ..DynamicOptions::default()
        };
        options.build.dense_row_threshold = Some(1);
        let mut dynk = DynamicKReach::new(g, 3, options);
        assert!(dynk.cover_size() <= 64);
        let mut fresh = 120u32;
        while dynk.cover_size() <= 66 {
            // A fresh pair forces a repair; linking the path's end to it
            // splices the new position into existing (dense) rows.
            dynk.apply_all(&[
                EdgeUpdate::Insert(VertexId(fresh), VertexId(fresh + 1)),
                EdgeUpdate::Insert(VertexId(118), VertexId(fresh)),
            ]);
            fresh += 2;
            check_maintained(&dynk, options.build).unwrap();
        }
        let index = dynk.index().index_graph();
        assert_eq!(dynk.stats().full_rebuilds, 0);
        assert_eq!(index.accel_parts().words_per_class, 2);
        assert!(index.dense_row_count() > 0);
    }

    #[test]
    #[should_panic]
    fn zero_k_is_rejected() {
        DynamicKReach::new(
            DiGraph::from_edges(2, [(0, 1)]),
            0,
            DynamicOptions::default(),
        );
    }
}
