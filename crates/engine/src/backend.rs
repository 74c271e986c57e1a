//! The unified query backend trait and its implementations.
//!
//! The engine serves queries against any [`Reachability`] backend: the
//! k-reach index of §4, the (h,k)-reach index of §5, an index-free BFS
//! fallback, or the incrementally maintained [`DynamicKReachBackend`], the
//! only one that accepts graph mutations ([`Reachability::apply_updates`]).
//! Backends own their graph (directly or behind a lock) so the trait objects
//! are `'static` and can be shared by every thread that calls the engine.
//!
//! The index-serving backends are generic over the [`GraphView`] storage
//! backend — a frozen CSR [`DiGraph`] for static serving, or a
//! [`kreach_graph::VersionedAdjGraph`] when the same storage instance also
//! feeds a mutation path — so the physical layout is chosen at construction
//! and the serving layer never cares.
//!
//! Note this trait is *k-hop* reachability for serving, distinct from
//! [`kreach_baselines::Reachability`], which models the paper's classic
//! (unbounded) reachability baselines for the benchmark tables.

use kreach_core::dynamic::{DynamicKReach, DynamicOptions, UpdateStats};
use kreach_core::{HkReachIndex, KReachIndex};
use kreach_graph::traversal::khop_reachable_bidirectional;
use kreach_graph::EdgeUpdate;
use kreach_graph::{DiGraph, GraphView, VertexId};
use std::sync::{Arc, RwLock};

/// A batch of graph mutations failed to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The backend serves an immutable index and cannot apply updates.
    Unsupported {
        /// Name of the backend that rejected the updates.
        backend: String,
    },
    /// An update named a vertex at or past the engine's configured vertex
    /// limit (rejected before applying anything: vertex growth allocates
    /// per-vertex state, so an absurd id would commit memory proportional
    /// to the id itself).
    VertexLimitExceeded {
        /// The offending vertex id.
        vertex: u32,
        /// The effective limit: [`crate::EngineConfig::max_vertices`] or the
        /// backend's current vertex count, whichever is larger (edges among
        /// existing vertices are never growth).
        limit: usize,
    },
    /// The batch could not be made durable: the engine's
    /// [`crate::DurabilitySink`] failed to persist it (full disk, failing
    /// device), or the engine is already fenced read-only from an earlier
    /// sink failure. The caller must NOT treat the update as acknowledged.
    /// With a presence-answering backend (log-before-apply) the batch was
    /// not applied in memory either; only the legacy apply-then-append path
    /// can leave it applied-but-unacked.
    Durability {
        /// The underlying I/O failure, rendered.
        message: String,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Unsupported { backend } => {
                write!(
                    f,
                    "backend {backend:?} serves an immutable index and cannot apply graph updates"
                )
            }
            UpdateError::VertexLimitExceeded { vertex, limit } => {
                write!(
                    f,
                    "update names vertex {vertex}, at or past the engine's vertex limit \
                     {limit} (raise EngineConfig::max_vertices if this growth is intended)"
                )
            }
            UpdateError::Durability { message } => {
                write!(
                    f,
                    "update could not be persisted \
                     (do not treat it as acknowledged): {message}"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// The result of applying a batch of graph mutations through a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Maintenance counter deltas for this batch (inserts, removes, no-ops,
    /// rows patched, cover additions, rebuilds).
    pub stats: UpdateStats,
    /// Vertex count after the batch (inserts may grow the vertex set).
    pub vertex_count: usize,
    /// The mutation epoch in force after the batch. Backends report 0; the
    /// engine fills this in after bumping its epoch.
    pub epoch: u64,
}

/// A shareable answerer of k-hop reachability queries.
pub trait Reachability: Send + Sync {
    /// Short backend name for stats and reports.
    fn name(&self) -> &'static str;

    /// Number of vertices of the served graph (used for query validation;
    /// a method rather than a `&DiGraph` accessor because mutable backends
    /// keep their graph behind a lock and grow it under updates).
    fn vertex_count(&self) -> usize;

    /// The hop bound this backend answers fastest (its index's `k`); used as
    /// the default for queries that do not carry their own.
    fn default_k(&self) -> u32;

    /// Whether `t` is reachable from `s` in at most `k` hops. Must be exact
    /// for every `k`, falling back to online search when the index does not
    /// cover the requested bound.
    fn query(&self, s: VertexId, t: VertexId, k: u32) -> bool;

    /// Answers a group of queries sharing one `(t, k)`:
    /// `answers[i] = sources[i] →k t`. Answers must be identical to calling
    /// [`Reachability::query`] per source — this exists purely so index
    /// backends can amortize per-target work (candidate translation, scratch
    /// bitsets, lock acquisition) across the group. The default loops.
    ///
    /// # Panics
    /// Implementations may panic when `sources` and `answers` differ in
    /// length.
    fn query_group(&self, sources: &[VertexId], t: VertexId, k: u32, answers: &mut [bool]) {
        for (answer, &s) in answers.iter_mut().zip(sources) {
            *answer = self.query(s, t, k);
        }
    }

    /// Cover rows the backend's index stores in dense (bitset) form, for
    /// `/stats` and `/metrics`. The default reports 0.
    fn dense_rows(&self) -> usize {
        0
    }

    /// Resident acceleration bytes beyond the core index — dense-row bitset
    /// stores, pre-translated adjacency tables — for `/stats` memory
    /// accounting. The default reports 0.
    fn accel_bytes(&self) -> usize {
        0
    }

    /// Applies a batch of edge mutations, updating whatever index the
    /// backend serves so subsequent queries reflect the new graph.
    ///
    /// The default implementation rejects updates: backends over immutable
    /// indexes are the common case. Callers go through
    /// [`crate::BatchEngine::apply_updates`], which also advances the
    /// mutation epoch and appends to the write-ahead log.
    fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<UpdateOutcome, UpdateError> {
        let _ = updates;
        Err(UpdateError::Unsupported {
            backend: self.name().to_string(),
        })
    }

    /// Whether the directed edge `(u, v)` currently exists, or `None` when
    /// the backend cannot answer cheaply (the default). The engine's
    /// WAL-first ack path uses this to decide — *before* logging — whether
    /// a batch will change anything: an `Insert` is effective iff `u != v`
    /// and the edge is absent, a `Remove` iff it is present, and vertices
    /// past [`Reachability::vertex_count`] have no edges. Backends that
    /// answer must match their own `apply_updates` no-op semantics exactly.
    fn has_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
        let _ = (u, v);
        None
    }
}

/// Serves a [`KReachIndex`] (§4 of the paper) over any storage backend.
pub struct KReachBackend<G: GraphView = DiGraph> {
    graph: Arc<G>,
    index: KReachIndex,
}

impl<G: GraphView + 'static> KReachBackend<G> {
    /// Wraps a built index and the graph view it was built from.
    pub fn new(graph: Arc<G>, index: KReachIndex) -> Self {
        KReachBackend { graph, index }
    }

    /// The wrapped index.
    pub fn index(&self) -> &KReachIndex {
        &self.index
    }
}

impl<G: GraphView + 'static> Reachability for KReachBackend<G> {
    fn name(&self) -> &'static str {
        "k-reach"
    }

    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    fn default_k(&self) -> u32 {
        self.index.k()
    }

    fn query(&self, s: VertexId, t: VertexId, k: u32) -> bool {
        self.index.query_k(self.graph.as_ref(), s, t, k)
    }

    fn query_group(&self, sources: &[VertexId], t: VertexId, k: u32, answers: &mut [bool]) {
        self.index
            .query_group_k(self.graph.as_ref(), sources, t, k, answers)
    }

    fn dense_rows(&self) -> usize {
        self.index.index_graph().dense_row_count()
    }

    fn accel_bytes(&self) -> usize {
        self.index.accel_size_bytes()
    }
}

/// Serves an [`HkReachIndex`] (§5 of the paper) over any storage backend.
pub struct HkReachBackend<G: GraphView = DiGraph> {
    graph: Arc<G>,
    index: HkReachIndex,
}

impl<G: GraphView + 'static> HkReachBackend<G> {
    /// Wraps a built (h,k)-reach index and its graph view.
    pub fn new(graph: Arc<G>, index: HkReachIndex) -> Self {
        HkReachBackend { graph, index }
    }

    /// The wrapped index.
    pub fn index(&self) -> &HkReachIndex {
        &self.index
    }
}

impl<G: GraphView + 'static> Reachability for HkReachBackend<G> {
    fn name(&self) -> &'static str {
        "hk-reach"
    }

    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    fn default_k(&self) -> u32 {
        self.index.k()
    }

    fn query(&self, s: VertexId, t: VertexId, k: u32) -> bool {
        if k == self.index.k() {
            self.index.query(self.graph.as_ref(), s, t)
        } else {
            // The (h,k)-index answers only its own bound; other bounds fall
            // back to exact online search.
            khop_reachable_bidirectional(self.graph.as_ref(), s, t, k)
        }
    }
}

/// Index-free fallback: every query is an online bidirectional BFS. This is
/// the "no index fits in memory" configuration and the correctness oracle
/// for the property tests.
pub struct BfsBackend<G: GraphView = DiGraph> {
    graph: Arc<G>,
    default_k: u32,
}

impl<G: GraphView + 'static> BfsBackend<G> {
    /// Wraps a graph view; `default_k` is used for queries without their own
    /// bound.
    pub fn new(graph: Arc<G>, default_k: u32) -> Self {
        BfsBackend { graph, default_k }
    }
}

impl<G: GraphView + 'static> Reachability for BfsBackend<G> {
    fn name(&self) -> &'static str {
        "online-bfs"
    }

    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    fn default_k(&self) -> u32 {
        self.default_k
    }

    fn query(&self, s: VertexId, t: VertexId, k: u32) -> bool {
        khop_reachable_bidirectional(self.graph.as_ref(), s, t, k)
    }
}

/// Serves an incrementally maintained [`DynamicKReach`] and accepts graph
/// mutations through [`Reachability::apply_updates`].
///
/// Queries take a read lock (shared across concurrent callers) and run the
/// maintained [`KReachIndex`] exactly as [`KReachBackend`] runs a static
/// one; updates take the write lock and patch that index in place, so
/// readers never observe a half-updated index.
pub struct DynamicKReachBackend {
    state: RwLock<DynamicKReach>,
}

impl DynamicKReachBackend {
    /// Builds the initial index over `g` for hop bound `k`.
    pub fn new(g: DiGraph, k: u32, options: DynamicOptions) -> Self {
        DynamicKReachBackend {
            state: RwLock::new(DynamicKReach::new(g, k, options)),
        }
    }

    /// Wraps an already-constructed maintainer — the restore path: a
    /// checkpointed [`DynamicKReach`] rebuilt by
    /// [`DynamicKReach::from_index`] (plus write-ahead-log replay) is
    /// served as-is, without any index construction.
    pub fn from_state(state: DynamicKReach) -> Self {
        DynamicKReachBackend {
            state: RwLock::new(state),
        }
    }

    /// Materializes the current graph as a frozen CSR (`O(n + m)`; for
    /// inspection and persistence — the serving path reads the maintainer's
    /// versioned storage directly and never materializes anything).
    pub fn snapshot_csr(&self) -> DiGraph {
        self.read().snapshot_csr()
    }

    /// Runs `f` against the maintainer state (for stats and tests).
    pub fn with_state<R>(&self, f: impl FnOnce(&DynamicKReach) -> R) -> R {
        f(&self.read())
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, DynamicKReach> {
        self.state.read().expect("dynamic index lock poisoned")
    }
}

impl Reachability for DynamicKReachBackend {
    fn name(&self) -> &'static str {
        "dynamic-k-reach"
    }

    fn vertex_count(&self) -> usize {
        self.read().graph().vertex_count()
    }

    fn default_k(&self) -> u32 {
        self.read().k()
    }

    fn query(&self, s: VertexId, t: VertexId, k: u32) -> bool {
        self.read().query_k(s, t, k)
    }

    /// One read lock per group, then the static backend's grouped kernel.
    fn query_group(&self, sources: &[VertexId], t: VertexId, k: u32, answers: &mut [bool]) {
        let state = self.read();
        state
            .index()
            .query_group_k(state.graph(), sources, t, k, answers);
    }

    fn dense_rows(&self) -> usize {
        self.read().index().index_graph().dense_row_count()
    }

    fn accel_bytes(&self) -> usize {
        self.read().index().accel_size_bytes()
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
        Some(self.read().graph().has_edge(u, v))
    }

    fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<UpdateOutcome, UpdateError> {
        let mut state = self.state.write().expect("dynamic index lock poisoned");
        let stats = state.apply_all(updates);
        Ok(UpdateOutcome {
            stats,
            vertex_count: state.graph().vertex_count(),
            epoch: 0,
        })
    }
}

// Every backend must be shareable as Arc<dyn Reachability> across threads,
// over either storage backend.
const _: fn() = || {
    fn assert_backend<T: Reachability + 'static>() {}
    assert_backend::<KReachBackend>();
    assert_backend::<KReachBackend<kreach_graph::VersionedAdjGraph>>();
    assert_backend::<HkReachBackend>();
    assert_backend::<HkReachBackend<kreach_graph::VersionedAdjGraph>>();
    assert_backend::<BfsBackend>();
    assert_backend::<BfsBackend<kreach_graph::VersionedAdjGraph>>();
    assert_backend::<DynamicKReachBackend>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_core::BuildOptions;
    use kreach_graph::traversal::khop_reachable_bfs;

    fn sample() -> Arc<DiGraph> {
        Arc::new(DiGraph::from_edges(
            8,
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 3), (6, 7)],
        ))
    }

    #[test]
    fn all_backends_agree_with_ground_truth_for_every_k() {
        let g = sample();
        let k = 3;
        let kreach = KReachBackend::new(
            Arc::clone(&g),
            KReachIndex::build(&g, k, BuildOptions::default()),
        );
        let hkreach = HkReachBackend::new(Arc::clone(&g), HkReachIndex::build(&g, 1, k));
        let bfs = BfsBackend::new(Arc::clone(&g), k);
        let dynamic = DynamicKReachBackend::new((*g).clone(), k, DynamicOptions::default());
        let backends: [&dyn Reachability; 4] = [&kreach, &hkreach, &bfs, &dynamic];
        for backend in backends {
            assert_eq!(backend.default_k(), k, "{}", backend.name());
            for query_k in [1, 2, 3, 5] {
                let sources: Vec<VertexId> = g.vertices().collect();
                let mut answers = vec![false; sources.len()];
                for t in g.vertices() {
                    backend.query_group(&sources, t, query_k, &mut answers);
                    for (&s, &grouped) in sources.iter().zip(&answers) {
                        let truth = khop_reachable_bfs(&g, s, t, query_k);
                        let name = backend.name();
                        assert_eq!(
                            backend.query(s, t, query_k),
                            truth,
                            "{name} k={query_k} ({s},{t})"
                        );
                        assert_eq!(grouped, truth, "{name} grouped k={query_k} ({s},{t})");
                    }
                }
            }
        }
    }

    #[test]
    fn backends_are_shareable_trait_objects() {
        let g = sample();
        let backend: Arc<dyn Reachability> = Arc::new(BfsBackend::new(Arc::clone(&g), 2));
        let clone = Arc::clone(&backend);
        let handle = std::thread::spawn(move || clone.query(VertexId(0), VertexId(3), 2));
        assert!(handle.join().unwrap());
        assert_eq!(backend.vertex_count(), 8);
    }

    #[test]
    fn immutable_backends_reject_updates() {
        let g = sample();
        let backend = BfsBackend::new(Arc::clone(&g), 2);
        let err = backend
            .apply_updates(&[EdgeUpdate::Insert(VertexId(0), VertexId(7))])
            .unwrap_err();
        assert_eq!(
            err,
            UpdateError::Unsupported {
                backend: "online-bfs".to_string()
            }
        );
        assert!(err.to_string().contains("online-bfs"), "{err}");
    }

    #[test]
    fn dynamic_backend_applies_updates_and_answers_fresh() {
        let g = sample();
        let backend = DynamicKReachBackend::new((*g).clone(), 3, DynamicOptions::default());
        assert!(!backend.query(VertexId(5), VertexId(7), 3));
        let outcome = backend
            .apply_updates(&[
                EdgeUpdate::Insert(VertexId(5), VertexId(6)),
                EdgeUpdate::Insert(VertexId(5), VertexId(6)), // duplicate no-op
            ])
            .expect("dynamic backend applies updates");
        assert_eq!(outcome.stats.inserts, 1);
        assert_eq!(outcome.stats.noops, 1);
        assert_eq!(outcome.vertex_count, 8);
        assert!(backend.query(VertexId(5), VertexId(7), 3)); // 5→6→7
                                                             // Vertex growth is visible through the trait.
        backend
            .apply_updates(&[EdgeUpdate::Insert(VertexId(7), VertexId(11))])
            .unwrap();
        assert_eq!(backend.vertex_count(), 12);
        assert_eq!(backend.snapshot_csr().vertex_count(), 12);
        assert!(backend.with_state(|s| s.stats().inserts) == 2);
    }
}
