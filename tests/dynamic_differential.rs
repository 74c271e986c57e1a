//! Differential test harness for incremental k-reach index maintenance.
//!
//! The headline correctness claim of the dynamic update path is replayed
//! here: for random mutation sequences over several generated graph shapes,
//! the incrementally maintained index ([`DynamicKReach`]) must answer
//! **byte-identically** to a from-scratch [`KReachIndex::build`] over the
//! mutated graph and to a ground-truth online BFS — at every step — and a
//! query served through the engine after a mutation must never return a
//! pre-mutation answer.
//!
//! Three layers of checking:
//!
//! 1. [`differential_replay`] — the core harness: replay a seeded random
//!    mutation sequence, asserting (a) the maintained graph's edge set is
//!    exactly the oracle edge set, and (b) incremental == rebuilt == BFS on
//!    a query sample after every step.
//! 2. Engine-level replays — the same discipline through [`BatchEngine`],
//!    with each post-mutation batch run by one caller and by four threads
//!    at once on one shared engine (the shape the server's handler threads
//!    produce), which proves that the grouped dispatch path reads the
//!    post-mutation index (a stale answer would differ from BFS).
//! 3. Storage-backend equivalence — a property test asserting the frozen
//!    CSR and the [`VersionedAdjGraph`] `GraphView` implementations answer
//!    identical adjacency and reachability questions under random mutation
//!    sequences, and that the engine serves byte-identical answers over
//!    either backend.
//! 4. Durability replay — the same discipline across simulated crashes:
//!    with a `kreach-store` data directory attached, drop the engine at
//!    random points (no shutdown checkpoint) and require the restored
//!    state (checkpoint + WAL replay) to agree with the live incremental
//!    index, a from-scratch rebuild, and BFS — at the exact same epoch.
//! 5. A `#[ignore]`d soak variant with a larger step count (tunable via
//!    `KREACH_SOAK_STEPS`) for the scheduled long-sequence CI job.

use kreach_core::dynamic::{DynamicKReach, DynamicOptions};
use kreach_core::{BuildOptions, KReachIndex};
use kreach_engine::{
    BatchEngine, DynamicKReachBackend, EngineConfig, KReachBackend, Query, QueryBatch,
};
use kreach_graph::generators::GeneratorSpec;
use kreach_graph::traversal::khop_reachable_bfs;
use kreach_graph::EdgeUpdate;
use kreach_graph::{DiGraph, GraphView, VersionedAdjGraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The three generated graph shapes the harness replays over: dense-ish
/// random, hub-skewed, and layered-DAG-with-cycles.
fn shapes() -> [(GeneratorSpec, u32); 3] {
    [
        (GeneratorSpec::ErdosRenyi { n: 28, m: 90 }, 2),
        (
            GeneratorSpec::PowerLaw {
                n: 32,
                m: 110,
                hubs: 3,
            },
            3,
        ),
        (
            GeneratorSpec::LayeredDag {
                n: 30,
                m: 80,
                layers: 5,
                back_edge_fraction: 0.1,
            },
            5,
        ),
    ]
}

/// Oracle state: the plain edge set the incremental index must agree with.
struct Oracle {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl Oracle {
    fn of(g: &DiGraph) -> Self {
        Oracle {
            n: g.vertex_count(),
            edges: g.edges().map(|(u, v)| (u.0, v.0)).collect(),
        }
    }

    fn apply(&mut self, update: EdgeUpdate) -> bool {
        let (u, v) = update.endpoints();
        if u == v {
            return false;
        }
        match update {
            EdgeUpdate::Insert(..) => {
                self.n = self.n.max(u.index() + 1).max(v.index() + 1);
                self.edges.insert((u.0, v.0))
            }
            EdgeUpdate::Remove(..) => self.edges.remove(&(u.0, v.0)),
        }
    }

    fn graph(&self) -> DiGraph {
        let edges: Vec<(u32, u32)> = self.edges.iter().copied().collect();
        DiGraph::from_sorted_unique_edges(self.n, &edges)
    }
}

/// Draws the next random mutation: mostly inserts/removes between existing
/// vertices, occasionally a vertex-growing insert or a deliberate no-op.
fn random_update(rng: &mut StdRng, oracle: &Oracle) -> EdgeUpdate {
    let n = oracle.n as u32;
    let roll: u32 = rng.gen_range(0u32..100);
    if roll < 40 {
        // Insert between existing vertices (may collide with an existing
        // edge, exercising the duplicate-insert no-op path).
        EdgeUpdate::Insert(
            VertexId(rng.gen_range(0u32..n)),
            VertexId(rng.gen_range(0u32..n)),
        )
    } else if roll < 45 {
        // Vertex-growing insert.
        EdgeUpdate::Insert(VertexId(rng.gen_range(0u32..n)), VertexId(n))
    } else if roll < 85 {
        // Remove a random existing edge, if any.
        if oracle.edges.is_empty() {
            EdgeUpdate::Insert(VertexId(0), VertexId(1.min(n.saturating_sub(1))))
        } else {
            let i = rng.gen_range(0usize..oracle.edges.len());
            let &(u, v) = oracle.edges.iter().nth(i).expect("index in range");
            EdgeUpdate::Remove(VertexId(u), VertexId(v))
        }
    } else {
        // Remove a random (likely absent) pair — the absent-removal no-op.
        EdgeUpdate::Remove(
            VertexId(rng.gen_range(0u32..n)),
            VertexId(rng.gen_range(0u32..n)),
        )
    }
}

/// A deterministic sample of query pairs over the current vertex range.
fn sample_pairs(rng: &mut StdRng, n: usize, count: usize) -> Vec<(VertexId, VertexId)> {
    (0..count)
        .map(|_| {
            (
                VertexId(rng.gen_range(0u32..n as u32)),
                VertexId(rng.gen_range(0u32..n as u32)),
            )
        })
        .collect()
}

/// The core differential harness: replay `steps` random mutations over the
/// shape's generated graph, asserting after every step that the incremental
/// index, a from-scratch rebuild, and online BFS agree on `sample` random
/// query pairs (plus, every `exhaustive_every` steps, on *all* pairs).
fn differential_replay(
    shape: GeneratorSpec,
    k: u32,
    seed: u64,
    steps: usize,
    sample: usize,
    exhaustive_every: usize,
) {
    let g0 = shape.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let mut oracle = Oracle::of(&g0);
    let mut dynk = DynamicKReach::new(g0, k, DynamicOptions::default());

    for step in 0..steps {
        let update = random_update(&mut rng, &oracle);
        let expected_change = oracle.apply(update);
        let delta = dynk.apply_all(&[update]);
        assert_eq!(
            delta.applied() > 0,
            expected_change,
            "step {step}: {update} change disagreement"
        );

        // Structural agreement: the maintained snapshot IS the oracle graph.
        let oracle_graph = oracle.graph();
        let snapshot = dynk.graph();
        assert_eq!(snapshot.vertex_count(), oracle_graph.vertex_count());
        assert_eq!(
            snapshot.edges().collect::<Vec<_>>(),
            oracle_graph.edges().collect::<Vec<_>>(),
            "step {step}: edge sets diverged"
        );

        // Answer agreement: incremental == from-scratch rebuild == BFS.
        let rebuilt = KReachIndex::build(&oracle_graph, k, BuildOptions::default());
        let pairs = if exhaustive_every > 0 && step % exhaustive_every == 0 {
            let mut all = Vec::new();
            for s in oracle_graph.vertices() {
                for t in oracle_graph.vertices() {
                    all.push((s, t));
                }
            }
            all
        } else {
            sample_pairs(&mut rng, oracle.n, sample)
        };
        for (s, t) in pairs {
            let truth = khop_reachable_bfs(&oracle_graph, s, t, k);
            assert_eq!(
                dynk.query(s, t),
                truth,
                "step {step}: incremental vs BFS at k={k} ({s},{t}) after {update}"
            );
            assert_eq!(
                rebuilt.query(&oracle_graph, s, t),
                truth,
                "step {step}: rebuild vs BFS at k={k} ({s},{t})"
            );
        }
    }
    // The replay must actually have exercised the interesting paths.
    let stats = dynk.stats();
    assert!(stats.inserts > 0 && stats.removes > 0 && stats.noops > 0);
    assert!(stats.rows_patched > 0);
}

#[test]
fn differential_replay_over_three_shapes() {
    for (i, (shape, k)) in shapes().into_iter().enumerate() {
        differential_replay(shape, k, 1000 + i as u64, 110, 30, 25);
    }
}

/// Long-sequence soak variant for the scheduled CI job:
/// `cargo test --release -- --ignored`, step count tunable via
/// `KREACH_SOAK_STEPS` (default 400).
#[test]
#[ignore = "long-running soak; exercised by the CI --ignored job"]
fn differential_soak_long_sequences() {
    let steps: usize = std::env::var("KREACH_SOAK_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    for (i, (shape, k)) in shapes().into_iter().enumerate() {
        for seed in 0..3u64 {
            differential_replay(shape, k, 7_000 + 31 * i as u64 + seed, steps, 40, 50);
        }
    }
}

/// Runs `batch` on `engine` from `callers` threads at once and returns
/// every caller's answers.
fn run_concurrently(engine: &BatchEngine, batch: &QueryBatch, callers: usize) -> Vec<Vec<bool>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|_| scope.spawn(|| engine.run(batch).expect("batch in range").answers))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

/// Engine-level freshness: replaying mutations through [`BatchEngine`] must
/// stay consistent with BFS over the live snapshot — if a post-mutation
/// query ever returned a pre-mutation answer, it would diverge. Every
/// post-mutation batch is run by `callers` threads at once.
fn engine_replay(callers: usize, k: u32, seed: u64, steps: usize) {
    let g0 = GeneratorSpec::ErdosRenyi { n: 24, m: 70 }.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE1);
    let mut oracle = Oracle::of(&g0);
    let backend = Arc::new(DynamicKReachBackend::new(g0, k, DynamicOptions::default()));
    let engine = BatchEngine::new(
        Arc::clone(&backend) as Arc<dyn kreach_engine::Reachability>,
        EngineConfig::default(),
    );

    for step in 0..steps {
        // Answer a fixed probe set before the mutation.
        let probes = sample_pairs(&mut rng, oracle.n, 600);
        let batch = QueryBatch::new(probes.iter().map(|&(s, t)| Query { s, t, k }).collect());
        engine.run(&batch).expect("probe batch in range");

        let update = random_update(&mut rng, &oracle);
        oracle.apply(update);
        engine
            .apply_updates(&[update])
            .expect("dynamic backend applies updates");

        // Post-mutation: the same probes must match BFS on the new graph,
        // for every concurrent caller.
        let oracle_graph = oracle.graph();
        for answers in run_concurrently(&engine, &batch, callers) {
            for (&(s, t), &answer) in probes.iter().zip(answers.iter()) {
                assert_eq!(
                    answer,
                    khop_reachable_bfs(&oracle_graph, s, t, k),
                    "step {step}, {callers} callers: stale or wrong answer at k={k} ({s},{t}) after {update}"
                );
            }
        }
    }
}

#[test]
fn engine_replay_is_fresh_at_one_and_four_callers() {
    for callers in [1usize, 4] {
        for k in [2u32, 3, 5] {
            engine_replay(callers, k, 42 + k as u64, 40);
        }
    }
}

/// The engine must serve byte-identical answers whichever [`GraphView`]
/// implementation backs the k-reach backend: a frozen CSR or versioned
/// adjacency storage of the same edge set.
#[test]
fn engine_serves_identically_over_csr_and_versioned_backends() {
    let g = GeneratorSpec::PowerLaw {
        n: 60,
        m: 200,
        hubs: 4,
    }
    .generate(7);
    let k = 3;
    let index = KReachIndex::build(&g, k, BuildOptions::default());
    let versioned = Arc::new(VersionedAdjGraph::from_csr(&g));
    let csr = Arc::new(g);

    let mut rng = StdRng::seed_from_u64(0xF00D);
    let batch = QueryBatch::new(
        sample_pairs(&mut rng, csr.vertex_count(), 500)
            .into_iter()
            .map(|(s, t)| Query { s, t, k })
            .collect(),
    );

    let over_csr = BatchEngine::new(
        Arc::new(KReachBackend::new(Arc::clone(&csr), index.clone())),
        EngineConfig::default(),
    );
    let over_versioned = BatchEngine::new(
        Arc::new(KReachBackend::new(Arc::clone(&versioned), index)),
        EngineConfig::default(),
    );
    let a = over_csr.run(&batch).expect("csr batch in range");
    let b = over_versioned
        .run(&batch)
        .expect("versioned batch in range");
    assert_eq!(a.answers, b.answers, "answers must not depend on storage");
    for (q, &answer) in batch.queries().iter().zip(a.answers.iter()) {
        assert_eq!(
            answer,
            khop_reachable_bfs(csr.as_ref(), q.s, q.t, k),
            "({}, {})",
            q.s,
            q.t
        );
    }
}

/// Satellite property: the frozen-CSR and versioned-adjacency [`GraphView`]
/// implementations stay *structurally and semantically identical* under
/// random mutation sequences — same counts, same sorted adjacency per
/// vertex, same degrees, same k-hop reachability — and the version stamp
/// advances exactly once per applied mutation.
fn storage_equivalence_replay(seed: u64, steps: usize) {
    let g0 = GeneratorSpec::PowerLaw {
        n: 26,
        m: 80,
        hubs: 3,
    }
    .generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x570_0A6E);
    let mut oracle = Oracle::of(&g0);
    let mut view = VersionedAdjGraph::from_csr(&g0);

    for step in 0..steps {
        let update = random_update(&mut rng, &oracle);
        let expected_change = oracle.apply(update);
        let version_before = view.version();
        let applied = view.apply(update);
        assert_eq!(applied, expected_change, "step {step}: {update}");
        assert_eq!(
            view.version(),
            version_before + u64::from(applied),
            "step {step}: version must advance exactly on applied changes"
        );

        let csr = oracle.graph();
        assert_eq!(view.vertex_count(), csr.vertex_count(), "step {step}");
        assert_eq!(view.edge_count(), csr.edge_count(), "step {step}");
        for v in csr.vertices() {
            assert_eq!(
                view.out_neighbors(v),
                csr.out_neighbors(v),
                "step {step}: out({v})"
            );
            assert_eq!(
                view.in_neighbors(v),
                csr.in_neighbors(v),
                "step {step}: in({v})"
            );
            assert_eq!(
                GraphView::degree(&view, v),
                csr.degree(v),
                "step {step}: deg({v})"
            );
        }
        for (s, t) in sample_pairs(&mut rng, oracle.n, 20) {
            for k in [2u32, 4] {
                assert_eq!(
                    khop_reachable_bfs(&view, s, t, k),
                    khop_reachable_bfs(&csr, s, t, k),
                    "step {step}: k={k} ({s},{t})"
                );
            }
        }
    }
}

#[test]
fn storage_backends_agree_under_random_mutations() {
    for seed in [11u64, 12, 13] {
        storage_equivalence_replay(seed, 90);
    }
}

/// Durability differential: replay mutations through an engine wired to a
/// [`kreach_store::Store`] (WAL append + fsync on every acked batch), and at
/// random points simulate a `kill -9` by restoring from disk while the live
/// engine keeps running. The restored maintainer must agree with the live
/// incremental index, a from-scratch rebuild over the oracle edge set, and
/// online BFS — and resume at exactly the live epoch.
fn durability_replay(shape: GeneratorSpec, k: u32, seed: u64, steps: usize) {
    use kreach_store::{engine_snapshot, read_durable_state, Store};

    let dir = std::env::temp_dir().join(format!(
        "kreach-durability-{seed}-{k}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();

    let g0 = shape.generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0_0D);
    let mut oracle = Oracle::of(&g0);
    let store = Arc::new(Store::open(&dir, DynamicOptions::default()).expect("open store"));
    let backend = Arc::new(DynamicKReachBackend::new(g0, k, DynamicOptions::default()));
    let engine = Arc::new(BatchEngine::new(
        Arc::clone(&backend) as Arc<dyn kreach_engine::Reachability>,
        EngineConfig::default(),
    ));
    store
        .checkpoint_with(|| engine_snapshot(&engine, &backend))
        .expect("bootstrap checkpoint");
    engine.set_durability(Arc::clone(&store) as Arc<dyn kreach_engine::DurabilitySink>);

    let mut restores = 0usize;
    for step in 0..steps {
        let update = random_update(&mut rng, &oracle);
        oracle.apply(update);
        engine.apply_updates(&[update]).expect("durable apply");

        if step % 23 == 11 {
            // Mid-stream checkpoint: later restores replay only the tail.
            store
                .checkpoint_with(|| engine_snapshot(&engine, &backend))
                .expect("mid-stream checkpoint");
        }
        if step % 9 != 4 {
            continue;
        }
        // Simulated crash: the lock-free read-only path sees only what is
        // durable on disk — exactly what a restarted process would. (A
        // second Store::open would rightly fail: the live store holds the
        // directory's exclusive lock.)
        restores += 1;
        let report = read_durable_state(&dir, DynamicOptions::default()).expect("restore");
        assert_eq!(
            report.epoch,
            engine.epoch(),
            "step {step}: restored epoch must match the live (fully acked) epoch"
        );

        let oracle_graph = oracle.graph();
        assert_eq!(
            report.state.graph().edge_count(),
            oracle_graph.edge_count(),
            "step {step}: restored edge count diverged"
        );
        let rebuilt = KReachIndex::build(&oracle_graph, k, BuildOptions::default());
        for (s, t) in sample_pairs(&mut rng, oracle.n, 40) {
            let truth = khop_reachable_bfs(&oracle_graph, s, t, k);
            assert_eq!(
                report.state.query(s, t),
                truth,
                "step {step}: restored vs BFS at k={k} ({s},{t}) after {update}"
            );
            assert_eq!(
                backend.with_state(|state| state.query(s, t)),
                truth,
                "step {step}: incremental vs BFS at k={k} ({s},{t})"
            );
            assert_eq!(
                rebuilt.query(&oracle_graph, s, t),
                truth,
                "step {step}: rebuild vs BFS at k={k} ({s},{t})"
            );
        }
    }
    assert!(restores > 0, "the replay must have exercised restores");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_state_agrees_with_incremental_rebuild_and_bfs() {
    for (i, (shape, k)) in shapes().into_iter().enumerate() {
        durability_replay(shape, k, 9_000 + 17 * i as u64, 70);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    // Satellite property: under arbitrary interleaved mutation sequences the
    // CSR and versioned-adjacency `GraphView` implementations expose
    // identical adjacency and answer identical reachability questions.
    #[test]
    fn csr_and_versioned_views_answer_identically(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec((proptest::bool::ANY, (0u32..18, 0u32..18)), 1..50),
    ) {
        let g0 = GeneratorSpec::ErdosRenyi { n: 16, m: 40 }.generate(seed);
        let mut oracle = Oracle::of(&g0);
        let mut view = VersionedAdjGraph::from_csr(&g0);
        for &(insert, (a, b)) in &ops {
            let update = if insert {
                EdgeUpdate::Insert(VertexId(a), VertexId(b))
            } else {
                EdgeUpdate::Remove(VertexId(a), VertexId(b))
            };
            prop_assert_eq!(view.apply(update), oracle.apply(update), "{}", update);
            let csr = oracle.graph();
            prop_assert_eq!(view.vertex_count(), csr.vertex_count());
            prop_assert_eq!(view.edge_count(), csr.edge_count());
            for v in csr.vertices() {
                prop_assert_eq!(view.out_neighbors(v), csr.out_neighbors(v), "out({})", v);
                prop_assert_eq!(view.in_neighbors(v), csr.in_neighbors(v), "in({})", v);
            }
            for s in csr.vertices() {
                for t in csr.vertices() {
                    for k in [1u32, 3] {
                        prop_assert_eq!(
                            khop_reachable_bfs(&view, s, t, k),
                            khop_reachable_bfs(&csr, s, t, k),
                            "k={} ({},{})", k, s, t
                        );
                    }
                }
            }
        }
    }

    // Satellite property: random interleaved insert/remove/query sequences
    // keep the incremental index, a from-scratch rebuild, and the BFS
    // oracle in agreement for k ∈ {2, 3, 5}, with every query burst run by
    // one caller and by four threads at once on one shared engine.
    #[test]
    fn random_interleavings_agree_across_backends_and_workers(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec((0u32..3, (0u32..20, 0u32..20)), 1..40),
    ) {
        let g0 = GeneratorSpec::ErdosRenyi { n: 20, m: 50 }.generate(seed);
        for k in [2u32, 3, 5] {
            for workers in [1usize, 4] {
                let mut oracle = Oracle::of(&g0);
                let backend = Arc::new(DynamicKReachBackend::new(
                    g0.clone(),
                    k,
                    DynamicOptions::default(),
                ));
                let engine = BatchEngine::new(
                    Arc::clone(&backend) as Arc<dyn kreach_engine::Reachability>,
                    EngineConfig::default(),
                );
                for &(kind, (a, b)) in &ops {
                    let (s, t) = (VertexId(a), VertexId(b));
                    match kind {
                        0 => {
                            oracle.apply(EdgeUpdate::Insert(s, t));
                            engine.apply_updates(&[EdgeUpdate::Insert(s, t)]).expect("dynamic");
                        }
                        1 => {
                            oracle.apply(EdgeUpdate::Remove(s, t));
                            engine.apply_updates(&[EdgeUpdate::Remove(s, t)]).expect("dynamic");
                        }
                        _ => {
                            // A query burst: the probed pair plus its reverse,
                            // answered by `workers` concurrent callers and
                            // checked against BFS and a fresh rebuild.
                            let oracle_graph = oracle.graph();
                            let rebuilt =
                                KReachIndex::build(&oracle_graph, k, BuildOptions::default());
                            let batch = QueryBatch::new(vec![
                                Query { s, t, k },
                                Query { s: t, t: s, k },
                            ]);
                            for answers in run_concurrently(&engine, &batch, workers) {
                                for (q, &answer) in batch.queries().iter().zip(answers.iter()) {
                                    let truth = khop_reachable_bfs(&oracle_graph, q.s, q.t, k);
                                    prop_assert_eq!(
                                        answer, truth,
                                        "engine vs BFS, k={} workers={} ({},{})", k, workers, q.s, q.t
                                    );
                                    prop_assert_eq!(
                                        rebuilt.query(&oracle_graph, q.s, q.t), truth,
                                        "rebuild vs BFS, k={} ({},{})", k, q.s, q.t
                                    );
                                }
                            }
                        }
                    }
                }
                // Final exhaustive sweep over the end state.
                let oracle_graph = oracle.graph();
                for s in oracle_graph.vertices() {
                    for t in oracle_graph.vertices() {
                        prop_assert_eq!(
                            backend.with_state(|state| state.query(s, t)),
                            khop_reachable_bfs(&oracle_graph, s, t, k),
                            "final sweep, k={} workers={} ({},{})", k, workers, s, t
                        );
                    }
                }
            }
        }
    }
}
