//! Property-based tests for the central invariants of the reproduction.
//!
//! The single most important property is exactness: for *any* directed graph
//! and *any* hop bound, the k-reach index (and every variant built on top of
//! it) answers exactly like a ground-truth BFS. The remaining properties pin
//! down the covers, the baselines, and the serialization format.

use kreach::engine::{BfsBackend, KReachBackend};
use kreach::prelude::*;
use kreach_core::hop_cover::HopVertexCover;
use kreach_graph::generators::GeneratorSpec;
use kreach_graph::traversal::{
    khop_reachable_bfs, khop_reachable_bidirectional, reachable_bfs, shortest_distance,
};
use kreach_graph::IntervalList;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random directed graph with up to `max_n` vertices and a
/// density-controlled edge list, plus interesting degenerate shapes.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| DiGraph::from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn kreach_is_exact_on_random_graphs(
        g in arb_graph(40, 160),
        k in 1u32..10,
        strategy_degree in proptest::bool::ANY,
    ) {
        let strategy = if strategy_degree {
            CoverStrategy::DegreePriority
        } else {
            CoverStrategy::RandomEdge
        };
        let index = KReachIndex::build(&g, k, BuildOptions { cover_strategy: strategy, threads: 1, ..BuildOptions::default() });
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(
                    index.query(&g, s, t),
                    khop_reachable_bfs(&g, s, t, k),
                    "k={} ({},{})", k, s, t
                );
            }
        }
    }

    #[test]
    fn hkreach_is_exact_on_random_graphs(
        g in arb_graph(32, 120),
        h in 1u32..3,
        extra in 1u32..6,
    ) {
        let k = 2 * h + extra;
        let index = HkReachIndex::build(&g, h, k);
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(
                    index.query(&g, s, t),
                    khop_reachable_bfs(&g, s, t, k),
                    "h={} k={} ({},{})", h, k, s, t
                );
            }
        }
    }

    #[test]
    fn nreach_matches_classic_reachability(g in arb_graph(36, 140)) {
        let index = KReachIndex::for_classic_reachability(&g, BuildOptions::default());
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(index.query(&g, s, t), reachable_bfs(&g, s, t));
            }
        }
    }

    #[test]
    fn vertex_cover_covers_every_edge(g in arb_graph(60, 300), degree_priority in proptest::bool::ANY) {
        let strategy = if degree_priority {
            CoverStrategy::DegreePriority
        } else {
            CoverStrategy::RandomEdge
        };
        let cover = VertexCover::compute(&g, strategy);
        prop_assert!(cover.covers_all_edges(&g));
        // The matching argument bounds the cover by twice the number of edges
        // (trivially) and by the vertex count.
        prop_assert!(cover.len() <= g.vertex_count());
    }

    #[test]
    fn hop_cover_covers_every_h_path(g in arb_graph(24, 70), h in 1u32..4) {
        let cover = HopVertexCover::compute(&g, h);
        prop_assert!(cover.covers_all_paths(&g));
    }

    #[test]
    fn baselines_agree_with_bfs(g in arb_graph(32, 120)) {
        let grail = Grail::build(&g);
        let tc = IntervalTransitiveClosure::build(&g);
        let tree = TreeCover::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = reachable_bfs(&g, s, t);
                prop_assert_eq!(grail.reachable(s, t), expected, "grail ({},{})", s, t);
                prop_assert_eq!(tc.reachable(s, t), expected, "interval-tc ({},{})", s, t);
                prop_assert_eq!(tree.reachable(s, t), expected, "tree-cover ({},{})", s, t);
            }
        }
    }

    #[test]
    fn distance_labeling_is_exact(g in arb_graph(28, 100)) {
        let dist = DistanceIndex::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(dist.distance(s, t), shortest_distance(&g, s, t), "({},{})", s, t);
            }
        }
    }

    #[test]
    fn bidirectional_bfs_matches_forward_bfs(g in arb_graph(30, 110), k in 0u32..12) {
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(
                    khop_reachable_bidirectional(&g, s, t, k),
                    khop_reachable_bfs(&g, s, t, k),
                    "k={} ({},{})", k, s, t
                );
            }
        }
    }

    #[test]
    fn storage_round_trip_preserves_every_answer(g in arb_graph(30, 110), k in 1u32..8) {
        let index = KReachIndex::build(&g, k, BuildOptions::default());
        let mut buf = Vec::new();
        kreach::store::write_index_v3(&index, &mut buf).expect("serialize");
        let restored = kreach::store::read_index_v3(buf.as_slice()).expect("deserialize");
        prop_assert_eq!(restored.k(), index.k());
        for s in g.vertices() {
            for t in g.vertices() {
                prop_assert_eq!(restored.query(&g, s, t), index.query(&g, s, t));
            }
        }
    }

    #[test]
    fn interval_list_membership_matches_a_set(ids in proptest::collection::btree_set(0u32..500, 0..80)) {
        let sorted: Vec<u32> = ids.iter().copied().collect();
        let il = IntervalList::from_sorted_ids(&sorted);
        prop_assert_eq!(il.cardinality(), ids.len());
        for probe in 0u32..500 {
            prop_assert_eq!(il.contains(probe), ids.contains(&probe), "probe {}", probe);
        }
        prop_assert_eq!(il.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn scc_condensation_preserves_reachability(g in arb_graph(26, 90)) {
        let cond = kreach_graph::Condensation::new(&g);
        prop_assert!(kreach_graph::traversal::topological_sort(&cond.dag).is_some());
        for s in g.vertices() {
            for t in g.vertices() {
                let original = reachable_bfs(&g, s, t);
                let (cs, ct) = (cond.map(s), cond.map(t));
                let condensed = cs == ct || reachable_bfs(&cond.dag, cs, ct);
                prop_assert_eq!(original, condensed, "({},{})", s, t);
            }
        }
    }

    #[test]
    fn batch_engine_matches_sequential_index_and_bfs_at_every_worker_count(
        n in 8usize..48,
        m in 0usize..160,
        k in 1u32..7,
        seed in 0u64..1_000_000,
    ) {
        let g = Arc::new(GeneratorSpec::ErdosRenyi { n, m }.generate(seed));
        let index = KReachIndex::build(&g, k, BuildOptions::default());

        // Ground truth twice over: the sequential index and an online BFS.
        let mut queries = Vec::new();
        for s in g.vertices() {
            for t in g.vertices() {
                queries.push(Query { s, t, k });
            }
        }
        // Repeat the all-pairs list so even the smallest graph sends a batch
        // with long same-target runs.
        let all_pairs = queries.len();
        let batch = QueryBatch::new(queries.into_iter().cycle().take(all_pairs.max(600)).collect());
        let sequential: Vec<bool> =
            batch.queries().iter().map(|q| index.query(&g, q.s, q.t)).collect();
        for (q, &answer) in batch.queries().iter().zip(sequential.iter()) {
            prop_assert_eq!(answer, khop_reachable_bfs(&g, q.s, q.t, q.k), "({},{})", q.s, q.t);
        }

        // The workers are the threads calling one shared engine at once, as
        // the server's connection handlers do.
        let engine = BatchEngine::with_defaults(Arc::new(KReachBackend::new(
            Arc::clone(&g),
            index.clone(),
        )));
        let bfs_engine = BatchEngine::with_defaults(Arc::new(BfsBackend::new(Arc::clone(&g), k)));
        for workers in [1usize, 2, 4] {
            let outcomes = std::thread::scope(|scope| {
                let callers: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            (engine.run(&batch).expect("all queries in range"),
                             bfs_engine.run(&batch).expect("all queries in range"))
                        })
                    })
                    .collect();
                callers.into_iter().map(|c| c.join().expect("caller thread panicked")).collect::<Vec<_>>()
            });
            for (outcome, bfs_outcome) in &outcomes {
                prop_assert_eq!(&outcome.answers, &sequential, "k-reach backend, {} workers", workers);
                prop_assert_eq!(outcome.stats.queries, batch.len());
                prop_assert_eq!(&bfs_outcome.answers, &sequential, "bfs backend, {} workers", workers);
            }
        }
    }

    #[test]
    fn multikreach_powers_of_two_never_contradict_bfs(
        g in arb_graph(24, 80),
        k in 1u32..9,
    ) {
        let family = MultiKReach::build(&g, 16, BuildOptions::default());
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = khop_reachable_bfs(&g, s, t, k);
                match family.query(&g, s, t, k) {
                    kreach::core::general_k::GeneralKAnswer::Reachable => prop_assert!(expected),
                    kreach::core::general_k::GeneralKAnswer::NotReachable => prop_assert!(!expected),
                    kreach::core::general_k::GeneralKAnswer::ReachableWithin(upper) => {
                        prop_assert!(upper > k);
                        prop_assert!(khop_reachable_bfs(&g, s, t, upper));
                    }
                }
            }
        }
    }
}
