//! Differential tests for the Algorithm-2 fast path.
//!
//! The hybrid query path (distance-bucketed bitset rows + galloping
//! intersections + pre-translated neighbour positions) must answer
//! **byte-identically** to the retained naive nested-loop reference
//! (`KReachIndex::query_with_case_naive`) and to a ground-truth BFS — across
//! random graph shapes, hop bounds, all four query cases, and the dense/
//! sparse row-representation boundary. The compact and dynamic variants,
//! which share the new primitives, are held to the same standard.

use kreach::prelude::*;
use kreach_core::CompactKReachIndex;
use kreach_graph::generators::GeneratorSpec;
use kreach_graph::traversal::khop_reachable_bfs;
use proptest::prelude::*;

/// Builds the index with an explicit dense-row threshold.
fn build_with_threshold(g: &DiGraph, k: u32, threshold: Option<usize>) -> KReachIndex {
    KReachIndex::build(
        g,
        k,
        BuildOptions {
            dense_row_threshold: threshold,
            ..BuildOptions::default()
        },
    )
}

/// Asserts the fast path, the naive reference, the compact index and the
/// dynamic maintainer all agree with BFS on every pair, and that every case
/// is classified identically by the two paths.
fn check_all_paths(g: &DiGraph, k: u32) {
    let index = build_with_threshold(g, k, None);
    let compact = CompactKReachIndex::from_index(&index);
    let dynk = DynamicKReach::new(g.clone(), k, DynamicOptions::default());
    let mut seen_cases = [false; 4];
    for s in g.vertices() {
        for t in g.vertices() {
            let expected = khop_reachable_bfs(g, s, t, k);
            let (fast, fast_case) = index.query_with_case(g, s, t);
            let (naive, naive_case) = index.query_with_case_naive(g, s, t);
            assert_eq!(fast, expected, "fast k={k} ({s},{t})");
            assert_eq!(naive, expected, "naive k={k} ({s},{t})");
            assert_eq!(fast_case, naive_case, "case k={k} ({s},{t})");
            seen_cases[fast_case.number() as usize - 1] = true;
            assert_eq!(compact.query(g, s, t), expected, "compact k={k} ({s},{t})");
            assert_eq!(dynk.query(s, t), expected, "dynamic k={k} ({s},{t})");
        }
    }
    // The shapes below are chosen so the workload actually exercises the
    // rewritten paths, not just Case 1.
    assert!(
        seen_cases.iter().filter(|&&c| c).count() >= 2,
        "graph too degenerate to exercise multiple cases: {seen_cases:?}"
    );
}

#[test]
fn fast_path_matches_naive_and_bfs_across_shapes_and_k() {
    let shapes = [
        GeneratorSpec::ErdosRenyi { n: 60, m: 200 },
        GeneratorSpec::PowerLaw {
            n: 80,
            m: 300,
            hubs: 4,
        },
        GeneratorSpec::HubForest {
            n: 90,
            m: 160,
            hubs: 5,
        },
    ];
    for (i, spec) in shapes.into_iter().enumerate() {
        let g = spec.generate(17 + i as u64);
        for k in [2u32, 3, 5] {
            check_all_paths(&g, k);
        }
    }
}

#[test]
fn dense_and_sparse_rows_agree_at_the_threshold_boundary() {
    let g = GeneratorSpec::PowerLaw {
        n: 120,
        m: 500,
        hubs: 4,
    }
    .generate(23);
    for k in [2u32, 3, 5] {
        // The boundary sweep: everything-sparse, everything-dense, the
        // default, and the exact max-degree boundary (the largest row flips
        // representation between D and D + 1).
        let sparse = build_with_threshold(&g, k, Some(usize::MAX));
        assert_eq!(sparse.index_graph().dense_row_count(), 0);
        let dense = build_with_threshold(&g, k, Some(1));
        let default = build_with_threshold(&g, k, None);
        let max_degree = (0..sparse.index_graph().cover_size() as u32)
            .map(|p| sparse.index_graph().out_degree_by_pos(p))
            .max()
            .unwrap_or(0);
        let at_boundary = build_with_threshold(&g, k, Some(max_degree.max(1)));
        let above_boundary = build_with_threshold(&g, k, Some(max_degree + 1));
        assert!(
            dense.index_graph().dense_row_count() > at_boundary.index_graph().dense_row_count(),
            "threshold must control the representation"
        );
        assert!(
            at_boundary.index_graph().dense_row_count()
                > above_boundary.index_graph().dense_row_count(),
            "the max-degree row must flip exactly at the boundary"
        );
        for s in g.vertices().step_by(3) {
            for t in g.vertices().step_by(2) {
                let expected = khop_reachable_bfs(&g, s, t, k);
                for (name, index) in [
                    ("sparse", &sparse),
                    ("dense", &dense),
                    ("default", &default),
                    ("boundary", &at_boundary),
                    ("above", &above_boundary),
                ] {
                    assert_eq!(
                        index.query(&g, s, t),
                        expected,
                        "{name} threshold k={k} ({s},{t})"
                    );
                    assert_eq!(
                        index.query_with_case_naive(&g, s, t).0,
                        expected,
                        "{name} naive k={k} ({s},{t})"
                    );
                }
            }
        }
    }
}

#[test]
fn hub_fanout_case4_answers_are_identical_across_paths() {
    // The shape the perf claim is made on: uncovered endpoints with large
    // covered fans, dense hub rows, and negative cross-partition pairs that
    // force full scans.
    let g = GeneratorSpec::HubForest {
        n: 400,
        m: 900,
        hubs: 8,
    }
    .generate(31);
    let index = build_with_threshold(&g, 3, Some(4));
    assert!(index.index_graph().dense_row_count() > 0);
    let mut case4 = 0;
    for s in g.vertices().step_by(2) {
        for t in g.vertices().step_by(3) {
            let (fast, case) = index.query_with_case(&g, s, t);
            let (naive, _) = index.query_with_case_naive(&g, s, t);
            assert_eq!(fast, naive, "({s},{t})");
            if case == QueryCase::NeitherInCover {
                case4 += 1;
            }
        }
    }
    assert!(case4 > 0, "workload must hit Case 4");
}

#[test]
fn grouped_queries_match_per_query_across_shapes_k_and_thresholds() {
    // The target-grouped batch kernel (shared backward candidate scratch +
    // per-row verdict memo) must answer byte-identically to one query_k call
    // per member — including the k != index-k fallback and duplicate sources.
    let shapes = [
        GeneratorSpec::ErdosRenyi { n: 70, m: 260 },
        GeneratorSpec::PowerLaw {
            n: 90,
            m: 380,
            hubs: 5,
        },
        GeneratorSpec::HubForest {
            n: 80,
            m: 150,
            hubs: 4,
        },
    ];
    for (i, spec) in shapes.into_iter().enumerate() {
        let g = spec.generate(41 + i as u64);
        for index_k in [2u32, 3] {
            for threshold in [None, Some(1), Some(usize::MAX)] {
                let index = build_with_threshold(&g, index_k, threshold);
                for query_k in [index_k, index_k + 1] {
                    for t in g.vertices().step_by(3) {
                        let mut sources: Vec<VertexId> = g.vertices().step_by(2).collect();
                        // Duplicates and the identity query ride along.
                        sources.push(t);
                        sources.push(sources[0]);
                        let mut answers = vec![false; sources.len()];
                        index.query_group_k(&g, &sources, t, query_k, &mut answers);
                        for (&answer, &s) in answers.iter().zip(&sources) {
                            assert_eq!(
                                answer,
                                index.query_k(&g, s, t, query_k),
                                "grouped/per-query divergence k={query_k} ({s},{t})"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fast_naive_equivalence_on_random_graphs(
        n in 2usize..28,
        raw_edges in proptest::collection::vec((0u32..28, 0u32..28), 0..80),
        k in 1u32..7,
        threshold_sel in 0u32..4,
    ) {
        let edges: Vec<(u32, u32)> = raw_edges
            .iter()
            .map(|&(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let g = DiGraph::from_edges(n, edges);
        let threshold = match threshold_sel {
            0 => None,
            1 => Some(1),
            2 => Some(4),
            _ => Some(usize::MAX),
        };
        let index = build_with_threshold(&g, k, threshold);
        for s in g.vertices() {
            for t in g.vertices() {
                let expected = khop_reachable_bfs(&g, s, t, k);
                prop_assert_eq!(index.query(&g, s, t), expected, "fast k={} ({},{})", k, s, t);
                prop_assert_eq!(
                    index.query_with_case_naive(&g, s, t).0,
                    expected,
                    "naive k={} ({},{})", k, s, t
                );
            }
        }
    }

}
