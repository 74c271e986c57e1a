//! Cross-crate integration tests: dataset stand-ins flow into the core index
//! and the baselines, and everybody agrees on the answers.

use kreach::prelude::*;
use kreach_graph::metrics::{graph_stats, StatsConfig};
use kreach_graph::traversal::{khop_reachable_bfs, reachable_bfs};

/// Builds a small version of a named dataset for fast tests.
fn dataset(name: &str, scale: usize, seed: u64) -> DiGraph {
    spec_by_name(name)
        .expect("known dataset")
        .scaled(scale)
        .generate(seed)
}

#[test]
fn kreach_matches_bfs_on_every_dataset_family() {
    for (name, k) in [("AgroCyc", 3u32), ("CiteSeer", 4), ("Xmark", 6)] {
        let g = dataset(name, 40, 11);
        let index = KReachIndex::build(&g, k, BuildOptions::default());
        let workload = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 3_000,
                seed: 5,
            },
        );
        for &(s, t) in workload.pairs() {
            assert_eq!(
                index.query(&g, s, t),
                khop_reachable_bfs(&g, s, t, k),
                "{name}: mismatch on ({s},{t}) at k={k}"
            );
        }
    }
}

#[test]
fn hkreach_matches_kreach_on_datasets() {
    for name in ["Kegg", "GO"] {
        let g = dataset(name, 40, 13);
        let k = 6u32;
        let kreach = KReachIndex::build(&g, k, BuildOptions::default());
        let hkreach = HkReachIndex::build(&g, 2, k);
        let workload = QueryWorkload::uniform(
            &g,
            WorkloadConfig {
                queries: 2_000,
                seed: 3,
            },
        );
        for &(s, t) in workload.pairs() {
            assert_eq!(
                kreach.query(&g, s, t),
                hkreach.query(&g, s, t),
                "{name}: k-reach and (2,{k})-reach disagree on ({s},{t})"
            );
        }
    }
}

#[test]
fn all_classic_reachability_indexes_agree() {
    let g = dataset("aMaze", 40, 17);
    let nreach = KReachIndex::for_classic_reachability(&g, BuildOptions::default());
    let grail = Grail::build(&g);
    let tc = IntervalTransitiveClosure::build(&g);
    let tree = TreeCover::build(&g);
    let dist = DistanceIndex::build(&g);
    let workload = QueryWorkload::uniform(
        &g,
        WorkloadConfig {
            queries: 2_000,
            seed: 23,
        },
    );
    for &(s, t) in workload.pairs() {
        let expected = reachable_bfs(&g, s, t);
        assert_eq!(nreach.query(&g, s, t), expected, "n-reach ({s},{t})");
        assert_eq!(grail.reachable(s, t), expected, "grail ({s},{t})");
        assert_eq!(tc.reachable(s, t), expected, "interval-tc ({s},{t})");
        assert_eq!(tree.reachable(s, t), expected, "tree-cover ({s},{t})");
        assert_eq!(dist.reachable(s, t), expected, "distance ({s},{t})");
    }
}

#[test]
fn distance_index_answers_khop_like_kreach() {
    let g = dataset("Nasa", 20, 29);
    let k = 5u32;
    let kreach = KReachIndex::build(&g, k, BuildOptions::default());
    let dist = DistanceIndex::build(&g);
    let workload = QueryWorkload::uniform(
        &g,
        WorkloadConfig {
            queries: 2_000,
            seed: 31,
        },
    );
    for &(s, t) in workload.pairs() {
        assert_eq!(
            kreach.query(&g, s, t),
            dist.khop_reachable(s, t, k),
            "({s},{t})"
        );
    }
}

#[test]
fn vertex_cover_is_a_small_fraction_on_real_shaped_graphs() {
    // The premise of the whole index (Section 4.1): vertex covers of
    // real-world-shaped graphs are small relative to |V|.
    for name in ["AgroCyc", "Human", "Kegg"] {
        let g = dataset(name, 20, 37);
        let cover = VertexCover::compute(&g, CoverStrategy::DegreePriority);
        assert!(cover.covers_all_edges(&g));
        assert!(
            cover.coverage_ratio(&g) < 0.45,
            "{name}: cover fraction {:.2} unexpectedly large",
            cover.coverage_ratio(&g)
        );
    }
}

#[test]
fn case_four_dominates_random_workloads_on_metabolic_graphs() {
    // Table 8's headline observation: for the metabolic graphs the vast
    // majority of random queries have neither endpoint in the cover.
    let g = dataset("AgroCyc", 20, 41);
    let index = KReachIndex::build(&g, 3, BuildOptions::default());
    let workload = QueryWorkload::uniform(
        &g,
        WorkloadConfig {
            queries: 20_000,
            seed: 43,
        },
    );
    let counts = workload.case_distribution(|s, t| index.classify(s, t).number());
    let case4 = counts[3] as f64 / workload.len() as f64;
    assert!(
        case4 > 0.5,
        "expected case 4 to dominate, got distribution {counts:?}"
    );
}

#[test]
fn dataset_statistics_land_in_the_published_regime() {
    // Distance profile of the stand-ins must be in the same regime as
    // Table 2: small µ, diameter within a factor of ~2.5 of the published d.
    for name in ["AgroCyc", "CiteSeer", "GO"] {
        let spec = spec_by_name(name).unwrap().scaled(8);
        let g = spec.generate(47);
        let stats = graph_stats(&g, StatsConfig::default());
        assert!(
            stats.median_shortest_path <= spec.median_shortest_path + 3,
            "{name}: µ = {} too far from paper value {}",
            stats.median_shortest_path,
            spec.median_shortest_path
        );
        assert!(
            stats.diameter as f64 <= 2.5 * spec.diameter as f64 + 4.0,
            "{name}: diameter {} too far above paper value {}",
            stats.diameter,
            spec.diameter
        );
    }
}

#[test]
fn serialized_index_answers_dataset_queries() {
    let g = dataset("Vchocyc", 40, 53);
    let index = KReachIndex::build(&g, 4, BuildOptions::default());
    let mut buf = Vec::new();
    kreach::store::write_index_v3(&index, &mut buf).expect("serialize");
    let restored = kreach::store::read_index_v3(buf.as_slice()).expect("deserialize");
    let workload = QueryWorkload::uniform(
        &g,
        WorkloadConfig {
            queries: 2_000,
            seed: 59,
        },
    );
    for &(s, t) in workload.pairs() {
        assert_eq!(index.query(&g, s, t), restored.query(&g, s, t));
    }
}

#[test]
fn multi_k_family_is_consistent_with_dedicated_indexes_on_datasets() {
    let g = dataset("GO", 40, 61);
    let family = ExactMultiKReach::build(&g, 6, BuildOptions::default());
    let workload = QueryWorkload::uniform(
        &g,
        WorkloadConfig {
            queries: 1_000,
            seed: 67,
        },
    );
    for k in 1..=6u32 {
        let dedicated = KReachIndex::build(&g, k, BuildOptions::default());
        for &(s, t) in workload.pairs() {
            assert_eq!(
                family.query(&g, s, t, k),
                dedicated.query(&g, s, t),
                "k={k} ({s},{t})"
            );
        }
    }
}
