//! Differential tests for index construction (Algorithm 1, Line 5).
//!
//! Every bulk builder runs the 64-lane sweep and streams its rows into the
//! CSR. The reference here is the textbook construction: one `bfs` per cover
//! vertex, rows handed to `CoverIndexGraph::assemble_with_threshold`. The
//! two must agree bit for bit: CSR offsets and targets, packed weights, the
//! dense-row slot map and words, and the v3 container bytes. Cover sizes
//! straddle the 64-lane pass edges (1, 63, 64, 65, 129), and the threaded
//! build must equal the sequential one.

use kreach::prelude::*;
use kreach_core::hop_cover::HopVertexCover;
use kreach_core::index_graph::CoverIndexGraph;
use kreach_core::weights::WeightStore;
use kreach_graph::traversal::{bfs, Direction};
use kreach_store::write_index_v3;
use proptest::prelude::*;

/// Cover sizes around the lane-pass edges.
const COVER_SIZES: [usize; 5] = [1, 63, 64, 65, 129];

/// Per-source reference rows: `(target position, max(dist, clamp_min))`
/// for every cover vertex within `k` hops, self excluded, sorted.
fn reference_rows<G: GraphView>(
    g: &G,
    members: &[VertexId],
    k: u32,
    clamp_min: u32,
) -> Vec<Vec<(u32, u32)>> {
    let mut pos = vec![u32::MAX; g.vertex_count()];
    for (p, &v) in members.iter().enumerate() {
        pos[v.index()] = p as u32;
    }
    members
        .iter()
        .map(|&u| {
            let mut row: Vec<(u32, u32)> = bfs(g, u, Direction::Forward, Some(k))
                .reached_with_distance()
                .filter(|&(v, _)| v != u && pos[v.index()] != u32::MAX)
                .map(|(v, d)| (pos[v.index()], d.max(clamp_min)))
                .collect();
            row.sort_unstable();
            row
        })
        .collect()
}

/// The reference k-reach index over an explicit cover.
fn reference_kreach(
    g: &DiGraph,
    k: u32,
    cover: &VertexCover,
    threshold: Option<usize>,
) -> KReachIndex {
    let clamp_min = k.saturating_sub(2);
    let index = CoverIndexGraph::assemble_with_threshold(
        g.vertex_count(),
        cover.members().to_vec(),
        reference_rows(g, cover.members(), k, clamp_min),
        clamp_min,
        threshold,
    );
    KReachIndex::from_parts(k, cover.strategy(), index)
}

/// Asserts two index graphs are identical in every stored piece.
fn same_graph<W: WeightStore>(
    got: &CoverIndexGraph<W>,
    want: &CoverIndexGraph<W>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.raw_parts(),
        want.raw_parts(),
        "cover / offsets / targets"
    );
    let weights = |w: &W| (0..w.len()).map(|i| w.get(i)).collect::<Vec<u32>>();
    prop_assert_eq!(weights(got.weights()), weights(want.weights()));
    prop_assert_eq!(got.weights().clamp_min(), want.weights().clamp_min());
    let (a, b) = (got.accel_parts(), want.accel_parts());
    prop_assert_eq!(
        (a.threshold, a.classes, a.words_per_class, a.dense_rows),
        (b.threshold, b.classes, b.words_per_class, b.dense_rows)
    );
    prop_assert_eq!(a.dense_of, b.dense_of, "dense slot map");
    prop_assert_eq!(a.dense_words, b.dense_words, "dense words");
    Ok(())
}

/// Asserts two k-reach indexes are identical, down to their v3 bytes.
fn same_kreach(got: &KReachIndex, want: &KReachIndex) -> Result<(), TestCaseError> {
    same_graph(got.index_graph(), want.index_graph())?;
    prop_assert_eq!(
        got.index_graph().weights().packed_bytes(),
        want.index_graph().weights().packed_bytes()
    );
    let (mut a, mut b) = (Vec::new(), Vec::new());
    write_index_v3(got, &mut a).expect("serialize swept index");
    write_index_v3(want, &mut b).expect("serialize reference index");
    prop_assert!(a == b, "v3 container bytes differ");
    Ok(())
}

/// A random graph on 130–199 vertices (room for a 129-vertex cover) and a
/// random vertex order to draw arbitrary covers from.
fn arb_graph_and_order() -> impl Strategy<Value = (DiGraph, Vec<VertexId>)> {
    (130usize..200).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n),
            proptest::collection::vec(0u32..1 << 30, n..n + 1),
        )
            .prop_map(move |(edges, keys)| {
                let mut order: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
                order.sort_by_key(|v| (keys[v.index()], v.0));
                (DiGraph::from_edges(n, edges), order)
            })
    })
}

/// k ∈ {1, 2, 3, 5, n}: index 4 is the classic-reachability bound.
fn pick_k(g: &DiGraph, i: usize) -> u32 {
    [1, 2, 3, 5, g.vertex_count() as u32][i]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn kreach_sweep_is_bit_identical_to_per_source_bfs(
        case in arb_graph_and_order(),
        size_i in 0usize..5,
        k_i in 0usize..5,
        threads in 1usize..3,
        threshold_i in 0usize..3,
    ) {
        let (g, order) = case;
        let k = pick_k(&g, k_i);
        let threshold = [None, Some(4), Some(usize::MAX)][threshold_i];
        let options = BuildOptions {
            threads,
            dense_row_threshold: threshold,
            ..BuildOptions::default()
        };
        let cover = VertexCover::from_members(
            g.vertex_count(),
            order[..COVER_SIZES[size_i]].iter().copied(),
        );
        let built = KReachIndex::build_with_cover(&g, k, &cover, options);
        same_kreach(&built, &reference_kreach(&g, k, &cover, threshold))?;

        // The builders that compute their own cover agree too.
        let computed = VertexCover::compute(&g, options.cover_strategy);
        let want = reference_kreach(&g, k, &computed, threshold);
        let built = if k_i == 4 {
            KReachIndex::for_classic_reachability(&g, options)
        } else {
            KReachIndex::build(&g, k, options)
        };
        same_kreach(&built, &want)?;
    }

    #[test]
    fn hkreach_sweep_is_bit_identical_to_per_source_bfs(
        case in arb_graph_and_order(),
        size_i in 0usize..5,
        h in 1u32..3,
        extra in 1u32..5,
    ) {
        let (g, order) = case;
        let k = 2 * h + extra;
        let cover = HopVertexCover::from_members(
            g.vertex_count(),
            h,
            order[..COVER_SIZES[size_i]].iter().copied(),
        );
        let built = HkReachIndex::build_with_cover(&g, k, &cover);
        let clamp_min = k - 2 * h;
        let want = CoverIndexGraph::assemble(
            g.vertex_count(),
            cover.members().to_vec(),
            reference_rows(&g, cover.members(), k, clamp_min),
            clamp_min,
        );
        same_graph(built.index_graph(), &want)?;
    }

    #[test]
    fn dynamic_initial_rows_match_per_source_bfs(
        case in arb_graph_and_order(),
        k_i in 0usize..5,
    ) {
        let (g, _) = case;
        let k = pick_k(&g, k_i);
        let dynk = DynamicKReach::new(g.clone(), k, DynamicOptions::default());
        let view = VersionedAdjGraph::from_csr(&g);
        let cover = VertexCover::compute(&view, DynamicOptions::default().build.cover_strategy);
        same_kreach(dynk.index(), &reference_kreach(&g, k, &cover, None))?;
    }
}

/// A caterpillar — spine `0 → 1 → … → m−1` plus one pendant leaf per spine
/// vertex — has a pruned cover of exactly its `m` spine vertices, so the
/// dynamic maintainer's own cover lands on both sides of the pass edges
/// (64/66 and 128/130).
#[test]
fn dynamic_initial_rows_match_across_pass_edges() {
    for m in [64u32, 66, 128, 130] {
        let n = 2 * m;
        let spine = (0..m - 1).map(|i| (i, i + 1));
        let leaves = (0..m).map(|i| (i, m + i));
        let g = DiGraph::from_edges(n as usize, spine.chain(leaves));
        for k in [1, 2, 3, 5, n] {
            let dynk = DynamicKReach::new(g.clone(), k, DynamicOptions::default());
            let view = VersionedAdjGraph::from_csr(&g);
            let cover = VertexCover::compute(&view, DynamicOptions::default().build.cover_strategy);
            assert_eq!(cover.len(), m as usize);
            same_kreach(dynk.index(), &reference_kreach(&g, k, &cover, None))
                .unwrap_or_else(|e| panic!("m={m} k={k}: {e}"));
        }
    }
}
