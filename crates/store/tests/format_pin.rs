//! Pins the exact bytes the `KRC3` writers produce.
//!
//! Round-trip tests compare a writer's output with itself, so they cannot
//! see a change in the bytes. These fixtures record the length and the
//! FNV-1a-64 of whole files written by the reference writer: a checkpoint
//! of a fixed maintained state, and v3 indexes of the paper's example and
//! of a graph whose cover spans several 64-source sweep passes. Any change
//! to layout, padding, section order, checksums or row contents fails here.
//! A checkpoint of the older layout, rendered here byte for byte as its
//! writer did, must still restore.

use kreach_core::paper_example::paper_example_graph;
use kreach_core::{BuildOptions, DynamicKReach, DynamicOptions, KReachIndex};
use kreach_graph::traversal::khop_reachable_bfs;
use kreach_graph::{DiGraph, EdgeUpdate, GraphView, VertexId};
use kreach_store::checkpoint::{read_checkpoint, write_checkpoint};
use kreach_store::container::fnv1a64;
use kreach_store::{write_index_v3, ContainerWriter, FileKind};

/// A ring with two chord families on `n` vertices.
fn chorded_ring(n: u32) -> DiGraph {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n));
        edges.push((i, (i * 7 + 3) % n));
        if i % 5 == 0 {
            edges.push(((i * 11 + 1) % n, i));
        }
    }
    DiGraph::from_edges(n as usize, edges)
}

/// `(length, fnv1a64)` of a whole file.
fn fingerprint(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

/// A maintained index over the 120-vertex ring, patched by a few updates.
fn maintained_state() -> DynamicKReach {
    let mut state = DynamicKReach::new(chorded_ring(120), 3, DynamicOptions::default());
    state.apply_all(&[
        EdgeUpdate::Insert(VertexId(5), VertexId(77)),
        EdgeUpdate::Remove(VertexId(10), VertexId(11)),
        EdgeUpdate::Insert(VertexId(119), VertexId(40)),
        EdgeUpdate::Remove(VertexId(3), VertexId(24)),
    ]);
    state
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let mut bytes = Vec::new();
    write_checkpoint(&maintained_state(), 42, &mut bytes).expect("write");
    assert_eq!(fingerprint(&bytes), (7_352, 0x5e76_6f26_aed9_a26c));
}

/// Cover members and per-position rows `(target, weight)`.
type Rows = (Vec<VertexId>, Vec<Vec<(u32, u32)>>);

fn rows(state: &DynamicKReach) -> Rows {
    let index = state.index().index_graph();
    let members = index.cover_vertices().to_vec();
    let rows = (0..members.len() as u32)
        .map(|p| index.out_edges_by_pos(p).collect())
        .collect();
    (members, rows)
}

/// `state` at `epoch` in the older checkpoint layout, which carried the
/// index as rows of `u32` distances: meta (section 1), graph edges (8),
/// cover members (9), `u64` row offsets (10), row targets (11) and the
/// clamped weights as distances (12).
fn legacy_checkpoint(state: &DynamicKReach, epoch: u64) -> Vec<u8> {
    let graph = state.graph();
    let (members, rows) = rows(state);
    let total: usize = rows.iter().map(Vec::len).sum();
    let meta = [
        epoch,
        state.k() as u64,
        graph.vertex_count() as u64,
        graph.edge_count() as u64,
        members.len() as u64,
        total as u64,
    ];
    let ends = rows.iter().scan(0u64, |end, row| {
        *end += row.len() as u64;
        Some(*end)
    });
    let mut c = ContainerWriter::new(FileKind::Checkpoint, 6, 0);
    c.put_u64s(1, &meta);
    c.put_u32_iter(8, graph.edges().flat_map(|(u, v)| [u.0, v.0]));
    c.put_u32_iter(9, members.iter().map(|v| v.0));
    c.put_u64_iter(10, std::iter::once(0).chain(ends));
    c.put_u32_iter(11, rows.iter().flatten().map(|&(t, _)| t));
    c.put_u32_iter(12, rows.iter().flatten().map(|&(_, w)| w));
    c.finish()
}

#[test]
fn legacy_checkpoints_still_restore() {
    let state = maintained_state();
    let bytes = legacy_checkpoint(&state, 42);
    // The pin of the older layout's writer: the helper reproduces its bytes.
    assert_eq!(fingerprint(&bytes), (10_616, 0xd284_30f2_5c47_4879));

    let restored = read_checkpoint(bytes.as_slice(), DynamicOptions::default()).expect("restore");
    assert_eq!(restored.epoch, 42);
    assert_eq!(rows(&restored.state), rows(&state));
    let g = state.snapshot_csr();
    for s in g.vertices() {
        for t in g.vertices() {
            let want = khop_reachable_bfs(&g, s, t, 3);
            assert_eq!(state.query(s, t), want, "({s},{t})");
            assert_eq!(restored.state.query(s, t), want, "({s},{t})");
        }
    }
}

#[test]
fn paper_example_v3_bytes_are_pinned() {
    // A low dense threshold puts the dense-row sections in the file too.
    let options = BuildOptions {
        dense_row_threshold: Some(2),
        ..BuildOptions::default()
    };
    let index = KReachIndex::build(&paper_example_graph(), 3, options);
    let mut bytes = Vec::new();
    write_index_v3(&index, &mut bytes).expect("write");
    assert_eq!(fingerprint(&bytes), (440, 0x5699_f9e1_c761_3039));
}

#[test]
fn multi_pass_v3_bytes_are_pinned() {
    let index = KReachIndex::build(&chorded_ring(400), 4, BuildOptions::default());
    assert!(index.cover_size() > 128, "the cover spans several passes");
    let mut bytes = Vec::new();
    write_index_v3(&index, &mut bytes).expect("write");
    assert_eq!(fingerprint(&bytes), (32_728, 0xd83e_ffaa_2309_0796));
}
