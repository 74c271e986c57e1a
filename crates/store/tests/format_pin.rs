//! Pins the exact bytes the `KRC3` writers produce.
//!
//! Round-trip tests compare a writer's output with itself, so they cannot
//! see a change in the bytes. These fixtures record the length and the
//! FNV-1a-64 of whole files written by the reference writer: a checkpoint
//! of a fixed maintained state, and v3 indexes of the paper's example and
//! of a graph whose cover spans several 64-source sweep passes. Any change
//! to layout, padding, section order, checksums or row contents fails here.

use kreach_core::paper_example::paper_example_graph;
use kreach_core::{BuildOptions, DynamicKReach, DynamicOptions, KReachIndex};
use kreach_graph::{DiGraph, EdgeUpdate, VertexId};
use kreach_store::checkpoint::write_checkpoint;
use kreach_store::container::fnv1a64;
use kreach_store::write_index_v3;

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

#[test]
fn checkpoint_bytes_are_pinned() {
    let mut state = DynamicKReach::new(chorded_ring(120), 3, DynamicOptions::default());
    state.apply_all(&[
        EdgeUpdate::Insert(VertexId(5), VertexId(77)),
        EdgeUpdate::Remove(VertexId(10), VertexId(11)),
        EdgeUpdate::Insert(VertexId(119), VertexId(40)),
        EdgeUpdate::Remove(VertexId(3), VertexId(24)),
    ]);
    let mut bytes = Vec::new();
    write_checkpoint(&state, 42, &mut bytes).expect("write");
    assert_eq!(fingerprint(&bytes), (10_616, 0xd284_30f2_5c47_4879));
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
