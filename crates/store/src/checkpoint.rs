//! Checkpoint files: a `KRC3` container holding the dynamic maintainer's
//! graph and index plus the engine epoch it corresponds to.
//!
//! A checkpoint serializes [`DynamicKReach`]'s state: the maintained
//! [`KReachIndex`] as the sections of an index file, written and read by
//! [`crate::index_v3`], beside the adjacency graph's edge list. The index
//! holds the clamped weights `max(dist, k − 2)`: incremental repair only
//! ever writes rows (each from a fresh BFS), never reads a stored distance,
//! so the index alone restores a maintainer that answers and keeps
//! repairing exactly like the original. Restore installs the persisted
//! dense-row threshold and bitsets rather than re-deriving them.
//!
//! Section ids (kind = checkpoint):
//!
//! | id  | elems | contents |
//! |-----|-------|----------|
//! | 1–7 |       | the maintained index, exactly as in an index file |
//! | 8   | u32   | graph edges, flattened `(u, v)` pairs in CSR order |
//! | 13  | u64×3 | checkpoint meta: epoch, n, m |
//!
//! Checkpoints of the older layout, which carried the index as rows of
//! `u32` distances, still load: a file without section 13 is read by
//! a load-only decoder, which clamps each distance up to
//! `k − 2` (true distances from still older files included). Its sections:
//!
//! | id | elems | contents |
//! |----|-------|----------|
//! | 1  | u64×6 | meta: epoch, k, n, m, cover size, total row entries |
//! | 8  | u32   | graph edges, as above |
//! | 9  | u32   | cover member vertex ids, in position order |
//! | 10 | u64   | row offsets (`cover size + 1`) into targets/distances |
//! | 11 | u32   | row targets (cover positions) |
//! | 12 | u32   | row distances (`<= k`), clamped up to `k − 2` on load |

use crate::container::{ContainerReader, ContainerWriter, FileKind};
use crate::index_v3::{
    checked_u32, checked_usize, index_sections_len, put_index_sections, read_index_sections,
    INDEX_SECTIONS,
};
use crate::StorageError;
use kreach_core::dynamic::{DynamicKReach, DynamicOptions};
use kreach_core::index_graph::CoverIndexGraph;
use kreach_core::weights::{PackedWeights, WeightStore};
use kreach_core::KReachIndex;
use kreach_graph::{DiGraph, GraphView, VertexId};
use std::io::{self, Read, Write};
use std::path::Path;

const SEC_GRAPH_EDGES: u32 = 8;
const SEC_CHECKPOINT_META: u32 = 13;
// The older layout's own sections, read by `legacy_checkpoint` only.
const SEC_META: u32 = 1;
const SEC_MEMBERS: u32 = 9;
const SEC_ROW_OFFSETS: u32 = 10;
const SEC_ROW_TARGETS: u32 = 11;
const SEC_ROW_DISTS: u32 = 12;

/// Renders the maintainer state and its epoch as a checkpoint container
/// image. Every section streams from the live state (the graph's sorted
/// adjacency, the index rows) into the one output buffer, so rendering
/// holds the file's bytes and nothing else.
fn render_checkpoint(state: &DynamicKReach, epoch: u64) -> Vec<u8> {
    let graph = state.graph();
    let meta = [
        epoch,
        graph.vertex_count() as u64,
        graph.edge_count() as u64,
    ];
    let payload = index_sections_len(state.index()) + 8 * graph.edge_count() + 8 * meta.len();
    let mut c = ContainerWriter::new(FileKind::Checkpoint, INDEX_SECTIONS + 2, payload);
    put_index_sections(&mut c, state.index());
    c.put_u32_iter(SEC_GRAPH_EDGES, graph.edges().flat_map(|(u, v)| [u.0, v.0]));
    c.put_u64s(SEC_CHECKPOINT_META, &meta);
    c.finish()
}

/// Serializes the maintainer state and its epoch as a checkpoint container.
pub fn write_checkpoint<W: Write>(
    state: &DynamicKReach,
    epoch: u64,
    mut w: W,
) -> Result<(), StorageError> {
    w.write_all(&render_checkpoint(state, epoch))?;
    Ok(())
}

/// Size and stage timings of one saved checkpoint, returned by
/// [`save_checkpoint`] for the durability instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointWrite {
    /// Bytes of the written container file.
    pub bytes: u64,
    /// Nanoseconds serializing and flushing the container.
    pub write_nanos: u64,
    /// Nanoseconds in the `fsync` that makes it durable.
    pub sync_nanos: u64,
}

/// Saves a checkpoint with fsync-before-return durability.
pub fn save_checkpoint(
    state: &DynamicKReach,
    epoch: u64,
    path: impl AsRef<Path>,
) -> Result<CheckpointWrite, StorageError> {
    save_checkpoint_io(&crate::io::RealIo, state, epoch, path.as_ref())
}

/// [`save_checkpoint`], routed through an io seam (sites
/// `checkpoint.create`, `checkpoint.write`, `checkpoint.fsync`). The
/// container is rendered once, streamed from the live state straight into
/// the buffer that one `write_all` hands to the file, so the save's peak
/// heap is the file's length, and an injected write fault tears the file
/// at a byte boundary the loader must reject — exactly what a real ENOSPC
/// mid-checkpoint leaves behind.
pub fn save_checkpoint_io(
    io_seam: &dyn crate::io::StorageIo,
    state: &DynamicKReach,
    epoch: u64,
    path: &Path,
) -> Result<CheckpointWrite, StorageError> {
    let write_start = std::time::Instant::now();
    let bytes = render_checkpoint(state, epoch);
    let mut file = io_seam.create("checkpoint.create", path)?;
    io_seam.write_all("checkpoint.write", &mut file, &bytes)?;
    let write_nanos = write_start.elapsed().as_nanos() as u64;
    let sync_start = std::time::Instant::now();
    io_seam.fsync("checkpoint.fsync", &file)?;
    Ok(CheckpointWrite {
        bytes: bytes.len() as u64,
        write_nanos,
        sync_nanos: sync_start.elapsed().as_nanos() as u64,
    })
}

/// A checkpoint restored into memory.
pub struct RestoredCheckpoint {
    /// The maintainer: the checkpointed graph and index.
    pub state: DynamicKReach,
    /// Engine epoch the snapshot is at least as new as.
    pub epoch: u64,
}

/// Reconstructs maintainer state from a parsed checkpoint container,
/// re-validating counts against the meta section, the index sections
/// through [`crate::index_v3`]'s checked reader, and the index's cover
/// against the graph through [`DynamicKReach::from_index`].
pub fn checkpoint_from_container(
    c: &ContainerReader,
    options: DynamicOptions,
) -> Result<RestoredCheckpoint, StorageError> {
    if c.kind() != FileKind::Checkpoint {
        return Err(StorageError::Format(
            "KRC3 file is not a checkpoint (kind mismatch)".into(),
        ));
    }
    if !c.has(SEC_CHECKPOINT_META) {
        return legacy_checkpoint(c, options);
    }
    let meta = c.u64s(SEC_CHECKPOINT_META)?;
    let [epoch, n, m] = meta[..] else {
        return Err(StorageError::Format(format!(
            "checkpoint meta section has {} fields (expected 3)",
            meta.len()
        )));
    };
    let graph = read_graph(
        c,
        checked_usize(n, "vertex count")?,
        checked_usize(m, "edge count")?,
    )?;
    let index = read_index_sections(c)?;
    let state = DynamicKReach::from_index(graph, index, options).map_err(StorageError::Format)?;
    Ok(RestoredCheckpoint { state, epoch })
}

/// Decodes the graph's edge section, checked against `n` vertices and `m`
/// distinct edges.
fn read_graph(c: &ContainerReader, n: usize, m: usize) -> Result<DiGraph, StorageError> {
    let edge_pairs = c.u32s(SEC_GRAPH_EDGES)?;
    if m.checked_mul(2) != Some(edge_pairs.len()) {
        return Err(StorageError::Format(format!(
            "edge section has {} values for {m} edges",
            edge_pairs.len()
        )));
    }
    let edges: Vec<(u32, u32)> = edge_pairs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    for &(u, v) in &edges {
        if u as usize >= n || v as usize >= n {
            return Err(StorageError::Format(format!(
                "edge ({u}, {v}) out of range for {n} vertices"
            )));
        }
    }
    let graph = DiGraph::from_edges(n, edges);
    if graph.edge_count() != m {
        return Err(StorageError::Format(format!(
            "edge list deduplicated to {} edges (meta claims {m})",
            graph.edge_count()
        )));
    }
    Ok(graph)
}

/// Load-only decoder of the older checkpoint layout (sections 1 and 8–12,
/// see the module docs): rows of `u32` distances, each clamped up to
/// `k − 2`, reassembled through the checked
/// [`CoverIndexGraph::try_from_raw_parts`], which derives the dense rows
/// at the options' threshold.
fn legacy_checkpoint(
    c: &ContainerReader,
    options: DynamicOptions,
) -> Result<RestoredCheckpoint, StorageError> {
    let meta = c.u64s(SEC_META)?;
    if meta.len() != 6 {
        return Err(StorageError::Format(format!(
            "checkpoint meta section has {} fields (expected 6)",
            meta.len()
        )));
    }
    let epoch = meta[0];
    let k = checked_u32(meta[1], "k")?;
    let n = checked_usize(meta[2], "vertex count")?;
    let m = checked_usize(meta[3], "edge count")?;
    let cover_len = checked_usize(meta[4], "cover size")?;
    let total = checked_usize(meta[5], "row entry count")?;
    let graph = read_graph(c, n, m)?;

    let members: Vec<VertexId> = c.u32s(SEC_MEMBERS)?.into_iter().map(VertexId).collect();
    if members.len() != cover_len {
        return Err(StorageError::Format(format!(
            "member section has {} entries (meta claims {cover_len})",
            members.len()
        )));
    }
    let row_offsets = c.u64s(SEC_ROW_OFFSETS)?;
    let row_targets = c.u32s(SEC_ROW_TARGETS)?;
    let row_dists = c.u32s(SEC_ROW_DISTS)?;
    if row_targets.len() != total || row_dists.len() != total {
        return Err(StorageError::Format(format!(
            "row sections have {}/{} entries (meta claims {total})",
            row_targets.len(),
            row_dists.len()
        )));
    }
    let offsets = row_offsets
        .iter()
        .map(|&o| u32::try_from(o))
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| StorageError::Format("row offset overflows u32".into()))?;
    let clamp_min = k.saturating_sub(2);
    let mut weights = PackedWeights::with_clamp(clamp_min);
    for &d in &row_dists {
        if d > k {
            return Err(StorageError::Format(format!(
                "row distance {d} past the bound {k}"
            )));
        }
        weights.push(d.max(clamp_min));
    }
    let index = CoverIndexGraph::try_from_raw_parts(
        n,
        members,
        offsets,
        row_targets,
        weights,
        options.build.dense_row_threshold,
    )
    .map_err(StorageError::Format)?;
    let index = KReachIndex::from_parts(k, options.build.cover_strategy, index);
    let state = DynamicKReach::from_index(graph, index, options).map_err(StorageError::Format)?;
    Ok(RestoredCheckpoint { state, epoch })
}

/// Reads a checkpoint from a reader.
pub fn read_checkpoint<R: Read>(
    r: R,
    options: DynamicOptions,
) -> Result<RestoredCheckpoint, StorageError> {
    checkpoint_from_container(&ContainerReader::read_from(r)?, options)
}

/// Loads a checkpoint file.
pub fn load_checkpoint(
    path: impl AsRef<Path>,
    options: DynamicOptions,
) -> Result<RestoredCheckpoint, StorageError> {
    let file = std::fs::File::open(path)?;
    read_checkpoint(io::BufReader::new(file), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_core::dynamic::DynamicOptions;
    use kreach_graph::EdgeUpdate;

    fn sample_state() -> DynamicKReach {
        sample_state_at(3)
    }

    fn sample_state_at(k: u32) -> DynamicKReach {
        let mut edges = Vec::new();
        for i in 0..30u32 {
            edges.push((i, (i + 1) % 31));
            edges.push((i, (i + 5) % 31));
        }
        let g = DiGraph::from_edges(32, edges);
        let mut state = DynamicKReach::new(g, k, DynamicOptions::default());
        // A few incremental updates so the rows differ from a fresh build.
        state.apply_all(&[
            EdgeUpdate::Insert(VertexId(31), VertexId(4)),
            EdgeUpdate::Remove(VertexId(2), VertexId(3)),
            EdgeUpdate::Insert(VertexId(9), VertexId(31)),
        ]);
        state
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

    fn all_answers(state: &DynamicKReach) -> Vec<bool> {
        let g = state.snapshot_csr();
        let index = state.index();
        let mut out = Vec::new();
        for s in 0..32u32 {
            for t in 0..32u32 {
                out.push(index.query(&g, VertexId(s), VertexId(t)));
            }
        }
        out
    }

    #[test]
    fn checkpoint_round_trip_restores_exact_state() {
        let state = sample_state();
        let mut bytes = Vec::new();
        write_checkpoint(&state, 42, &mut bytes).expect("write");
        let restored = read_checkpoint(bytes.as_slice(), DynamicOptions::default()).expect("read");
        assert_eq!(restored.epoch, 42);
        assert_eq!(rows(&state), rows(&restored.state));
        assert_eq!(all_answers(&state), all_answers(&restored.state));
    }

    #[test]
    fn restored_state_keeps_accepting_updates() {
        let state = sample_state();
        let mut bytes = Vec::new();
        write_checkpoint(&state, 1, &mut bytes).expect("write");
        let mut restored = read_checkpoint(bytes.as_slice(), DynamicOptions::default())
            .expect("read")
            .state;
        let mut original = state;
        let more = [
            EdgeUpdate::Insert(VertexId(0), VertexId(30)),
            EdgeUpdate::Remove(VertexId(31), VertexId(4)),
        ];
        original.apply_all(&more);
        restored.apply_all(&more);
        assert_eq!(all_answers(&original), all_answers(&restored));
    }

    #[test]
    fn truncated_checkpoints_always_error() {
        let state = sample_state();
        let mut bytes = Vec::new();
        write_checkpoint(&state, 1, &mut bytes).expect("write");
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                read_checkpoint(bytes[..cut].to_vec().as_slice(), DynamicOptions::default())
                    .is_err(),
                "cut at {cut} parsed"
            );
        }
    }

    /// A checkpoint as written when section 12 held true distances: the
    /// maintainer's rows with unclamped BFS distances, distances in
    /// `bump` raised by one.
    fn true_distance_checkpoint(state: &DynamicKReach, bump: Option<usize>) -> Vec<u8> {
        let g = state.snapshot_csr();
        let (members, _) = rows(state);
        let mut pos = vec![u32::MAX; g.vertex_count()];
        for (p, &v) in members.iter().enumerate() {
            pos[v.index()] = p as u32;
        }
        let (mut offsets, mut targets, mut dists) = (vec![0u64], Vec::new(), Vec::new());
        for &u in &members {
            let mut row: Vec<(u32, u32)> = kreach_graph::traversal::bfs(
                &g,
                u,
                kreach_graph::traversal::Direction::Forward,
                Some(state.k()),
            )
            .reached_with_distance()
            .filter(|&(v, _)| v != u && pos[v.index()] != u32::MAX)
            .map(|(v, d)| (pos[v.index()], d))
            .collect();
            row.sort_unstable();
            targets.extend(row.iter().map(|&(t, _)| t));
            dists.extend(row.iter().map(|&(_, d)| d));
            offsets.push(targets.len() as u64);
        }
        if let Some(i) = bump {
            dists[i] += 1;
        }
        let edges: Vec<u32> = g.edges().flat_map(|(u, v)| [u.0, v.0]).collect();
        let meta = [
            7,
            state.k() as u64,
            g.vertex_count() as u64,
            g.edge_count() as u64,
            members.len() as u64,
            targets.len() as u64,
        ];
        let mut c = ContainerWriter::new(FileKind::Checkpoint, 6, 0);
        c.put_u64s(SEC_META, &meta);
        c.put_u32s(SEC_GRAPH_EDGES, &edges);
        c.put_u32s(
            SEC_MEMBERS,
            &members.iter().map(|v| v.0).collect::<Vec<_>>(),
        );
        c.put_u64s(SEC_ROW_OFFSETS, &offsets);
        c.put_u32s(SEC_ROW_TARGETS, &targets);
        c.put_u32s(SEC_ROW_DISTS, &dists);
        c.finish()
    }

    #[test]
    fn true_distance_checkpoints_load_clamped() {
        use kreach_graph::traversal::khop_reachable_bfs;
        // k = 5: distances 1 and 2 lie below the clamp k − 2.
        let state = sample_state_at(5);
        let bytes = true_distance_checkpoint(&state, None);
        let container = ContainerReader::read_from(bytes.as_slice()).expect("container");
        let k = state.k();
        assert!(
            container
                .u32s(SEC_ROW_DISTS)
                .expect("dists")
                .iter()
                .any(|&d| d < k - 2),
            "the fixture must hold distances below k - 2"
        );
        let restored = read_checkpoint(bytes.as_slice(), DynamicOptions::default())
            .expect("a true-distance checkpoint restores")
            .state;
        let g = restored.snapshot_csr();
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    restored.query(s, t),
                    khop_reachable_bfs(&g, s, t, k),
                    "({s},{t})"
                );
            }
        }
        assert_eq!(rows(&restored), rows(&state));
        // Re-checkpointing writes the current layout: the clamped rows as
        // index sections, which reload unchanged.
        let mut again = Vec::new();
        write_checkpoint(&restored, 7, &mut again).expect("write");
        let rewritten = ContainerReader::read_from(again.as_slice()).expect("container");
        assert!(!rewritten.has(SEC_ROW_DISTS));
        let reloaded = read_checkpoint(again.as_slice(), DynamicOptions::default()).expect("read");
        assert_eq!(rows(&reloaded.state), rows(&state));

        // A distance past k would overflow the 2-bit weights: a load error.
        let k_at = container
            .u32s(SEC_ROW_DISTS)
            .expect("dists")
            .iter()
            .position(|&d| d == k)
            .expect("some row entry sits at distance k");
        let bad = true_distance_checkpoint(&state, Some(k_at));
        assert!(matches!(
            read_checkpoint(bad.as_slice(), DynamicOptions::default()),
            Err(StorageError::Format(_))
        ));
    }

    /// Checkpoint write → read after every batch of random updates, at
    /// dense thresholds that make every row dense, the default, and none:
    /// the restored index has the same rows and dense bitsets (installed
    /// from the file, so restoring under default options keeps a forced
    /// threshold) and answers exactly as BFS. Patched rows sit in gapped
    /// spans until a compaction, so this covers the streamed writer on
    /// uncompacted indexes.
    #[test]
    fn checkpoint_round_trip_is_exact_on_patched_indexes() {
        use kreach_graph::traversal::khop_reachable_bfs;
        use proptest::collection::vec;
        use proptest::prelude::*;

        let case = (
            (8u32..32, vec((0u32..32, 0u32..32), 0..64)),
            (
                vec(vec((0u32..3, (0u32..64, 0u32..64)), 1..8), 1..8),
                (1u32..5, 0usize..3),
            ),
        );
        let config = ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        };
        let mut rng = proptest::rng_for("checkpoint::patched_round_trip", &config);
        let mut gapped = 0;
        for _ in 0..config.cases {
            let ((n, edges), (batches, (k, threshold_i))) = case.generate(&mut rng);
            let g = DiGraph::from_edges(n as usize, edges.iter().map(|&(u, v)| (u % n, v % n)));
            let mut options = DynamicOptions::default();
            options.build.dense_row_threshold = [Some(1), None, Some(usize::MAX)][threshold_i];
            let mut state = DynamicKReach::new(g, k, options);
            for batch in &batches {
                let n = state.graph().vertex_count() as u32;
                let edges: Vec<(VertexId, VertexId)> = state.graph().edges().collect();
                let updates: Vec<EdgeUpdate> = batch
                    .iter()
                    .map(|&(kind, (a, b))| match kind {
                        1 if !edges.is_empty() => {
                            let (u, v) = edges[a as usize % edges.len()];
                            EdgeUpdate::Remove(u, v)
                        }
                        2 => EdgeUpdate::Insert(VertexId(a % n), VertexId(n + b % 4)),
                        _ => EdgeUpdate::Insert(VertexId(a % n), VertexId(b % n)),
                    })
                    .collect();
                state.apply_all(&updates);
                gapped += usize::from(!state.index().index_graph().is_compact());

                let mut bytes = Vec::new();
                write_checkpoint(&state, 1, &mut bytes).expect("write");
                let restored = read_checkpoint(bytes.as_slice(), DynamicOptions::default())
                    .expect("read")
                    .state;
                assert_eq!(rows(&restored), rows(&state));
                let (a, b) = (
                    state.index().index_graph().accel_parts(),
                    restored.index().index_graph().accel_parts(),
                );
                assert_eq!(
                    (a.threshold, a.classes, a.dense_of, a.dense_words),
                    (b.threshold, b.classes, b.dense_of, b.dense_words)
                );
                let g = restored.snapshot_csr();
                for s in g.vertices() {
                    for t in g.vertices() {
                        assert_eq!(
                            restored.query(s, t),
                            khop_reachable_bfs(&g, s, t, k),
                            "k={k} ({s},{t})"
                        );
                    }
                }
            }
        }
        assert!(gapped > 0, "no checkpoint was written from a gapped index");
    }

    #[test]
    fn index_container_is_rejected_as_checkpoint() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2)]);
        let index = kreach_core::KReachIndex::build(&g, 2, kreach_core::BuildOptions::default());
        let mut bytes = Vec::new();
        crate::index_v3::write_index_v3(&index, &mut bytes).expect("write");
        assert!(matches!(
            read_checkpoint(bytes.as_slice(), DynamicOptions::default()),
            Err(StorageError::Format(_))
        ));
    }
}
