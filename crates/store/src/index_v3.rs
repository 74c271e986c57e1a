//! Index format v3: a `KRC3` container whose sections mirror the in-memory
//! [`KReachIndex`] exactly — cover array, CSR offsets/targets, 2-bit packed
//! weights, and the derived dense-row acceleration (so a reload installs the
//! bitsets instead of recomputing them).
//!
//! Section ids (kind = index):
//!
//! | id | elems | contents |
//! |----|-------|----------|
//! | 1  | u64×8 | meta: k, strategy, n, threshold, clamp_min, weight count, classes, dense rows |
//! | 2  | u32   | cover vertex ids, in cover-position order |
//! | 3  | u32   | CSR offsets (`cover_len + 1`) |
//! | 4  | u32   | CSR targets (cover positions) |
//! | 5  | u8    | packed 2-bit weights (`ceil(weight_count / 4)` bytes) |
//! | 6  | u32   | cover position → dense slot (`u32::MAX` = sparse row) |
//! | 7  | u64   | dense bitset words, `[slot][class][word]` |
//!
//! This module is the only codec of an index's bytes. Its two halves,
//! `put_index_sections` and `read_index_sections`, encode and decode
//! sections 1–7 inside any container: an index file is those sections
//! alone, and a checkpoint ([`crate::checkpoint`]) carries its maintained
//! index as the same sections beside the graph.

use crate::container::{ContainerReader, ContainerWriter, FileKind};
use crate::StorageError;
use kreach_core::index_graph::CoverIndexGraph;
use kreach_core::weights::PackedWeights;
use kreach_core::{CoverStrategy, KReachIndex};
use kreach_graph::VertexId;
use std::io::{self, Read, Write};
use std::path::Path;

const SEC_META: u32 = 1;
const SEC_COVER: u32 = 2;
const SEC_OFFSETS: u32 = 3;
const SEC_TARGETS: u32 = 4;
const SEC_WPACKED: u32 = 5;
const SEC_DENSE_OF: u32 = 6;
const SEC_DENSE_WORDS: u32 = 7;

/// Sections [`put_index_sections`] adds to a container.
pub(crate) const INDEX_SECTIONS: usize = 7;

/// Fields of the meta section.
const META_FIELDS: usize = 8;

fn strategy_code(s: CoverStrategy) -> u64 {
    match s {
        CoverStrategy::RandomEdge => 0,
        CoverStrategy::DegreePriority => 1,
    }
}

fn strategy_from_code(code: u64) -> Result<CoverStrategy, StorageError> {
    match code {
        0 => Ok(CoverStrategy::RandomEdge),
        1 => Ok(CoverStrategy::DegreePriority),
        other => Err(StorageError::Format(format!(
            "unknown cover strategy code {other}"
        ))),
    }
}

/// Payload bytes [`put_index_sections`] writes for `index`: the exact
/// capacity hint for a [`ContainerWriter`] holding them.
pub(crate) fn index_sections_len(index: &KReachIndex) -> usize {
    let ig = index.index_graph();
    let accel = ig.accel_parts();
    let (cover, edges) = (ig.cover_size(), ig.edge_count());
    8 * META_FIELDS
        + 4 * (cover + (cover + 1) + edges + accel.dense_of.len())
        + edges.div_ceil(4)
        + 8 * accel.dense_words.len()
}

/// Adds sections 1–7 of `index` to `c`. Rows stream through
/// [`CoverIndexGraph::out_edges_by_pos`] and their weights are packed four
/// to a byte on the way, so an index the maintainer has patched (rows in
/// gapped spans) writes the same bytes as its compacted copy, and nothing
/// is staged outside the container's buffer.
pub(crate) fn put_index_sections(c: &mut ContainerWriter, index: &KReachIndex) {
    let ig = index.index_graph();
    let accel = ig.accel_parts();
    let clamp_min = ig.weights().clamp_min();
    let positions = 0..ig.cover_size() as u32;
    let rows = || positions.clone().flat_map(|p| ig.out_edges_by_pos(p));

    c.put_u64s(
        SEC_META,
        &[
            index.k() as u64,
            strategy_code(index.cover_strategy()),
            ig.input_vertex_count() as u64,
            ig.dense_threshold() as u64,
            clamp_min as u64,
            ig.edge_count() as u64,
            accel.classes as u64,
            accel.dense_rows as u64,
        ],
    );
    c.put_u32_iter(SEC_COVER, ig.cover_vertices().iter().map(|v| v.0));
    let ends = positions.clone().scan(0u32, |end, p| {
        *end += ig.out_degree_by_pos(p) as u32;
        Some(*end)
    });
    c.put_u32_iter(SEC_OFFSETS, std::iter::once(0).chain(ends));
    c.put_u32_iter(SEC_TARGETS, rows().map(|(t, _)| t));
    let mut offsets = rows().map(|(_, w)| (w - clamp_min) as u8);
    let packed = std::iter::from_fn(|| {
        let first = offsets.next()?;
        Some((1..4).fold(first, |byte, slot| {
            byte | offsets.next().map_or(0, |o| o << (2 * slot))
        }))
    });
    c.put_bytes(SEC_WPACKED, packed);
    c.put_u32s(SEC_DENSE_OF, accel.dense_of);
    c.put_u64s(SEC_DENSE_WORDS, accel.dense_words);
}

/// Decodes sections 1–7 of `c` into an index, re-validating every
/// structural invariant (the checksums caught corruption; this catches a
/// well-formed file that lies). The file kind is the caller's to check.
pub(crate) fn read_index_sections(c: &ContainerReader) -> Result<KReachIndex, StorageError> {
    let meta = c.u64s(SEC_META)?;
    if meta.len() != META_FIELDS {
        return Err(StorageError::Format(format!(
            "index meta section has {} fields (expected {META_FIELDS})",
            meta.len()
        )));
    }
    let k = checked_u32(meta[0], "k")?;
    let strategy = strategy_from_code(meta[1])?;
    let n = checked_usize(meta[2], "vertex count")?;
    let threshold = checked_usize(meta[3], "dense threshold")?;
    let clamp_min = checked_u32(meta[4], "clamp_min")?;
    let weight_count = checked_usize(meta[5], "weight count")?;
    let classes = checked_u32(meta[6], "classes")?;
    if clamp_min != k.saturating_sub(2) {
        return Err(StorageError::Format(format!(
            "weight clamp {clamp_min} is not k - 2 for k = {k}"
        )));
    }

    let cover: Vec<VertexId> = c.u32s(SEC_COVER)?.into_iter().map(VertexId).collect();
    let offsets = c.u32s(SEC_OFFSETS)?;
    let targets = c.u32s(SEC_TARGETS)?;
    let packed = c.raw(SEC_WPACKED)?;
    let dense_of = c.u32s(SEC_DENSE_OF)?;
    let dense_words = c.u64s(SEC_DENSE_WORDS)?;

    if weight_count != targets.len() {
        return Err(StorageError::Format(format!(
            "weight count {} does not match target count {}",
            weight_count,
            targets.len()
        )));
    }
    if packed.len() != weight_count.div_ceil(4) {
        return Err(StorageError::Format(format!(
            "packed weight section is {} bytes for {} weights (expected {})",
            packed.len(),
            weight_count,
            weight_count.div_ceil(4)
        )));
    }
    let weights = PackedWeights::from_raw(clamp_min, weight_count, packed);
    let index = CoverIndexGraph::from_raw_parts_with_accel(
        n,
        cover,
        offsets,
        targets,
        weights,
        threshold,
        classes,
        dense_of,
        dense_words,
    )
    .map_err(StorageError::Format)?;
    Ok(KReachIndex::from_parts(k, strategy, index))
}

/// Serializes an index in format v3 to a writer.
pub fn write_index_v3<W: Write>(index: &KReachIndex, mut w: W) -> Result<(), StorageError> {
    let mut c = ContainerWriter::new(FileKind::Index, INDEX_SECTIONS, index_sections_len(index));
    put_index_sections(&mut c, index);
    w.write_all(&c.finish())?;
    Ok(())
}

/// Saves an index in format v3, fsyncing before returning so a reported
/// success means the bytes are durable.
pub fn save_index_v3(index: &KReachIndex, path: impl AsRef<Path>) -> Result<(), StorageError> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_index_v3(index, &mut w)?;
    w.flush()?;
    w.get_ref().sync_all()?;
    Ok(())
}

/// Reconstructs an index from a parsed v3 container, rejecting a container
/// of another kind.
pub fn index_from_container(c: &ContainerReader) -> Result<KReachIndex, StorageError> {
    if c.kind() != FileKind::Index {
        return Err(StorageError::Format(
            "KRC3 file is not an index (kind mismatch)".into(),
        ));
    }
    read_index_sections(c)
}

/// Reads a v3 index from a reader.
pub fn read_index_v3<R: Read>(r: R) -> Result<KReachIndex, StorageError> {
    index_from_container(&ContainerReader::read_from(r)?)
}

/// Loads a v3 index file.
pub fn load_index(path: impl AsRef<Path>) -> Result<KReachIndex, StorageError> {
    index_from_container(&ContainerReader::from_bytes(std::fs::read(path)?)?)
}

pub(crate) fn checked_u32(v: u64, what: &str) -> Result<u32, StorageError> {
    u32::try_from(v).map_err(|_| StorageError::Format(format!("{what} {v} does not fit in u32")))
}

pub(crate) fn checked_usize(v: u64, what: &str) -> Result<usize, StorageError> {
    usize::try_from(v)
        .map_err(|_| StorageError::Format(format!("{what} {v} does not fit in usize")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_core::BuildOptions;
    use kreach_graph::DiGraph;
    use proptest::prelude::*;

    fn sample_graph() -> DiGraph {
        // A few chains and a hub so the cover is non-trivial and at least
        // one row can cross the dense threshold when it is forced low.
        let mut edges = Vec::new();
        for i in 0..40u32 {
            edges.push((i, (i + 1) % 41));
            edges.push((i, (i + 7) % 41));
            if i % 3 == 0 {
                edges.push((41, i));
            }
        }
        DiGraph::from_edges(42, edges)
    }

    fn sample_index() -> KReachIndex {
        let options = BuildOptions {
            dense_row_threshold: Some(2),
            ..BuildOptions::default()
        };
        KReachIndex::build(&sample_graph(), 3, options)
    }

    fn answers(index: &KReachIndex, g: &DiGraph) -> Vec<bool> {
        let mut out = Vec::new();
        for s in 0..42u32 {
            for t in 0..42u32 {
                out.push(index.query(g, VertexId(s), VertexId(t)));
            }
        }
        out
    }

    /// A unique scratch directory for file tests.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kreach-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn v3_round_trip_is_equivalent_to_memory() {
        let g = sample_graph();
        let built = sample_index();

        let mut v3 = Vec::new();
        write_index_v3(&built, &mut v3).expect("v3 write");
        let from_v3 = read_index_v3(v3.as_slice()).expect("v3 read");

        assert_eq!(from_v3.k(), built.k());
        assert_eq!(from_v3.cover_strategy(), built.cover_strategy());
        assert_eq!(from_v3.cover_size(), built.cover_size());
        assert_eq!(from_v3.index_edge_count(), built.index_edge_count());
        assert_eq!(answers(&from_v3, &g), answers(&built, &g));
    }

    #[test]
    fn v3_reload_preserves_the_dense_acceleration() {
        let built = sample_index();
        let mut v3 = Vec::new();
        write_index_v3(&built, &mut v3).expect("v3 write");
        let reloaded = read_index_v3(v3.as_slice()).expect("v3 read");
        let a = built.index_graph().accel_parts();
        let b = reloaded.index_graph().accel_parts();
        assert_eq!(a.threshold, b.threshold);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.dense_rows, b.dense_rows);
        assert_eq!(a.dense_of, b.dense_of);
        assert_eq!(a.dense_words, b.dense_words);
    }

    #[test]
    fn file_round_trip() {
        let built = sample_index();
        let dir = temp_dir("v3-file");
        let path = dir.join("index.krc3");
        save_index_v3(&built, &path).expect("save");
        let g = sample_graph();
        let loaded = load_index(&path).expect("load");
        assert_eq!(answers(&loaded, &g), answers(&built, &g));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_reports_write_failure_instead_of_swallowing_it() {
        // A directory path cannot be created as a file: the error must
        // surface through the Result, not vanish in a drop.
        let err = save_index_v3(&sample_index(), std::env::temp_dir()).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
    }

    /// `parsed` rewritten with `meta` and one `u32` section replaced: a
    /// well-formed file (every checksum valid) that lies.
    fn lying(parsed: &ContainerReader, meta: &[u64], id: u32, values: &[u32]) -> Vec<u8> {
        let mut c = ContainerWriter::new(FileKind::Index, INDEX_SECTIONS, 0);
        c.put_u64s(SEC_META, meta);
        for sec in [SEC_COVER, SEC_OFFSETS, SEC_TARGETS] {
            let section = parsed.u32s(sec).expect("section");
            c.put_u32s(sec, if sec == id { values } else { &section });
        }
        c.put_bytes(SEC_WPACKED, parsed.raw(SEC_WPACKED).expect("weights"));
        c.put_u32s(SEC_DENSE_OF, &parsed.u32s(SEC_DENSE_OF).expect("slots"));
        c.put_u64s(
            SEC_DENSE_WORDS,
            &parsed.u64s(SEC_DENSE_WORDS).expect("words"),
        );
        c.finish()
    }

    #[test]
    fn inconsistent_sections_are_format_errors_not_panics() {
        let mut v3 = Vec::new();
        write_index_v3(&sample_index(), &mut v3).expect("v3 write");
        let parsed = ContainerReader::from_bytes(v3).expect("parse");
        let meta = parsed.u64s(SEC_META).expect("meta");
        let cover = parsed.u32s(SEC_COVER).expect("cover");
        let offsets = parsed.u32s(SEC_OFFSETS).expect("offsets");
        let targets = parsed.u32s(SEC_TARGETS).expect("targets");
        assert!(cover.len() >= 2 && targets.len() >= 2);
        assert!(read_index_v3(lying(&parsed, &meta, SEC_COVER, &cover).as_slice()).is_ok());

        let mut wrong_clamp = meta.clone();
        wrong_clamp[4] += 1;
        let mut out_of_range = cover.clone();
        out_of_range[0] = u32::MAX;
        let mut duplicate = cover.clone();
        duplicate[1] = duplicate[0];
        let mut non_monotone = offsets.clone();
        non_monotone[1] = u32::MAX;
        let mut bad_target = targets.clone();
        bad_target[0] = cover.len() as u32;
        for (meta, id, values) in [
            (&wrong_clamp, SEC_COVER, cover.clone()),
            (&meta, SEC_COVER, out_of_range),
            (&meta, SEC_COVER, duplicate),
            (&meta, SEC_OFFSETS, non_monotone),
            (&meta, SEC_TARGETS, bad_target),
        ] {
            assert!(
                matches!(
                    read_index_v3(lying(&parsed, meta, id, &values).as_slice()),
                    Err(StorageError::Format(_))
                ),
                "a lying section {id} loaded"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn corrupt_v3_files_error_instead_of_panicking(byte in 0usize..8192, bit in 0u32..8) {
            let mut bytes = Vec::new();
            write_index_v3(&sample_index(), &mut bytes).expect("v3 write");
            if byte < bytes.len() {
                bytes[byte] ^= 1u8 << bit;
                // Either a detected error or (for padding / benign header
                // bytes) a clean parse — never a panic or abort.
                let _ = read_index_v3(bytes.as_slice());
            }
        }

        #[test]
        fn truncated_v3_files_always_error(cut in 0usize..8192) {
            let mut bytes = Vec::new();
            write_index_v3(&sample_index(), &mut bytes).expect("v3 write");
            if cut < bytes.len() {
                prop_assert!(read_index_v3(bytes[..cut].to_vec().as_slice()).is_err());
            }
        }
    }
}
