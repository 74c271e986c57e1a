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
//! v1/v2 files (magic `KRCH`) still load through
//! [`kreach_core::storage::read_kreach`]; [`load_index`] sniffs the magic
//! and dispatches.

use crate::container::{ContainerReader, ContainerWriter, FileKind, MAGIC};
use kreach_core::index_graph::CoverIndexGraph;
use kreach_core::storage::StorageError;
use kreach_core::weights::{PackedWeights, WeightStore};
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

fn strategy_code(s: CoverStrategy) -> u64 {
    // Same codes as index format v2 (crates/core/src/storage.rs).
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

/// Serializes an index in format v3 to a writer.
pub fn write_index_v3<W: Write>(index: &KReachIndex, mut w: W) -> Result<(), StorageError> {
    let ig = index.index_graph();
    let (cover, offsets, targets) = ig.raw_parts();
    let weights = ig.weights();
    let accel = ig.accel_parts();

    let meta = [
        index.k() as u64,
        strategy_code(index.cover_strategy()),
        ig.input_vertex_count() as u64,
        ig.dense_threshold() as u64,
        weights.clamp_min() as u64,
        weights.len() as u64,
        accel.classes as u64,
        accel.dense_rows as u64,
    ];
    let packed = weights.packed_bytes();
    let payload = 8 * meta.len()
        + 4 * (cover.len() + offsets.len() + targets.len() + accel.dense_of.len())
        + packed.len()
        + 8 * accel.dense_words.len();

    let mut c = ContainerWriter::new(FileKind::Index, 7, payload);
    c.put_u64s(SEC_META, &meta);
    c.put_u32_iter(SEC_COVER, cover.iter().map(|v| v.0));
    c.put_u32s(SEC_OFFSETS, offsets);
    c.put_u32s(SEC_TARGETS, targets);
    c.put_bytes(SEC_WPACKED, packed);
    c.put_u32s(SEC_DENSE_OF, accel.dense_of);
    c.put_u64s(SEC_DENSE_WORDS, accel.dense_words);
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

/// Reconstructs an index from a parsed v3 container, re-validating every
/// structural invariant (the checksums caught corruption; this catches a
/// well-formed file that lies).
pub fn index_from_container(c: &ContainerReader) -> Result<KReachIndex, StorageError> {
    if c.kind() != FileKind::Index {
        return Err(StorageError::Format(
            "KRC3 file is not an index (kind mismatch)".into(),
        ));
    }
    let meta = c.u64s(SEC_META)?;
    if meta.len() != 8 {
        return Err(StorageError::Format(format!(
            "index meta section has {} fields (expected 8)",
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

/// Reads a v3 index from a reader.
pub fn read_index_v3<R: Read>(r: R) -> Result<KReachIndex, StorageError> {
    index_from_container(&ContainerReader::read_from(r)?)
}

/// Loads an index from a file of **any** supported format: v3 (`KRC3`)
/// through the checked container path, v1/v2 (`KRCH`) through the legacy
/// reader. Sniffs the magic, so callers never need to know which a file is.
pub fn load_index(path: impl AsRef<Path>) -> Result<KReachIndex, StorageError> {
    let bytes = std::fs::read(path.as_ref())?;
    if bytes.len() >= 4 && u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) == MAGIC {
        index_from_container(&ContainerReader::from_bytes(bytes)?)
    } else {
        kreach_core::storage::read_kreach(bytes.as_slice())
    }
}

fn checked_u32(v: u64, what: &str) -> Result<u32, StorageError> {
    u32::try_from(v).map_err(|_| StorageError::Format(format!("{what} {v} does not fit in u32")))
}

fn checked_usize(v: u64, what: &str) -> Result<usize, StorageError> {
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

    #[test]
    fn v3_round_trip_is_equivalent_to_v2_and_memory() {
        let g = sample_graph();
        let built = sample_index();

        let mut v3 = Vec::new();
        write_index_v3(&built, &mut v3).expect("v3 write");
        let from_v3 = read_index_v3(v3.as_slice()).expect("v3 read");

        let mut v2 = Vec::new();
        kreach_core::storage::write_kreach(&built, &mut v2).expect("v2 write");
        let from_v2 = kreach_core::storage::read_kreach(v2.as_slice()).expect("v2 read");

        assert_eq!(from_v3.k(), built.k());
        assert_eq!(from_v3.cover_strategy(), built.cover_strategy());
        assert_eq!(from_v3.cover_size(), built.cover_size());
        assert_eq!(from_v3.index_edge_count(), built.index_edge_count());
        let in_memory = answers(&built, &g);
        assert_eq!(answers(&from_v3, &g), in_memory, "v3 answers diverge");
        assert_eq!(answers(&from_v2, &g), in_memory, "v2 answers diverge");
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
    fn load_index_sniffs_both_formats() {
        let built = sample_index();
        let dir = std::env::temp_dir().join(format!("kreach-store-v3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let v3_path = dir.join("index.krc3");
        let v2_path = dir.join("index.krch");
        save_index_v3(&built, &v3_path).expect("v3 save");
        kreach_core::storage::save_kreach(&built, &v2_path).expect("v2 save");
        let g = sample_graph();
        let want = answers(&built, &g);
        assert_eq!(answers(&load_index(&v3_path).expect("v3 load"), &g), want);
        assert_eq!(answers(&load_index(&v2_path).expect("v2 load"), &g), want);
        std::fs::remove_dir_all(&dir).ok();
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
