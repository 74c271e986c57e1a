//! Binary on-disk serialization of the k-reach index.
//!
//! Section 4.1.3 notes that "the constructed index is then stored on disk";
//! this module provides a compact little-endian binary format so an index can
//! be built once and memory-mapped or reloaded by later query sessions.
//! The format stores exactly the pieces of the index graph: the vertex cover,
//! the CSR offsets/targets over cover positions, and the 2-bit packed weights.

use crate::index_graph::CoverIndexGraph;
use crate::kreach::KReachIndex;
use crate::vertex_cover::CoverStrategy;
use crate::weights::{PackedWeights, WeightStore};
use kreach_graph::VertexId;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic number identifying a k-reach index file ("KRCH").
const MAGIC: u32 = 0x4b52_4348;
/// Current format version. Version 2 added the dense-row degree threshold of
/// the hybrid successor representation, so a reloaded index rebuilds its
/// (derived) distance-bucketed bitsets with the same knob it was built with;
/// version-1 files load with the default threshold.
const VERSION: u32 = 2;

/// Errors produced while loading an index.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a k-reach index or uses an unsupported version.
    Format(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Serializes a k-reach index to a writer.
pub fn write_kreach<W: Write>(index: &KReachIndex, mut w: W) -> Result<(), StorageError> {
    let ig = index.index_graph();
    let (cover, offsets, targets) = ig.raw_parts();
    let weights = ig.weights();

    write_u32(&mut w, MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, index.k())?;
    write_u32(&mut w, strategy_code(index.cover_strategy()))?;
    write_u64(&mut w, ig.dense_threshold() as u64)?;
    write_u64(&mut w, ig.input_vertex_count() as u64)?;

    write_u64(&mut w, cover.len() as u64)?;
    for &v in cover {
        write_u32(&mut w, v.0)?;
    }
    write_u64(&mut w, offsets.len() as u64)?;
    for &o in offsets {
        write_u32(&mut w, o)?;
    }
    write_u64(&mut w, targets.len() as u64)?;
    for &t in targets {
        write_u32(&mut w, t)?;
    }
    write_u32(&mut w, weights.clamp_min())?;
    write_u64(&mut w, weights.len() as u64)?;
    write_u64(&mut w, weights.packed_bytes().len() as u64)?;
    w.write_all(weights.packed_bytes())?;
    Ok(())
}

/// Upper bound on speculative `Vec::with_capacity` pre-allocation while the
/// stream is still untrusted. A corrupted or hostile length field may claim
/// billions of elements; allocation past this cap only happens as actual
/// bytes arrive from the reader, so a lying header hits EOF (an `Io` error)
/// long before it can abort the process on OOM.
const PREALLOC_CAP: usize = 1 << 16;

/// Reads `len` little-endian `u32`s with pre-allocation capped against
/// hostile length fields (see [`PREALLOC_CAP`]).
fn read_u32s<R: Read>(r: &mut R, len: usize) -> Result<Vec<u32>, StorageError> {
    let mut out = Vec::with_capacity(len.min(PREALLOC_CAP));
    for _ in 0..len {
        out.push(read_u32(r)?);
    }
    Ok(out)
}

/// Deserializes a k-reach index from a reader.
///
/// Every length field is treated as untrusted until the corresponding bytes
/// have actually been read, and the loaded sections are cross-validated
/// (offset monotonicity, cover/target ranges) before the index is assembled,
/// so corrupt or hostile input yields [`StorageError`] — never a panic, an
/// abort, or an index that panics later at query time.
pub fn read_kreach<R: Read>(mut r: R) -> Result<KReachIndex, StorageError> {
    let magic = read_u32(&mut r)?;
    if magic != MAGIC {
        return Err(StorageError::Format(format!("bad magic 0x{magic:08x}")));
    }
    let version = read_u32(&mut r)?;
    if version != 1 && version != VERSION {
        return Err(StorageError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let k = read_u32(&mut r)?;
    let strategy = strategy_from_code(read_u32(&mut r)?)?;
    let threshold = if version >= 2 {
        Some(read_u64(&mut r)? as usize)
    } else {
        None
    };
    let n = read_u64(&mut r)? as usize;
    if n > u32::MAX as usize {
        return Err(StorageError::Format(format!(
            "vertex count {n} exceeds the u32 vertex-id space"
        )));
    }

    let cover_len = read_u64(&mut r)? as usize;
    if cover_len > n {
        return Err(StorageError::Format(format!(
            "cover size {cover_len} exceeds vertex count {n}"
        )));
    }
    let cover: Vec<VertexId> = read_u32s(&mut r, cover_len)?
        .into_iter()
        .map(VertexId)
        .collect();
    let offsets_len = read_u64(&mut r)? as usize;
    if offsets_len != cover_len + 1 {
        return Err(StorageError::Format(format!(
            "offset count {offsets_len} does not match cover size {cover_len}"
        )));
    }
    let offsets = read_u32s(&mut r, offsets_len)?;
    let targets_len = read_u64(&mut r)? as usize;
    if targets_len != *offsets.last().unwrap_or(&0) as usize {
        return Err(StorageError::Format(format!(
            "target count {targets_len} does not match last offset {}",
            offsets.last().unwrap_or(&0)
        )));
    }
    let targets = read_u32s(&mut r, targets_len)?;
    let clamp_min = read_u32(&mut r)?;
    let weight_count = read_u64(&mut r)? as usize;
    let packed_len = read_u64(&mut r)? as usize;
    if weight_count != targets_len {
        return Err(StorageError::Format(format!(
            "weight count {weight_count} does not match target count {targets_len}"
        )));
    }
    if packed_len != weight_count.div_ceil(4) {
        return Err(StorageError::Format(format!(
            "packed weight length {packed_len} does not match weight count {weight_count}"
        )));
    }
    // `take` bounds the allocation by what the stream actually delivers, so
    // an oversized length field cannot force a huge up-front buffer.
    let mut packed = Vec::with_capacity(packed_len.min(PREALLOC_CAP));
    r.by_ref()
        .take(packed_len as u64)
        .read_to_end(&mut packed)?;
    if packed.len() != packed_len {
        return Err(StorageError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated packed weight section",
        )));
    }

    let weights = PackedWeights::from_raw(clamp_min, weight_count, packed);
    let index = CoverIndexGraph::try_from_raw_parts(n, cover, offsets, targets, weights, threshold)
        .map_err(StorageError::Format)?;
    Ok(KReachIndex::from_parts(k, strategy, index))
}

/// Saves an index to a file path.
///
/// Flushes the buffered writer explicitly and `sync_all`s the file before
/// returning, so a full disk or failing device surfaces as an error here
/// instead of being swallowed by the implicit flush-on-drop (which would
/// report a truncated index file as success).
pub fn save_kreach(index: &KReachIndex, path: impl AsRef<Path>) -> Result<(), StorageError> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_kreach(index, &mut w)?;
    w.flush()?;
    w.get_ref().sync_all()?;
    Ok(())
}

/// Loads an index from a file path.
pub fn load_kreach(path: impl AsRef<Path>) -> Result<KReachIndex, StorageError> {
    let file = std::fs::File::open(path)?;
    read_kreach(io::BufReader::new(file))
}

fn strategy_code(s: CoverStrategy) -> u32 {
    match s {
        CoverStrategy::RandomEdge => 0,
        CoverStrategy::DegreePriority => 1,
    }
}

fn strategy_from_code(code: u32) -> Result<CoverStrategy, StorageError> {
    match code {
        0 => Ok(CoverStrategy::RandomEdge),
        1 => Ok(CoverStrategy::DegreePriority),
        other => Err(StorageError::Format(format!(
            "unknown cover strategy code {other}"
        ))),
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kreach::BuildOptions;
    use crate::paper_example::paper_example_graph;
    use kreach_graph::generators::GeneratorSpec;
    use proptest::prelude::*;

    #[test]
    fn round_trip_preserves_answers_and_metadata() {
        let g = paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        let mut buf = Vec::new();
        write_kreach(&index, &mut buf).expect("serializes");
        let restored = read_kreach(buf.as_slice()).expect("deserializes");

        assert_eq!(restored.k(), index.k());
        assert_eq!(restored.cover_size(), index.cover_size());
        assert_eq!(restored.index_edge_count(), index.index_edge_count());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(restored.query(&g, s, t), index.query(&g, s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn round_trip_on_random_graph() {
        let g = GeneratorSpec::PowerLaw {
            n: 250,
            m: 900,
            hubs: 4,
        }
        .generate(42);
        let index = KReachIndex::build(&g, 5, BuildOptions::default());
        let mut buf = Vec::new();
        write_kreach(&index, &mut buf).expect("serializes");
        let restored = read_kreach(buf.as_slice()).expect("deserializes");
        for s in g.vertices().step_by(13) {
            for t in g.vertices().step_by(17) {
                assert_eq!(restored.query(&g, s, t), index.query(&g, s, t));
            }
        }
    }

    #[test]
    fn round_trip_preserves_dense_threshold_and_hybrid_rows() {
        let g = GeneratorSpec::HubForest {
            n: 400,
            m: 900,
            hubs: 6,
        }
        .generate(11);
        let index = KReachIndex::build(
            &g,
            3,
            BuildOptions {
                dense_row_threshold: Some(4),
                ..BuildOptions::default()
            },
        );
        assert!(index.index_graph().dense_row_count() > 0);
        let mut buf = Vec::new();
        write_kreach(&index, &mut buf).expect("serializes");
        let restored = read_kreach(buf.as_slice()).expect("deserializes");
        assert_eq!(restored.index_graph().dense_threshold(), 4);
        assert_eq!(
            restored.index_graph().dense_row_count(),
            index.index_graph().dense_row_count()
        );
        for s in g.vertices().step_by(7) {
            for t in g.vertices().step_by(5) {
                assert_eq!(restored.query(&g, s, t), index.query(&g, s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncated_input() {
        let err = read_kreach(&b"not an index file"[..]).unwrap_err();
        assert!(matches!(err, StorageError::Format(_) | StorageError::Io(_)));

        let g = paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        let mut buf = Vec::new();
        write_kreach(&index, &mut buf).expect("serializes");
        buf.truncate(buf.len() / 2);
        assert!(read_kreach(buf.as_slice()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let g = paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        // Unique per-process directory: a fixed path under temp_dir() races
        // against concurrent test runs on the same machine and flakes.
        let dir = std::env::temp_dir().join(format!("kreach-storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("example.kreach");
        save_kreach(&index, &path).expect("saves");
        let restored = load_kreach(&path).expect("loads");
        assert_eq!(restored.k(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_reports_write_failure_instead_of_swallowing_it() {
        let g = paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        // A directory path cannot be created as a file: the error must
        // surface through the Result, not vanish in a drop.
        let err = save_kreach(&index, std::env::temp_dir()).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
    }

    #[test]
    fn error_display_is_informative() {
        let err = StorageError::Format("boom".to_string());
        assert!(err.to_string().contains("boom"));
    }

    /// A serialized paper-example index plus the byte offsets of every u64
    /// length field in the fixed prefix, for targeted corruption.
    fn base_bytes() -> Vec<u8> {
        let g = paper_example_graph();
        let index = KReachIndex::build(&g, 3, BuildOptions::default());
        let mut buf = Vec::new();
        write_kreach(&index, &mut buf).expect("serializes");
        buf
    }

    #[test]
    fn oversized_length_fields_error_instead_of_aborting_on_oom() {
        let base = base_bytes();
        // Offsets of the u64 length fields within the format: cover_len sits
        // after magic/version/k/strategy (4 u32s) + threshold + n (2 u64s);
        // the later ones follow the variable-length sections.
        let cover_len_at = 32;
        let cover_len = u64::from_le_bytes(base[32..40].try_into().unwrap()) as usize;
        let offsets_len_at = 40 + 4 * cover_len;
        let offsets_len =
            u64::from_le_bytes(base[offsets_len_at..offsets_len_at + 8].try_into().unwrap())
                as usize;
        let targets_len_at = offsets_len_at + 8 + 4 * offsets_len;
        let targets_len =
            u64::from_le_bytes(base[targets_len_at..targets_len_at + 8].try_into().unwrap())
                as usize;
        let packed_len_at = targets_len_at + 8 + 4 * targets_len + 4 + 8;
        for at in [cover_len_at, offsets_len_at, targets_len_at, packed_len_at] {
            for hostile in [u64::MAX, 1 << 40, (u32::MAX as u64) + 7] {
                let mut bytes = base.clone();
                bytes[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                assert!(
                    read_kreach(bytes.as_slice()).is_err(),
                    "length field at {at} = {hostile} must be rejected"
                );
            }
        }
    }

    #[test]
    fn inconsistent_sections_are_format_errors_not_panics() {
        let base = base_bytes();
        let cover_len = u64::from_le_bytes(base[32..40].try_into().unwrap()) as usize;
        assert!(cover_len >= 2, "paper example has a non-trivial cover");
        // Out-of-range cover vertex.
        let mut bytes = base.clone();
        bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_kreach(bytes.as_slice()),
            Err(StorageError::Format(_))
        ));
        // Non-monotone offsets: first offset must be 0; a huge first offset
        // breaks monotonicity against its successors.
        let offsets_at = 40 + 4 * cover_len + 8;
        let mut bytes = base.clone();
        bytes[offsets_at..offsets_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_kreach(bytes.as_slice()),
            Err(StorageError::Format(_))
        ));
    }

    proptest! {
        // Corrupt-file fuzz: every truncation of a valid index file is
        // rejected with an error — never a panic or an abort.
        #[test]
        fn truncated_files_always_error(cut in 0usize..4096) {
            let base = base_bytes();
            let cut = cut % base.len();
            prop_assert!(read_kreach(&base[..cut]).is_err(), "prefix of {cut} bytes");
        }

        // Corrupt-file fuzz: single-bit flips anywhere in the file never
        // panic. (A flip in a weight bit can still yield a structurally
        // valid file, so the property is "returns", not "errors".)
        #[test]
        fn bit_flips_never_panic(byte in 0usize..4096, bit in 0u32..8) {
            let mut bytes = base_bytes();
            let at = byte % bytes.len();
            bytes[at] ^= 1u8 << bit;
            let _ = read_kreach(bytes.as_slice());
        }

        // Corrupt-file fuzz: random overwrites of any u64-aligned word with
        // an arbitrary value (the "hostile length field" shape) never panic
        // or abort, and never produce an index that panics on a query.
        #[test]
        fn random_word_overwrites_never_panic(word in 0usize..512, value in 0u64..u64::MAX) {
            let mut bytes = base_bytes();
            let words = bytes.len() / 8;
            let at = (word % words) * 8;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            if let Ok(index) = read_kreach(bytes.as_slice()) {
                // A structurally valid mutation must still be queryable.
                let g = paper_example_graph();
                if index.index_graph().input_vertex_count() == g.vertex_count() {
                    let _ = index.query(&g, VertexId(0), VertexId(1));
                }
            }
        }
    }
}
