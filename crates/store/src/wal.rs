//! The epoch-keyed write-ahead log for graph mutations.
//!
//! Every acked update batch is appended as one **record** and fsynced
//! before `apply_updates` returns, so an HTTP 200 on `POST /update` implies
//! the mutation survives a crash. Records reuse the `kreach update` wire
//! grammar for the op lines, so a WAL segment is a valid update workload
//! file prefixed with record headers:
//!
//! ```text
//! e <epoch> <op-count> <fnv1a64-hex-of-op-lines>
//! + 3 9
//! - 4 1
//! ```
//!
//! `<epoch>` is the engine epoch **after** the batch applied; replay skips
//! records at or below the checkpoint epoch (idempotent) and stops at the
//! first torn or corrupt record (a crash mid-append leaves only a torn
//! tail, never a hole). [`Wal::open`] truncates any torn tail off the
//! resumed segment before accepting appends — otherwise records acked
//! after a restart would sit *behind* the tear and be invisible to replay
//! after a second crash.
//!
//! The log is segmented: `wal-<seq>.log` files in the data directory. A
//! checkpoint rotates to a fresh segment *before* reading the engine epoch,
//! so every record in older segments is `<=` the checkpoint epoch and the
//! old segments can be deleted once the checkpoint is durable.

use crate::container::fnv1a64;
use crate::io::{RealIo, StorageIo};
use crate::StorageError;
use kreach_datasets::workload_file::{read_update_workload, UpdateOp};
use kreach_graph::EdgeUpdate;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

/// One replayable WAL record: the mutation batch and the engine epoch it
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Engine epoch after this batch applied.
    pub epoch: u64,
    /// The batch, in apply order.
    pub updates: Vec<EdgeUpdate>,
}

/// An append handle on the newest WAL segment.
pub struct Wal {
    dir: PathBuf,
    seq: u64,
    file: File,
    recovered_torn_tail: bool,
    /// All filesystem operations go through this seam; [`RealIo`] in
    /// production, a fault injector under `KREACH_FAILPOINTS`.
    io: Arc<dyn StorageIo>,
    /// Bytes of the current segment known durable (written **and**
    /// fsynced). A failed append leaves bytes past this point.
    durable_len: u64,
    /// Set when an append failed after possibly writing bytes: the segment
    /// tail past `durable_len` is garbage (a torn — or worse, complete but
    /// unacked — record). [`Wal::heal`] truncates it back before the next
    /// append or rotation, so a record whose ack was never sent can never
    /// replay once any later append succeeds.
    dirty: bool,
}

fn segment_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:010}{SEGMENT_SUFFIX}")
}

fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Sorted `(seq, path)` list of the WAL segments present in `dir`.
fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    segments_via(&RealIo, "wal.read_dir", dir)
}

/// [`segments`], routed through an io seam and labeled with `site`.
fn segments_via(
    io: &dyn StorageIo,
    site: &str,
    dir: &Path,
) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut found = Vec::new();
    for name in io.read_dir_names(site, dir)? {
        if let Some(seq) = segment_seq(&name) {
            found.push((seq, dir.join(name)));
        }
    }
    found.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(found)
}

impl Wal {
    /// Opens the newest segment in `dir` for appending over the real
    /// filesystem backend. See [`Wal::open_with_io`].
    pub fn open(dir: &Path) -> Result<Self, StorageError> {
        Self::open_with_io(dir, Arc::new(RealIo))
    }

    /// Opens the newest segment in `dir` for appending, creating segment 1
    /// if the directory has none. If a crash left a torn record at the
    /// segment's tail, the tail is truncated first: replay stops at the
    /// first tear, so appending after torn bytes would make every later
    /// acked record unrecoverable on the next restart.
    pub fn open_with_io(dir: &Path, io: Arc<dyn StorageIo>) -> Result<Self, StorageError> {
        let seq = segments_via(io.as_ref(), "wal.open.read_dir", dir)?
            .last()
            .map(|&(s, _)| s)
            .unwrap_or(0)
            .max(1);
        let path = dir.join(segment_name(seq));
        let mut recovered_torn_tail = false;
        let mut durable_len = 0u64;
        match io.read("wal.open.read", &path) {
            Ok(bytes) => {
                let parsed = parse_segment(&bytes);
                durable_len = parsed.valid_len as u64;
                if parsed.valid_len < bytes.len() {
                    let file = io.open_write("wal.open.truncate", &path)?;
                    io.set_len("wal.open.set_len", &file, durable_len)?;
                    io.fsync("wal.open.fsync", &file)?;
                    recovered_torn_tail = true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let file = io.open_append("wal.open", &path)?;
        io.sync_dir("wal.open.sync_dir", dir)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            seq,
            file,
            recovered_torn_tail,
            io,
            durable_len,
            dirty: false,
        })
    }

    /// Whether [`Wal::open`] found and truncated a torn tail (the signature
    /// of a crash mid-append) on the resumed segment.
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn_tail
    }

    /// Serializes one record. The checksum covers exactly the op-line bytes.
    fn render_record(epoch: u64, updates: &[EdgeUpdate]) -> Vec<u8> {
        let mut ops = String::new();
        for u in updates {
            ops.push_str(&u.to_string());
            ops.push('\n');
        }
        let header = format!(
            "e {epoch} {} {:016x}\n",
            updates.len(),
            fnv1a64(ops.as_bytes())
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(ops.as_bytes());
        bytes
    }

    /// Truncates the current segment back to its last durable byte,
    /// discarding whatever a failed append left behind. Called before the
    /// next append (or rotation) after a failure: the discarded tail is
    /// either torn (unreplayable anyway) or a complete record whose ack was
    /// never sent — letting *that* replay behind later acked records would
    /// resurrect an update the client was told failed.
    fn heal(&mut self) -> std::io::Result<()> {
        self.io
            .set_len("wal.heal.set_len", &self.file, self.durable_len)?;
        self.io.fsync("wal.heal.fsync", &self.file)?;
        self.dirty = false;
        Ok(())
    }

    /// Appends one record and fsyncs it. Returns only after the bytes are
    /// durable — this is the fsync that backs the ack. The returned
    /// [`WalAppendInfo`] carries the append's size and the write/fsync
    /// stage timings for the durability instrumentation.
    ///
    /// After a failed append the segment self-heals on the next call:
    /// the not-acknowledged tail is truncated before new bytes land.
    pub fn append(&mut self, epoch: u64, updates: &[EdgeUpdate]) -> std::io::Result<WalAppendInfo> {
        if self.dirty {
            self.heal()?;
        }
        let bytes = Self::render_record(epoch, updates);
        let write_start = std::time::Instant::now();
        if let Err(e) = self
            .io
            .write_all("wal.append.write", &mut self.file, &bytes)
        {
            self.dirty = true;
            return Err(e);
        }
        let write_nanos = write_start.elapsed().as_nanos() as u64;
        let fsync_start = std::time::Instant::now();
        if let Err(e) = self.io.fsync("wal.append.fsync", &self.file) {
            self.dirty = true;
            return Err(e);
        }
        self.durable_len += bytes.len() as u64;
        Ok(WalAppendInfo {
            bytes: bytes.len() as u64,
            ops: updates.len() as u64,
            write_nanos,
            fsync_nanos: fsync_start.elapsed().as_nanos() as u64,
        })
    }

    /// Rotates to a fresh segment; subsequent appends go there. Returns the
    /// sequence number of the new segment. A dirty tail on the old segment
    /// is healed first — after rotation it would be out of reach forever.
    pub fn rotate(&mut self) -> Result<u64, StorageError> {
        if self.dirty {
            self.heal()?;
        }
        let seq = self.seq + 1;
        let path = self.dir.join(segment_name(seq));
        let file = self.io.open_append("wal.rotate", &path)?;
        self.io.sync_dir("wal.rotate.sync_dir", &self.dir)?;
        self.seq = seq;
        self.file = file;
        self.durable_len = 0;
        Ok(seq)
    }

    /// Deletes every segment with sequence number `< before_seq`. Only
    /// called after a checkpoint covering their records is durable.
    pub fn prune(&self, before_seq: u64) -> Result<(), StorageError> {
        for (seq, path) in segments_via(self.io.as_ref(), "wal.prune.read_dir", &self.dir)? {
            if seq < before_seq {
                self.io.remove_file("wal.prune", &path)?;
            }
        }
        self.io.sync_dir("wal.prune.sync_dir", &self.dir)?;
        Ok(())
    }

    /// The sequence number of the segment currently receiving appends.
    pub fn current_seq(&self) -> u64 {
        self.seq
    }

    /// The number of segment files currently on disk (the
    /// `kreach_wal_segments` gauge and the `/healthz` `wal_segments`
    /// field).
    pub fn segment_count(&self) -> Result<u64, StorageError> {
        Ok(segments_via(self.io.as_ref(), "wal.segments.read_dir", &self.dir)?.len() as u64)
    }
}

/// Size and stage timings of one durable append, returned by
/// [`Wal::append`] so the caller can feed its durability stats without the
/// WAL knowing about them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAppendInfo {
    /// Bytes written (header + op lines).
    pub bytes: u64,
    /// Mutation ops in the appended batch.
    pub ops: u64,
    /// Nanoseconds spent in the buffer write (`write_all`).
    pub write_nanos: u64,
    /// Nanoseconds spent in the fsync (`sync_data`) that backs the ack.
    pub fsync_nanos: u64,
}

/// What [`parse_segment`] extracted from one segment's bytes.
struct ParsedSegment {
    records: Vec<WalRecord>,
    /// Whether a torn/corrupt tail follows the valid records.
    torn: bool,
    /// Byte length of the valid prefix — the offset just past the last
    /// fully valid record. Truncating the segment to this length removes
    /// the tear without touching any replayable record.
    valid_len: usize,
}

/// Parses one segment's records, tolerating a torn tail: parsing stops at
/// the first record whose header is malformed, whose op lines are missing
/// or unparsable, or whose checksum disagrees. Records before the tear are
/// returned; `torn` reports whether a tear was seen.
fn parse_segment(bytes: &[u8]) -> ParsedSegment {
    let mut records = Vec::new();
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(e) => {
            // Replay the valid prefix; the tear is mid-record anyway.
            std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix")
        }
    };
    let done = |records: Vec<WalRecord>, torn: bool, rest: &str| ParsedSegment {
        records,
        torn,
        valid_len: text.len() - rest.len(),
    };
    let mut rest = text;
    loop {
        let Some(line_end) = rest.find('\n') else {
            let torn = !rest.is_empty() || bytes.len() > text.len();
            return done(records, torn, rest);
        };
        let header = &rest[..line_end];
        let after_header = &rest[line_end + 1..];
        let mut fields = header.split_ascii_whitespace();
        let (Some("e"), Some(epoch), Some(count), Some(sum), None) = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) else {
            return done(records, true, rest);
        };
        let (Ok(epoch), Ok(count), Ok(sum)) = (
            epoch.parse::<u64>(),
            count.parse::<usize>(),
            u64::from_str_radix(sum, 16),
        ) else {
            return done(records, true, rest);
        };
        // Take exactly `count` op lines.
        let mut ops_end = 0usize;
        let mut complete = true;
        for _ in 0..count {
            match after_header[ops_end..].find('\n') {
                Some(nl) => ops_end += nl + 1,
                None => {
                    complete = false;
                    break;
                }
            }
        }
        let ops_text = &after_header[..ops_end];
        if !complete || fnv1a64(ops_text.as_bytes()) != sum {
            return done(records, true, rest);
        }
        let Ok(parsed) = read_update_workload(ops_text.as_bytes()) else {
            return done(records, true, rest);
        };
        let mut updates = Vec::with_capacity(parsed.len());
        for op in parsed {
            match op {
                UpdateOp::Insert { u, v } => updates.push(EdgeUpdate::Insert(u, v)),
                UpdateOp::Remove { u, v } => updates.push(EdgeUpdate::Remove(u, v)),
                UpdateOp::Query { .. } => return done(records, true, rest),
            }
        }
        if updates.len() != count {
            return done(records, true, rest);
        }
        records.push(WalRecord { epoch, updates });
        rest = &after_header[ops_end..];
    }
}

/// The result of scanning a WAL directory.
#[derive(Debug)]
pub struct WalReplay {
    /// Records with epoch strictly above the requested floor, in order.
    pub records: Vec<WalRecord>,
    /// Whether a torn/corrupt tail was dropped somewhere in the scan.
    pub torn: bool,
}

/// Reads every segment in `dir` in sequence order and returns the records
/// with `epoch > after_epoch`. A torn tail in the **last** segment is the
/// normal crash signature and is silently dropped; `torn` reports it so
/// callers can log.
pub fn replay(dir: &Path, after_epoch: u64) -> Result<WalReplay, StorageError> {
    let mut records = Vec::new();
    let mut torn = false;
    for (_, path) in segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let parsed = parse_segment(&bytes);
        torn |= parsed.torn;
        records.extend(parsed.records.into_iter().filter(|r| r.epoch > after_epoch));
    }
    Ok(WalReplay { records, torn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_graph::VertexId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kreach-wal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn batch(i: u32) -> Vec<EdgeUpdate> {
        vec![
            EdgeUpdate::Insert(VertexId(i), VertexId(i + 1)),
            EdgeUpdate::Remove(VertexId(i), VertexId(i + 2)),
        ]
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::open(&dir).expect("open");
        for e in 1..=5u64 {
            wal.append(e, &batch(e as u32)).expect("append");
        }
        let replay = replay(&dir, 2).expect("replay");
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0].epoch, 3);
        assert_eq!(replay.records[2].updates, batch(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        let mut wal = Wal::open(&dir).expect("open");
        wal.append(1, &batch(1)).expect("append");
        wal.append(2, &batch(2)).expect("append");
        let path = dir.join(segment_name(wal.current_seq()));
        let full = std::fs::read(&path).expect("read");
        // Cut anywhere strictly inside the second record: replay must keep
        // record 1 and drop the tail without erroring.
        let first_len = Wal::render_record(1, &batch(1)).len();
        for cut in first_len + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let r = replay(&dir, 0).expect("replay");
            assert!(r.torn, "cut at {cut} not flagged");
            assert_eq!(r.records.len(), 1, "cut at {cut}");
            assert_eq!(r.records[0].epoch, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_truncates_torn_tail_so_later_acks_survive() {
        // Crash -> restart -> ack -> crash: the record acked after the
        // restart must replay even though the first crash left torn bytes
        // at the segment tail.
        let dir = temp_dir("reopen-torn");
        let mut wal = Wal::open(&dir).expect("open");
        wal.append(1, &batch(1)).expect("append");
        wal.append(2, &batch(2)).expect("append");
        let path = dir.join(segment_name(wal.current_seq()));
        drop(wal);
        let full = std::fs::read(&path).expect("read");
        let first_len = Wal::render_record(1, &batch(1)).len();
        for cut in first_len + 1..full.len() {
            // First crash: tear strictly inside record 2.
            std::fs::write(&path, &full[..cut]).expect("tear");
            // Restart: open must cut the segment back to record 1...
            let mut wal = Wal::open(&dir).expect("reopen");
            assert_eq!(
                std::fs::metadata(&path).expect("meta").len(),
                first_len as u64,
                "cut at {cut} not truncated"
            );
            // ...so this post-restart ack lands where replay can see it.
            wal.append(2, &batch(20)).expect("append after tear");
            drop(wal); // second crash
            let r = replay(&dir, 0).expect("replay");
            assert!(!r.torn, "cut at {cut} left a tear behind");
            assert_eq!(r.records.len(), 2, "cut at {cut}");
            assert_eq!(r.records[0].epoch, 1);
            assert_eq!(r.records[1].updates, batch(20), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_mismatch_stops_replay() {
        let dir = temp_dir("sum");
        let mut wal = Wal::open(&dir).expect("open");
        wal.append(1, &batch(1)).expect("append");
        wal.append(2, &batch(2)).expect("append");
        let path = dir.join(segment_name(wal.current_seq()));
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a digit inside the *second* record's op lines.
        let second_at = Wal::render_record(1, &batch(1)).len();
        let flip = second_at + Wal::render_record(2, &[]).len() + 3;
        bytes[flip] = if bytes[flip] == b'1' { b'2' } else { b'1' };
        std::fs::write(&path, &bytes).expect("write");
        let r = replay(&dir, 0).expect("replay");
        assert!(r.torn);
        assert_eq!(r.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_prune_removes_old_ones() {
        let dir = temp_dir("rotate");
        let mut wal = Wal::open(&dir).expect("open");
        wal.append(1, &batch(1)).expect("append");
        let new_seq = wal.rotate().expect("rotate");
        wal.append(2, &batch(2)).expect("append");
        assert_eq!(segments(&dir).expect("segments").len(), 2);
        let all = replay(&dir, 0).expect("replay");
        assert_eq!(all.records.len(), 2);
        wal.prune(new_seq).expect("prune");
        assert_eq!(segments(&dir).expect("segments").len(), 1);
        let rest = replay(&dir, 0).expect("replay");
        assert_eq!(rest.records.len(), 1);
        assert_eq!(rest.records[0].epoch, 2);
        // Reopening resumes the newest segment.
        let reopened = Wal::open(&dir).expect("reopen");
        assert_eq!(reopened.current_seq(), new_seq);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_reports_sizes_and_stage_timings() {
        let dir = temp_dir("append-info");
        let mut wal = Wal::open(&dir).expect("open");
        assert_eq!(wal.segment_count().expect("count"), 1);
        let info = wal.append(1, &batch(1)).expect("append");
        assert_eq!(info.ops, 2);
        assert_eq!(
            info.bytes,
            Wal::render_record(1, &batch(1)).len() as u64,
            "{info:?}"
        );
        wal.rotate().expect("rotate");
        assert_eq!(wal.segment_count().expect("count"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fsync-failed record (written but never acked) must not replay once
    /// a later append succeeds: the next append heals the tail first.
    #[cfg(any(debug_assertions, feature = "failpoints"))]
    #[test]
    fn failed_appends_self_heal_before_the_next_ack() {
        use crate::fault::FaultIo;
        let dir = temp_dir("heal");
        let io = Arc::new(FaultIo::new(
            "wal.append.fsync=err@2".parse().expect("plan"),
        ));
        let mut wal = Wal::open_with_io(&dir, io).expect("open");
        wal.append(1, &batch(1)).expect("append 1");
        // The record's bytes land but the fsync fails — unacked, yet fully
        // parseable if it were left in place.
        assert!(wal.append(2, &batch(2)).is_err(), "injected fsync fault");
        wal.append(2, &batch(20)).expect("append after heal");
        drop(wal);
        let r = replay(&dir, 0).expect("replay");
        assert!(!r.torn);
        assert_eq!(r.records.len(), 2, "ghost record resurrected");
        assert_eq!(r.records[0].updates, batch(1));
        assert_eq!(r.records[1].updates, batch(20));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Same, across a rotation: rotating away from a dirty segment would
    /// strand the ghost where heal can never reach it.
    #[cfg(any(debug_assertions, feature = "failpoints"))]
    #[test]
    fn rotation_heals_a_dirty_segment_first() {
        use crate::fault::FaultIo;
        let dir = temp_dir("heal-rotate");
        let io = Arc::new(FaultIo::new(
            "wal.append.fsync=err@2".parse().expect("plan"),
        ));
        let mut wal = Wal::open_with_io(&dir, io).expect("open");
        wal.append(1, &batch(1)).expect("append 1");
        assert!(wal.append(2, &batch(2)).is_err(), "injected fsync fault");
        wal.rotate().expect("rotate");
        wal.append(2, &batch(20)).expect("append after rotate");
        drop(wal);
        let r = replay(&dir, 0).expect("replay");
        assert!(!r.torn);
        assert_eq!(r.records.len(), 2, "ghost record resurrected");
        assert_eq!(r.records[1].updates, batch(20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batch_records_round_trip() {
        let dir = temp_dir("empty");
        let mut wal = Wal::open(&dir).expect("open");
        wal.append(7, &[]).expect("append");
        let r = replay(&dir, 0).expect("replay");
        assert!(!r.torn);
        assert_eq!(r.records.len(), 1);
        assert!(r.records[0].updates.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
