//! Durability-path instrumentation shared by `kreach-store` and the server.
//!
//! The WAL and checkpointer live in `kreach-store`, but the server (which
//! renders `/metrics` and `/healthz`) deliberately does not depend on the
//! store. [`DurabilityStats`] is the neutral meeting point: the store owns
//! one, bumps it from `Wal::append`, `Store::finish_checkpoint` and
//! `Store::restore`, and the CLI hands the same `Arc` to the server for
//! rendering. Everything is relaxed atomics — the WAL append path is
//! already fsync-bound, so a few counter bumps are free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::window::bucket_index;

/// Log2 nanosecond histogram over relaxed atomics — the concurrent sibling
/// of the engine's single-writer `LatencyHistogram`, same bucket layout, so
/// both render through the one `PromText::histogram_vec` schema.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation in nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the per-bucket counts (non-cumulative, the
    /// layout `PromText::histogram_vec` expects).
    pub fn bucket_counts(&self) -> [u64; 64] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Live counters over the WAL / checkpoint / restore path; see the module
/// docs for who writes and who reads.
#[derive(Debug, Default)]
pub struct DurabilityStats {
    /// WAL batches appended (one per acked mutation batch).
    pub wal_appends: AtomicU64,
    /// WAL bytes written (record framing included).
    pub wal_bytes: AtomicU64,
    /// WAL operations (individual edge mutations) written.
    pub wal_records: AtomicU64,
    /// Latency of the WAL buffer write (`write_all`), per append.
    pub wal_write: AtomicHistogram,
    /// Latency of the WAL `fsync` (`sync_data`), per append — the
    /// durability floor of every acked mutation.
    pub wal_fsync: AtomicHistogram,
    /// Live WAL segment files on disk (gauge).
    pub wal_segments: AtomicU64,
    /// Checkpoints taken since startup.
    pub checkpoints: AtomicU64,
    /// End-to-end checkpoint latency (rotate + snapshot + write + rename +
    /// dir fsync + manifest + prune).
    pub checkpoint_duration: AtomicHistogram,
    /// Wall-clock milliseconds (Unix epoch) of the last completed
    /// checkpoint; 0 until one lands.
    pub last_checkpoint_unix_millis: AtomicU64,
    /// Epoch the last completed checkpoint captured.
    pub last_checkpoint_epoch: AtomicU64,
    /// Size in bytes of the last completed checkpoint file.
    pub last_checkpoint_bytes: AtomicU64,
    /// WAL batches replayed by restore (startup recovery progress).
    pub replayed_batches: AtomicU64,
    /// WAL operations replayed by restore.
    pub replayed_ops: AtomicU64,
    /// Storage faults injected by the fault-injection io (always 0 in
    /// production; non-zero only under `KREACH_FAILPOINTS`).
    pub faults_injected: AtomicU64,
    /// Checkpoint attempts that failed (and will be retried with backoff).
    pub checkpoint_failures: AtomicU64,
}

impl DurabilityStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks one completed checkpoint: epoch captured, file size, and
    /// end-to-end duration.
    pub fn note_checkpoint(&self, epoch: u64, bytes: u64, duration_nanos: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_duration.record(duration_nanos);
        self.last_checkpoint_epoch.store(epoch, Ordering::Relaxed);
        self.last_checkpoint_bytes.store(bytes, Ordering::Relaxed);
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.last_checkpoint_unix_millis
            .store(now, Ordering::Relaxed);
    }

    /// Seconds since the last completed checkpoint; `None` before the
    /// first one (readiness should treat that as "not yet durable", not as
    /// age zero).
    pub fn checkpoint_age_secs(&self) -> Option<f64> {
        let millis = self.last_checkpoint_unix_millis.load(Ordering::Relaxed);
        if millis == 0 {
            return None;
        }
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(millis);
        Some(now.saturating_sub(millis) as f64 / 1e3)
    }

    /// Epochs acked past the last checkpoint — the WAL replay debt a crash
    /// right now would pay. `engine_epoch` comes from the engine, which
    /// the store does not see.
    pub fn wal_lag(&self, engine_epoch: u64) -> u64 {
        engine_epoch.saturating_sub(self.last_checkpoint_epoch.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_histogram_matches_the_log2_layout() {
        let h = AtomicHistogram::new();
        h.record(0);
        h.record(3); // bucket 2: (2, 4]
        h.record(1024); // bucket 11
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_nanos(), 1027);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[11], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn checkpoint_note_updates_age_epoch_and_lag() {
        let stats = DurabilityStats::new();
        assert_eq!(stats.checkpoint_age_secs(), None);
        assert_eq!(stats.wal_lag(7), 7);
        stats.note_checkpoint(5, 4096, 2_000_000);
        assert_eq!(stats.checkpoints.load(Ordering::Relaxed), 1);
        assert_eq!(stats.last_checkpoint_epoch.load(Ordering::Relaxed), 5);
        assert_eq!(stats.last_checkpoint_bytes.load(Ordering::Relaxed), 4096);
        let age = stats.checkpoint_age_secs().expect("age after checkpoint");
        assert!((0.0..60.0).contains(&age), "{age}");
        assert_eq!(stats.wal_lag(7), 2);
        assert_eq!(stats.wal_lag(5), 0);
        assert_eq!(stats.checkpoint_duration.count(), 1);
    }

    #[test]
    fn wal_counters_accumulate() {
        let stats = DurabilityStats::new();
        stats.wal_appends.fetch_add(1, Ordering::Relaxed);
        stats.wal_bytes.fetch_add(128, Ordering::Relaxed);
        stats.wal_records.fetch_add(3, Ordering::Relaxed);
        stats.wal_write.record(10_000);
        stats.wal_fsync.record(1_000_000);
        stats.wal_segments.store(2, Ordering::Relaxed);
        assert_eq!(stats.wal_appends.load(Ordering::Relaxed), 1);
        assert_eq!(stats.wal_fsync.count(), 1);
        assert_eq!(stats.wal_segments.load(Ordering::Relaxed), 2);
    }
}
