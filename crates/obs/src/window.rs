//! Lock-light sliding time windows over serving telemetry.
//!
//! Cumulative-since-boot counters answer "how much has happened"; operating
//! a serving system needs "how much is happening *now*". [`WindowStats`] is
//! a ring of per-second slots, each slot a bundle of relaxed atomics. A
//! recording thread locates the slot for the current second, lazily
//! re-stamps it (zeroing the counters left over from one ring revolution
//! ago), and bumps counters — no locks anywhere on the hot path. A reader
//! merges the slots stamped inside the requested window into a
//! [`WindowSnapshot`] of qps, latency quantiles, shed-rate and the
//! per-case query mix.
//!
//! ## Accuracy contract
//!
//! This is telemetry, not accounting. Two writers racing across a second
//! boundary can lose a handful of increments while the loser of the
//! re-stamp `swap` zeroes the slot; a reader can observe a slot mid-update.
//! Both effects are bounded to one slot and one scrape — acceptable for
//! rate-of-change dashboards, which is all the windows feed. The monotone
//! `_total` counters remain the source of truth.

use crate::observe::{CLASSES, CLASS_LABELS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of per-second slots in the ring. Must exceed the longest
/// supported window (60s) so a window's slots are never recycled while
/// still inside the window.
const SLOTS: usize = 64;

/// Latency bucket count, matching the engine's log2 nanosecond histogram.
const BUCKETS: usize = 64;

/// The window lengths (seconds) exported on `/metrics`, `/stats`, and the
/// `--stats-interval` ticker.
pub const WINDOW_SECS: [u64; 3] = [1, 10, 60];

/// The log2 bucket index for a nanosecond latency — bucket `i` covers
/// `(2^(i-1), 2^i]` nanoseconds, same layout as the engine's histogram and
/// the `/metrics` `le` buckets.
#[inline]
pub fn bucket_index(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        ((64 - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// One second of telemetry. All counters relaxed; see the module docs for
/// the accuracy contract.
struct Slot {
    /// `second + 1` this slot currently holds data for (0 = never used).
    stamp: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    queries: AtomicU64,
    by_case: [AtomicU64; CLASSES],
    lat_buckets: [AtomicU64; BUCKETS],
    lat_sum_nanos: AtomicU64,
    lat_count: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            by_case: std::array::from_fn(|_| AtomicU64::new(0)),
            lat_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            lat_sum_nanos: AtomicU64::new(0),
            lat_count: AtomicU64::new(0),
        }
    }

    fn zero(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        for c in &self.by_case {
            c.store(0, Ordering::Relaxed);
        }
        for b in &self.lat_buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.lat_sum_nanos.store(0, Ordering::Relaxed);
        self.lat_count.store(0, Ordering::Relaxed);
    }
}

/// A shared ring of per-second telemetry slots; see the module docs.
pub struct WindowStats {
    started: Instant,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for WindowStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowStats")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Default for WindowStats {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowStats {
    /// A fresh ring; the clock starts now.
    pub fn new() -> Self {
        WindowStats {
            started: Instant::now(),
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
        }
    }

    /// Seconds since the ring started (the slot clock).
    fn now_sec(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The live slot for second `sec`, re-stamped (and zeroed) if it still
    /// holds data from a previous ring revolution. Exactly one of the
    /// racing re-stampers zeroes; the others may lose an increment into the
    /// zeroed slot (bounded loss, see module docs).
    fn slot(&self, sec: u64) -> &Slot {
        let slot = &self.slots[(sec as usize) % SLOTS];
        let want = sec + 1;
        if slot.stamp.load(Ordering::Relaxed) != want
            && slot.stamp.swap(want, Ordering::Relaxed) != want
        {
            slot.zero();
        }
        slot
    }

    /// Records one served request's end-to-end latency (the server feed).
    pub fn record_request(&self, latency_nanos: u64) {
        let slot = self.slot(self.now_sec());
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.lat_buckets[bucket_index(latency_nanos)].fetch_add(1, Ordering::Relaxed);
        slot.lat_sum_nanos
            .fetch_add(latency_nanos, Ordering::Relaxed);
        slot.lat_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection shed by admission control.
    pub fn record_shed(&self) {
        self.slot(self.now_sec())
            .shed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch of answered queries (the engine feed): per-class
    /// counts indexing [`CLASS_LABELS`].
    pub fn record_queries(&self, by_case: &[u64; CLASSES]) {
        let slot = self.slot(self.now_sec());
        let mut total = 0u64;
        for (acc, &n) in slot.by_case.iter().zip(by_case) {
            if n > 0 {
                acc.fetch_add(n, Ordering::Relaxed);
            }
            total += n;
        }
        slot.queries.fetch_add(total, Ordering::Relaxed);
    }

    /// Merges the last `window_secs` seconds (current partial second
    /// included) into a snapshot. `window_secs` is clamped to the ring
    /// length minus one.
    pub fn snapshot(&self, window_secs: u64) -> WindowSnapshot {
        let window_secs = window_secs.clamp(1, SLOTS as u64 - 1);
        let now = self.now_sec();
        let oldest = (now + 1).saturating_sub(window_secs); // inclusive
        let mut snap = WindowSnapshot::empty(window_secs);
        let mut buckets = [0u64; BUCKETS];
        let mut lat_sum = 0u64;
        let mut lat_count = 0u64;
        for sec in oldest..=now {
            let slot = &self.slots[(sec as usize) % SLOTS];
            if slot.stamp.load(Ordering::Relaxed) != sec + 1 {
                continue; // never written, or recycled past this window
            }
            snap.requests += slot.requests.load(Ordering::Relaxed);
            snap.shed += slot.shed.load(Ordering::Relaxed);
            snap.queries += slot.queries.load(Ordering::Relaxed);
            for (acc, case) in snap.by_case.iter_mut().zip(&slot.by_case) {
                *acc += case.load(Ordering::Relaxed);
            }
            for (acc, b) in buckets.iter_mut().zip(&slot.lat_buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
            lat_sum += slot.lat_sum_nanos.load(Ordering::Relaxed);
            lat_count += slot.lat_count.load(Ordering::Relaxed);
        }
        snap.p50_micros = quantile_micros(&buckets, lat_count, 0.50);
        snap.p99_micros = quantile_micros(&buckets, lat_count, 0.99);
        snap.mean_micros = if lat_count == 0 {
            0.0
        } else {
            lat_sum as f64 / lat_count as f64 / 1e3
        };
        snap
    }
}

/// The bucket-upper-bound quantile (microseconds) of a merged log2 bucket
/// array — same resolution as the engine's histogram quantiles.
fn quantile_micros(buckets: &[u64; BUCKETS], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return 2f64.powi(i as i32) / 1e3;
        }
    }
    2f64.powi(BUCKETS as i32 - 1) / 1e3
}

/// A merged view of the last N seconds; produced by
/// [`WindowStats::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// The window length this snapshot merged, in seconds.
    pub window_secs: u64,
    /// Requests served (HTTP + line ops) inside the window.
    pub requests: u64,
    /// Connections shed by admission control inside the window.
    pub shed: u64,
    /// Reachability queries answered inside the window.
    pub queries: u64,
    /// Queries per class (indexing [`CLASS_LABELS`]) inside the window.
    pub by_case: [u64; CLASSES],
    /// Median request latency in microseconds (bucket upper bound).
    pub p50_micros: f64,
    /// 99th-percentile request latency in microseconds (bucket upper
    /// bound).
    pub p99_micros: f64,
    /// Mean request latency in microseconds.
    pub mean_micros: f64,
}

impl WindowSnapshot {
    fn empty(window_secs: u64) -> WindowSnapshot {
        WindowSnapshot {
            window_secs,
            requests: 0,
            shed: 0,
            queries: 0,
            by_case: [0; CLASSES],
            p50_micros: 0.0,
            p99_micros: 0.0,
            mean_micros: 0.0,
        }
    }

    /// Requests per second over the window.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.window_secs as f64
    }

    /// Queries per second over the window.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.window_secs as f64
    }

    /// Shed connections / (served + shed) inside the window (0 when idle).
    pub fn shed_rate(&self) -> f64 {
        let offered = self.requests + self.shed;
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }

    /// Fraction of windowed queries in class `i` (indexing
    /// [`CLASS_LABELS`]; 0 when idle).
    pub fn case_share(&self, i: usize) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.by_case[i] as f64 / self.queries as f64
        }
    }

    /// The snapshot as one JSON object (hand-rolled; the build is
    /// hermetic).
    pub fn to_json(&self) -> String {
        let mix = CLASS_LABELS
            .iter()
            .zip(&self.by_case)
            .map(|(label, n)| format!("\"{label}\":{n}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"window_secs\":{},\"requests\":{},\"shed\":{},\"queries\":{},",
                "\"rps\":{:.1},\"qps\":{:.1},",
                "\"shed_rate\":{:.4},",
                "\"p50_micros\":{:.3},\"p99_micros\":{:.3},\"mean_micros\":{:.3},",
                "\"by_case\":{{{}}}}}"
            ),
            self.window_secs,
            self.requests,
            self.shed,
            self.queries,
            self.rps(),
            self.qps(),
            self.shed_rate(),
            self.p50_micros,
            self.p99_micros,
            self.mean_micros,
            mix,
        )
    }

    /// A one-line human rendering for the `--stats-interval` stderr ticker.
    pub fn ticker_line(&self) -> String {
        format!(
            "window[{}s] rps={:.1} qps={:.1} p50={:.0}us p99={:.0}us shed={:.0}%",
            self.window_secs,
            self.rps(),
            self.qps(),
            self.p50_micros,
            self.p99_micros,
            self.shed_rate() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_the_log2_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn requests_land_in_the_current_window() {
        let w = WindowStats::new();
        w.record_request(1_000); // 1 µs
        w.record_request(1_000_000); // 1 ms
        w.record_shed();
        let snap = w.snapshot(10);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.shed, 1);
        assert!(snap.p50_micros > 0.0);
        assert!(snap.p99_micros >= snap.p50_micros);
        assert!((snap.shed_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn query_feed_accumulates_cases() {
        let w = WindowStats::new();
        let mut by_case = [0u64; CLASSES];
        by_case[0] = 3;
        by_case[3] = 1;
        w.record_queries(&by_case);
        let snap = w.snapshot(60);
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.by_case[0], 3);
        assert_eq!(snap.by_case[3], 1);
        assert!((snap.case_share(0) - 0.75).abs() < 1e-9);
        assert!(snap.qps() > 0.0);
    }

    #[test]
    fn stale_slots_do_not_leak_into_snapshots() {
        let w = WindowStats::new();
        w.record_request(5_000);
        // A 1-second window taken "later" must exclude second 0's slot.
        // Simulate by snapshotting through the internals: second 0 is
        // stamped, but a window starting at second 2 skips it.
        let snap = w.snapshot(1);
        // Still within second 0 in practice, so the request is visible;
        // the slot-stamp guard is what this exercises.
        assert!(snap.requests <= 1);
        // Recycling: force a slot whose stamp is from a previous
        // revolution to be zeroed on reuse.
        let slot = &w.slots[0];
        slot.stamp.store(1, Ordering::Relaxed);
        slot.requests.store(99, Ordering::Relaxed);
        let fresh = w.slot(SLOTS as u64); // maps to slots[0], stamp differs
        assert_eq!(fresh.requests.load(Ordering::Relaxed), 0);
        assert_eq!(fresh.stamp.load(Ordering::Relaxed), SLOTS as u64 + 1);
    }

    #[test]
    fn quantiles_come_from_merged_buckets() {
        let mut buckets = [0u64; BUCKETS];
        buckets[10] = 9; // (512, 1024] ns
        buckets[20] = 1; // ~1 ms
        assert_eq!(quantile_micros(&buckets, 10, 0.50), 1.024);
        assert!((quantile_micros(&buckets, 10, 0.99) - 1048.576).abs() < 1e-6);
        assert_eq!(quantile_micros(&buckets, 0, 0.5), 0.0);
    }

    #[test]
    fn snapshot_renders_json_and_ticker_line() {
        let w = WindowStats::new();
        w.record_request(2_000);
        let snap = w.snapshot(10);
        let json = snap.to_json();
        for field in [
            "\"window_secs\":10",
            "\"requests\":1",
            "\"p99_micros\"",
            "\"by_case\":{\"case1\":0",
            "\"shed_rate\":0.0000",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let line = snap.ticker_line();
        assert!(line.starts_with("window[10s] "), "{line}");
        assert!(line.contains("p99="), "{line}");
    }
}
