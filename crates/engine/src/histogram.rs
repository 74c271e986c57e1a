//! Power-of-two latency histograms.
//!
//! Per-query timings are recorded into log₂-spaced buckets: bucket `i`
//! covers `[2^(i-1), 2^i)` nanoseconds. That gives a worst-case quantile
//! error of 2× across a 0 ns – 9 s range with 64 fixed counters — no
//! allocation on the hot path and O(1) merging of per-thread histograms,
//! which is all a serving report (p50/p99) needs.

const BUCKETS: usize = 64;

/// A mergeable histogram of latencies in nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    #[inline]
    fn bucket_of(nanos: u64) -> usize {
        // 0 → bucket 0; otherwise 1 + floor(log2(n)), clamped into range.
        if nanos == 0 {
            0
        } else {
            ((64 - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Records one observation. Observations beyond the top bucket's range
    /// saturate into it, and the running sum saturates at `u64::MAX` rather
    /// than wrapping, so a hostile duration can never corrupt the totals.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` observations of `nanos` each, as `n` calls of
    /// [`LatencyHistogram::record`] would.
    #[inline]
    pub fn record_n(&mut self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(nanos)] += n;
        self.count += n;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos.saturating_mul(n));
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket counts; bucket `i` covers `(2^(i-1), 2^i]` nanoseconds
    /// (bucket 0 holds zero-duration observations). This is the raw series
    /// behind the Prometheus histogram exposition.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Sum of all recorded observations in nanoseconds (saturating).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }

    /// Largest recorded observation in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// The `q`-quantile in nanoseconds, reported as the upper bound of the
    /// bucket containing it (so accurate to within 2×). Returns 0 when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, capped by the true maximum.
                let upper = if i == 0 { 1 } else { 1u64 << i };
                return upper.min(self.max_nanos.max(1));
            }
        }
        self.max_nanos
    }

    /// Median latency in microseconds.
    pub fn p50_micros(&self) -> f64 {
        self.quantile_nanos(0.50) as f64 / 1e3
    }

    /// 90th-percentile latency in microseconds.
    pub fn p90_micros(&self) -> f64 {
        self.quantile_nanos(0.90) as f64 / 1e3
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_micros(&self) -> f64 {
        self.quantile_nanos(0.99) as f64 / 1e3
    }

    /// 99.9th-percentile latency in microseconds.
    pub fn p999_micros(&self) -> f64 {
        self.quantile_nanos(0.999) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_nanos(0.5), 0);
        assert_eq!(h.mean_nanos(), 0.0);
        assert_eq!(h.max_nanos(), 0);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_the_true_value_within_2x() {
        let mut h = LatencyHistogram::new();
        for nanos in 1..=1000u64 {
            h.record(nanos);
        }
        let p50 = h.quantile_nanos(0.5);
        // True median 500; bucket upper bound must be within [500, 1000].
        assert!((500..=1024).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_nanos(0.99);
        assert!((990..=1024).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile_nanos(1.0), 1000.min(h.max_nanos()));
        assert_eq!(h.count(), 1000);
        assert!((h.mean_nanos() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_p50_p99_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.p50_micros(), 0.0);
        assert_eq!(h.p99_micros(), 0.0);
        assert_eq!(h.quantile_nanos(0.99), 0);
        assert_eq!(h.quantile_nanos(1.0), 0);
    }

    #[test]
    fn single_sample_p50_and_p99_report_that_sample() {
        let mut h = LatencyHistogram::new();
        h.record(5_000); // 5 µs
        assert_eq!(h.count(), 1);
        // Every quantile of a one-sample histogram is that sample (the bucket
        // upper bound is capped by the true maximum).
        assert_eq!(h.quantile_nanos(0.0), 5_000);
        assert_eq!(h.quantile_nanos(0.5), 5_000);
        assert_eq!(h.quantile_nanos(0.99), 5_000);
        assert_eq!(h.p50_micros(), 5.0);
        assert_eq!(h.p99_micros(), 5.0);
        assert_eq!(h.mean_nanos(), 5_000.0);
    }

    #[test]
    fn all_samples_in_one_bucket_collapse_p50_and_p99() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1_000 {
            h.record(700); // all land in bucket [512, 1024)
        }
        assert_eq!(h.quantile_nanos(0.5), h.quantile_nanos(0.99));
        // The cap by max_nanos makes the reported value exact here.
        assert_eq!(h.quantile_nanos(0.5), 700);
        assert_eq!(h.p50_micros(), h.p99_micros());
        // Zero-valued observations stay in bucket 0 and report 0 µs... but a
        // zero-only histogram still has count > 0 and quantile 1 (bucket 0's
        // upper bound) capped by max(1).
        let mut zeros = LatencyHistogram::new();
        zeros.record(0);
        assert_eq!(zeros.quantile_nanos(0.5), 1);
        assert_eq!(zeros.max_nanos(), 0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for i in 0..500u64 {
            let nanos = i * 37 % 10_000;
            if i % 2 == 0 {
                a.record(nanos);
            } else {
                b.record(nanos);
            }
            combined.record(nanos);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.max_nanos(), combined.max_nanos());
        assert_eq!(a.quantile_nanos(0.5), combined.quantile_nanos(0.5));
        assert_eq!(a.quantile_nanos(0.99), combined.quantile_nanos(0.99));
        assert!((a.mean_nanos() - combined.mean_nanos()).abs() < 1e-9);
    }

    #[test]
    fn p90_and_p999_sit_between_their_neighbours() {
        let mut h = LatencyHistogram::new();
        // 1 ns .. 100 000 ns uniformly: quantiles must be ordered and each
        // within 2× of the true value.
        for nanos in 1..=100_000u64 {
            h.record(nanos);
        }
        let p50 = h.quantile_nanos(0.50);
        let p90 = h.quantile_nanos(0.90);
        let p99 = h.quantile_nanos(0.99);
        let p999 = h.quantile_nanos(0.999);
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= p999,
            "{p50} {p90} {p99} {p999}"
        );
        assert!((90_000..=180_000).contains(&p90), "p90 = {p90}");
        assert!((99_900..=200_000).contains(&p999), "p999 = {p999}");
        assert_eq!(h.p90_micros(), p90 as f64 / 1e3);
        assert_eq!(h.p999_micros(), p999 as f64 / 1e3);
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let mut h = LatencyHistogram::new();
        // Two pathological observations: both land in the top bucket, the
        // sum saturates instead of wrapping, and every quantile is capped by
        // the recorded maximum (no `1 << 64` style overflow).
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 2);
        assert_eq!(h.sum_nanos(), u64::MAX);
        assert_eq!(h.max_nanos(), u64::MAX);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile_nanos(q);
            assert!(v >= 1u64 << 62, "q={q} v={v}");
        }
        // Merging two saturated histograms also saturates.
        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.sum_nanos(), u64::MAX);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn bucket_counts_expose_the_full_series() {
        let mut h = LatencyHistogram::new();
        h.record(0); // bucket 0
        h.record(3); // bucket 2
        h.record(700); // bucket 10
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), BUCKETS);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[10], 1);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(h.sum_nanos(), 703);
    }

    #[test]
    fn micro_helpers_scale_to_microseconds() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(2_000); // 2 µs
        }
        assert!(
            h.p50_micros() >= 2.0 && h.p50_micros() <= 4.1,
            "p50 {}",
            h.p50_micros()
        );
        assert!(
            h.p99_micros() >= 2.0 && h.p99_micros() <= 4.1,
            "p99 {}",
            h.p99_micros()
        );
    }
}
