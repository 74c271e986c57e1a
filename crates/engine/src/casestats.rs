//! Per-case query accounting: the live Table-8 breakdown.
//!
//! Every query the engine serves is classified by the hot path into one of
//! [`CLASSES`] classes — Algorithm-2 cases 1–4, BFS fallback, or unknown —
//! plus a [`Resolution`](kreach_obs::observe::Resolution) saying *how* the
//! answer was produced (dense bitset probe, sparse galloping merge, BFS,
//! other). The engine tallies each target group from one
//! [`QueryObservation`] into a per-batch [`CaseTally`] and merges that
//! into its lifetime totals once per batch, so the hot path never takes a
//! lock per query.
//!
//! The invariant consumers rely on (and `GET /metrics` exposes): the class
//! counts always sum to the number of served queries.

use crate::histogram::LatencyHistogram;
use kreach_obs::observe::{
    QueryObservation, CLASSES, CLASS_LABELS, RESOLUTIONS, RESOLUTION_LABELS,
};
use kreach_obs::WindowStats;

/// Per-class query counts, latency histograms, and resolution counters.
#[derive(Debug, Clone)]
pub struct CaseTally {
    counts: [u64; CLASSES],
    hists: [LatencyHistogram; CLASSES],
    resolutions: [u64; RESOLUTIONS],
    dense_probes: u64,
    sparse_gallops: u64,
    batched_groups: u64,
    batched_queries: u64,
}

impl Default for CaseTally {
    fn default() -> Self {
        Self::new()
    }
}

impl CaseTally {
    /// An empty tally.
    pub fn new() -> CaseTally {
        CaseTally {
            counts: [0; CLASSES],
            hists: std::array::from_fn(|_| LatencyHistogram::new()),
            resolutions: [0; RESOLUTIONS],
            dense_probes: 0,
            sparse_gallops: 0,
            batched_groups: 0,
            batched_queries: 0,
        }
    }

    /// Records `queries` served queries answered by one backend call: each
    /// under its class ([`QueryObservation::class_counts`]) with latency
    /// `nanos`, all under the call's resolution, and the call's probe
    /// counts once.
    pub fn observe(&mut self, obs: &QueryObservation, queries: u64, nanos: u64) {
        for (class, n) in obs.class_counts(queries).into_iter().enumerate() {
            self.counts[class] += n;
            self.hists[class].record_n(nanos, n);
        }
        self.resolutions[obs.resolution.index()] += queries;
        self.dense_probes += obs.dense_probes;
        self.sparse_gallops += obs.sparse_gallops;
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &CaseTally) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.hists.iter_mut().zip(other.hists.iter()) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.resolutions.iter_mut().zip(other.resolutions.iter()) {
            *mine += theirs;
        }
        self.dense_probes += other.dense_probes;
        self.sparse_gallops += other.sparse_gallops;
        self.batched_groups += other.batched_groups;
        self.batched_queries += other.batched_queries;
    }

    /// Records one target-grouped dispatch of `queries` queries (the
    /// per-query classes/latencies still arrive through
    /// [`CaseTally::observe`] — these counters only say how much of the
    /// traffic went through the batched kernel rather than one-at-a-time).
    pub fn note_batched_group(&mut self, queries: u64) {
        self.batched_groups += 1;
        self.batched_queries += queries;
    }

    /// Query counts per class, index-aligned with [`CLASS_LABELS`].
    pub fn counts(&self) -> &[u64; CLASSES] {
        &self.counts
    }

    /// Feeds this tally's per-case counts into a rolling window. Call once
    /// per *batch* tally, never with lifetime totals — the window computes
    /// per-second rates by differencing what lands in each second's slot.
    pub fn feed_window(&self, windows: &WindowStats) {
        windows.record_queries(&self.counts);
    }

    /// Latency histograms per class, index-aligned with [`CLASS_LABELS`].
    pub fn histograms(&self) -> &[LatencyHistogram; CLASSES] {
        &self.hists
    }

    /// Query counts per resolution, index-aligned with
    /// [`RESOLUTION_LABELS`].
    pub fn resolutions(&self) -> &[u64; RESOLUTIONS] {
        &self.resolutions
    }

    /// Total dense bitset words probed across all observed queries.
    pub fn dense_probes(&self) -> u64 {
        self.dense_probes
    }

    /// Total sparse galloping intersections across all observed queries.
    pub fn sparse_gallops(&self) -> u64 {
        self.sparse_gallops
    }

    /// Target groups answered through the batched kernel.
    pub fn batched_groups(&self) -> u64 {
        self.batched_groups
    }

    /// Queries answered through the batched kernel (each also counted in the
    /// per-class totals).
    pub fn batched_queries(&self) -> u64 {
        self.batched_queries
    }

    /// Total observed queries (the sum of the per-class counts — which by
    /// construction also equals the sum of the per-resolution counts).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(label, count)` rows for every non-empty class, in label order.
    pub fn class_rows(&self) -> Vec<(&'static str, u64)> {
        CLASS_LABELS
            .iter()
            .zip(self.counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&label, &n)| (label, n))
            .collect()
    }

    /// `(label, count)` rows for every non-empty resolution, in label order.
    pub fn resolution_rows(&self) -> Vec<(&'static str, u64)> {
        RESOLUTION_LABELS
            .iter()
            .zip(self.resolutions.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&label, &n)| (label, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreach_obs::observe::{Resolution, CASES};

    /// One backend call that noted `case` (1–4) for every query, or no case
    /// at all for `case == 0`.
    fn obs(case: u8, queries: u64, resolution: Resolution, dense: u64) -> QueryObservation {
        let mut cases = [0; CASES];
        if case > 0 {
            cases[case as usize - 1] = queries;
        }
        QueryObservation {
            cases,
            resolution,
            dense_probes: dense,
            sparse_gallops: queries % 3,
        }
    }

    #[test]
    fn tally_sums_match_total_across_classes_and_resolutions() {
        let mut t = CaseTally::new();
        t.observe(&obs(1, 1, Resolution::DenseBitset, 3), 1, 100);
        t.observe(&obs(2, 2, Resolution::SparseGallop, 0), 2, 200);
        t.observe(&obs(4, 1, Resolution::DenseBitset, 1), 1, 300);
        t.observe(&obs(1, 1, Resolution::Other, 0), 1, 50);
        t.observe(&obs(0, 1, Resolution::BfsFallback, 0), 1, 5_000);
        assert_eq!(t.total(), 6);
        assert_eq!(t.counts().iter().sum::<u64>(), 6);
        assert_eq!(t.resolutions().iter().sum::<u64>(), 6);
        // A case-attributed query without probes counts under case1, not
        // unknown.
        assert_eq!(t.counts()[0], 2);
        assert_eq!(t.counts()[1], 2);
        assert_eq!(t.counts()[4], 1, "bfs fallback");
        assert_eq!(t.dense_probes(), 4);
        assert_eq!(t.sparse_gallops(), 6);
        // Histogram counts line up with class counts.
        let hist_total: u64 = t.histograms().iter().map(|h| h.count()).sum();
        assert_eq!(hist_total, 6);
        assert_eq!(t.histograms()[1].sum_nanos(), 400);
    }

    #[test]
    fn merge_equals_observing_everything_in_one() {
        let mut a = CaseTally::new();
        let mut b = CaseTally::new();
        let mut combined = CaseTally::new();
        for i in 0..100u64 {
            let queries = i % 4 + 1;
            let o = obs((i % 5) as u8, queries, Resolution::SparseGallop, i % 2);
            let nanos = i * 17;
            if i % 2 == 0 {
                a.observe(&o, queries, nanos);
            } else {
                b.observe(&o, queries, nanos);
            }
            combined.observe(&o, queries, nanos);
        }
        a.merge(&b);
        assert_eq!(a.counts(), combined.counts());
        assert_eq!(a.resolutions(), combined.resolutions());
        assert_eq!(a.dense_probes(), combined.dense_probes());
        assert_eq!(a.sparse_gallops(), combined.sparse_gallops());
        assert_eq!(a.total(), 250);
        for (ha, hc) in a.histograms().iter().zip(combined.histograms().iter()) {
            assert_eq!(ha.count(), hc.count());
            assert_eq!(ha.sum_nanos(), hc.sum_nanos());
        }
    }

    #[test]
    fn batched_counters_ride_through_merge() {
        let mut a = CaseTally::new();
        a.note_batched_group(5);
        a.note_batched_group(3);
        let mut b = CaseTally::new();
        b.note_batched_group(2);
        a.merge(&b);
        assert_eq!(a.batched_groups(), 3);
        assert_eq!(a.batched_queries(), 10);
        // Grouping is bookkeeping about *how* queries were dispatched; the
        // class-sum invariant is carried by observe() alone.
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn rows_skip_empty_classes() {
        let mut t = CaseTally::new();
        t.observe(&obs(3, 1, Resolution::DenseBitset, 1), 1, 10);
        assert_eq!(t.class_rows(), vec![("case3", 1)]);
        assert_eq!(t.resolution_rows(), vec![("dense_bitset", 1)]);
        let empty = CaseTally::new();
        assert!(empty.class_rows().is_empty());
        assert_eq!(empty.total(), 0);
    }
}
