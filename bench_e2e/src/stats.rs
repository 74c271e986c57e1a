//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw nanosecond samples and percentiles are
//! selected directly from the sorted samples (nearest rank), so a reported
//! p50 or p99 is a latency some request actually saw, at full resolution —
//! not the edge of a power-of-two histogram bucket. Run-to-run summaries use
//! the same quartile rule as Python's `statistics.quantiles(values, n=4)`,
//! so a spread printed here matches one computed from the result files.

/// One percentile selected from raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample.
    pub value: u64,
    /// How many samples the selection was made from.
    pub samples: usize,
    /// How many samples lie strictly beyond the selected rank.
    pub beyond: usize,
}

/// Fewest samples a reported percentile must have beyond it in a full run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending):
/// the sample at rank `ceil(p/100 · n)`. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of `values` (mean of the two middle values for an even count),
/// as Python's `statistics.median`. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread a
/// metric's bound is judged against. `None` with fewer than two values or a
/// zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50, 100, 50));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99, 1));
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100);
    }

    #[test]
    fn percentile_selects_a_real_sample_not_a_bucket_edge() {
        // A log2 histogram would report both of these as the same bucket.
        let v = [65_500u64, 65_600, 65_700, 120_000];
        assert_eq!(percentile(&v, 50.0).unwrap().value, 65_600);
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (120_000, 0));
    }

    #[test]
    fn tiny_and_empty_inputs() {
        assert_eq!(percentile(&[], 50.0), None);
        let one = percentile(&[7], 99.0).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7, 1, 0));
        // p99 needs 1000 samples before ten lie beyond it.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&v, 99.0).unwrap().beyond, MIN_BEYOND);
        let v: Vec<u64> = (0..999).collect();
        assert!(percentile(&v, 99.0).unwrap().beyond < MIN_BEYOND);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the clamp
        // extrapolates past the ends for tiny inputs.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 40.0, 30.0, 20.0, 10.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[4.0, 4.0, 4.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
