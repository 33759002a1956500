//! Summary statistics for repeated measurements.

/// A nearest-rank percentile together with the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank, i.e. how many observations
    /// the tail estimate rests on.
    pub beyond: usize,
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it (rank `ceil(p/100 · n)`, 1-based). `None` for an
/// empty slice or a `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`), so the benchmark's own spread
/// figures match the ones computed over its output. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Python's formula verbatim: position i·(n+1)/4, the lower index
    // clamped to [1, n-1], then interpolated (or extrapolated) between the
    // two neighbouring samples.
    let at = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_reports_rank_and_count() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).expect("non-empty");
        // ceil(0.99 · 200) = 198 → the 198th smallest sample.
        assert_eq!(p99, Percentile { value: 198.0, samples: 200, beyond: 2 });
        let p50 = percentile(&samples, 50.0).expect("non-empty");
        assert_eq!(p50, Percentile { value: 100.0, samples: 200, beyond: 100 });
        let max = percentile(&samples, 100.0).expect("non-empty");
        assert_eq!((max.value, max.beyond), (200.0, 0));
    }

    #[test]
    fn nearest_rank_percentile_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
        assert_eq!(percentile(&[1.0], 101.0), None);
        let one = percentile(&[7.5], 99.0).expect("non-empty");
        assert_eq!(one, Percentile { value: 7.5, samples: 1, beyond: 0 });
        // Small samples never interpolate: p99 of 10 values is the maximum.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0).expect("non-empty").value, 9.0);
        // 1148 jobs leave eleven samples beyond the p99 rank.
        let jobs: Vec<f64> = (0..1148).map(f64::from).collect();
        assert_eq!(percentile(&jobs, 99.0).expect("non-empty").beyond, 11);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 2, 7], n=4) == [1.5, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 2.0, 7.0]), Some((1.5, 8.0)));
    }
}
