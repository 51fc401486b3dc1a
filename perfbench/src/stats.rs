//! Order statistics over raw samples.
//!
//! Percentiles are exact (nearest rank over every sample), never bucket
//! edges, and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie above it: a p99 of 200 samples is the
//! second-slowest request, not a tail statistic.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending): the
/// smallest sample with at least `q` of the samples at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(q > 0.0 && q < 1.0, "percentile rank {q} out of (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    let n = sorted.len();
    // ceil(q * n), computed in integers for the exact ranks tests pin.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive integers (0.0 for an empty slice).
pub fn geomean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| (v as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Sorts a sample vector in place for [`percentile`].
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // Odd count: rank ceil(0.5 * 21) = 11.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(11.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        // rank 90 leaves 9 above it.
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }

    #[test]
    fn percentile_is_a_sample_not_a_bucket_edge() {
        let mut v = vec![2512.0, 97.0, 133.0, 101.0, 99.0];
        v.extend(std::iter::repeat_n(100.0, 30));
        sort(&mut v);
        let p50 = percentile(&v, 0.5).expect("35 samples support p50");
        assert!(v.contains(&p50));
        assert_eq!(p50, 100.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[2, 8]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[10, 10, 10]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
