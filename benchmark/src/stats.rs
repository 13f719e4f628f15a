//! Order statistics over run samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`): the smallest sample
/// with at least that share of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    sorted(samples)[rank - 1]
}

/// [`percentile`], or `None` unless at least ten samples lie beyond it:
/// an upper percentile resting on fewer is one or two outliers, not a
/// distribution.
pub fn percentile_with_ten_beyond(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (n >= rank + 10).then(|| percentile(samples, p))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them. Needs at least two samples.
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Run-to-run spread as a share of the median: the distance between the
/// quartiles for four or more samples, the full range for two or three,
/// and 0 for a single sample (no spread can be seen).
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = if samples.len() >= 4 {
        quartiles(samples)
    } else {
        let v = sorted(samples);
        (v[0], v[v.len() - 1])
    };
    (hi - lo) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.10), 10.0);
        assert_eq!(percentile(&v, 0.101), 11.0);
        // Ten samples or fewer: the lowest decile is the minimum.
        assert_eq!(percentile(&v[..10], 0.10), 91.0);
        assert_eq!(percentile(&[3.0, 2.0, 5.0], 0.10), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn upper_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90 with exactly ten samples beyond it.
        assert_eq!(percentile_with_ten_beyond(&v, 0.90), Some(90.0));
        assert_eq!(percentile_with_ten_beyond(&v, 0.95), None);
        assert_eq!(percentile_with_ten_beyond(&v[..99], 0.90), None);
        assert_eq!(percentile_with_ten_beyond(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile_with_ten_beyond(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), (3.5, 31.0));
        assert!((spread(&v) - 27.5 / 13.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
    }

    #[test]
    fn spread_of_few_samples_is_the_range() {
        assert_eq!(spread(&[10.0]), 0.0);
        assert_eq!(spread(&[9.0, 11.0]), 0.2);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
    }
}
