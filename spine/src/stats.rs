//! Order statistics used by every report: medians, quartiles, the
//! percentile rule, and the run-to-run spread the acceptance rule is
//! written in.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so an absent phase prints a visible zero
/// instead of poisoning the JSON with NaN.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values.iter().copied());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `values` in ascending order.
pub fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the exclusive method — the numbers Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance rule of the benchmark is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values.iter().copied());
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median: the spread a metric's
/// bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The value at quantile `q` (0..=1) of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a sample of `n` latencies may report: "the highest
/// percentile with at least ten samples beyond it". Returns the quantile
/// (0.5, 0.9, 0.99, 0.999, …), never below the median.
pub fn highest_supported_quantile(n: usize) -> f64 {
    let mut best = 0.5;
    // (quantile, samples beyond it per ten thousand): integer arithmetic,
    // so 100 samples support p90 exactly and 99 do not.
    for (q, beyond_per_10k) in [(0.9, 1000), (0.99, 100), (0.999, 10), (0.9999, 1)] {
        if n * beyond_per_10k / 10_000 >= 10 {
            best = q;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 needs 1000 samples (10 beyond), p99.9 needs 10_000.
        assert_eq!(highest_supported_quantile(19), 0.5);
        assert_eq!(highest_supported_quantile(99), 0.5);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(999), 0.9);
        assert_eq!(highest_supported_quantile(1_000), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
    }

    #[test]
    fn quantile_sorted_picks_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
    }
}
