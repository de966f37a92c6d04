//! Order statistics and aggregation shared by the run, noise and compare
//! subcommands.

/// Median of `values` (mean of the two middle values for an even count).
/// Empty input reads 0 so a metric that was never sampled is visible as
/// such rather than as a panic.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 90 % of 130 at rank 117, not 117.00000000000001.
    let rank = (p * v.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it (choosing-metrics §1), or `None` under 20 samples,
/// where even the median has fewer than ten on either side.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so the rank is exact integer arithmetic.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n.saturating_sub((per_mille * n).div_ceil(1000)) >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Σ numerators ÷ Σ denominators: the aggregate of per-cell ratios that
/// weights every cell by its size, unlike a mean of ratios.
pub fn ratio_of_sums(num: &[f64], den: &[f64]) -> f64 {
    let d: f64 = den.iter().sum();
    if d == 0.0 {
        0.0
    } else {
        num.iter().sum::<f64>() / d
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// spreads computed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let many: Vec<f64> = (1..=130).map(f64::from).collect();
        assert_eq!(percentile(&many, 90.0), 117.0);
        // Six cells: p90 is the slowest, p50 the third.
        assert_eq!(percentile(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 90.0), 6.0);
        assert_eq!(percentile(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 50.0), 3.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn ratio_of_sums_weights_by_size() {
        // One big slow cell and one small fast one: the mean of ratios
        // would read 55, the aggregate reads what the whole pass cost.
        let committed = [1000.0, 10.0];
        let wall = [10.0, 0.1];
        let r = ratio_of_sums(&committed, &wall);
        assert!((r - 100.0).abs() < 1e-9, "{r}");
        assert_eq!(ratio_of_sums(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
        assert!((relative_iqr(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
