//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is read off the sorted raw
//! samples; nothing goes through `adore_obs::Histogram`, whose doubling
//! buckets turn every percentile into a bucket edge.

/// Samples that must lie beyond a percentile before it is trusted: with
/// fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The exact `p`-quantile (nearest rank, `0 < p < 1`) of `sorted`, which
/// must be ascending. `None` for an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-quantile;
/// a percentile with fewer than [`MIN_BEYOND`] is reported as thin.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median with the usual mean-of-the-middle-two rule.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The arithmetic mean (`0` for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule
/// for this benchmark is written in. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Python's exclusive method: cut point k sits at k*(n+1)/4 on a
    // 1-based axis; the index is clamped, the interpolation weight is
    // not, so tiny samples extrapolate exactly as Python does.
    let at = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread the acceptance rule compares with a bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let v = ramp(1000);
        assert_eq!(quantile(&v, 0.50), Some(500.0));
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v, 0.999), Some(999.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
        // One sample fewer and only nine lie beyond: thin.
        assert_eq!(beyond(999, 0.99), 9);
        // The median needs twenty samples by the same rule.
        assert_eq!(beyond(20, 0.50), 10);
        assert_eq!(beyond(19, 0.50), 9);
        assert_eq!(beyond(0, 0.50), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), Some((0.75, 2.25)));
        let s = spread(&ramp(10)).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }
}
