//! Order statistics the harness reports: percentiles, medians, MAD and
//! the quartile spread the repeatability check uses.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `p` of the samples at or below it.
/// `0.0` for an empty slice, so a stream that never completed a request
/// reports zero instead of panicking.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns the `p`-quantile.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// The median; for an even count the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// `(max - min) / median` of the segment values — what `compare` holds
/// against a metric's bound to call a cell unresolved. Zero when the
/// median is zero (a count that stayed at zero has no spread).
pub fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 20 samples: p95 is the 19th, leaving exactly one beyond it.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn percentile_of_sorts_first() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile_of(&mut v, 0.5), 5.0);
        assert_eq!(v, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn median_of_three_segments_ignores_one_outlier() {
        assert_eq!(median(&[50.0, 51.0, 12.0]), 50.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn mad_and_relative_range() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert!((relative_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_range(&[0.0, 0.0, 0.0]), 0.0);
    }
}
