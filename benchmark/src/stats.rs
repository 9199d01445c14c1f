//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values on an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better). `higher_is_better` gives the metric's
/// direction.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        first - second
    } else {
        second - first
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn median_handles_both_parities_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 115.0, false) - 0.15).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, true), 0.0);
    }
}
