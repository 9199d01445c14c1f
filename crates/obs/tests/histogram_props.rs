//! Property suite for the log-scale histogram (DESIGN.md §11).
//!
//! Two laws, for arbitrary value streams:
//!
//! * **Monotone bucketing** — `bucket_index` is non-decreasing in the
//!   value, every value lands inside its bucket's `[lower, upper]`
//!   range, and bucket bounds tile `u64` without gaps.
//! * **Exact totals** — a histogram's `count` equals the number of
//!   recorded values and `sum` their exact (wrapping-free) total, no
//!   matter the order of recording.

use proptest::prelude::*;
use urpsm_obs::metrics::{bucket_index, bucket_lower_bound, bucket_upper_bound, NUM_BUCKETS};
use urpsm_obs::Histogram;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `bucket_index` is monotone and each value sits in its bucket.
    #[test]
    fn bucketing_is_monotone_and_self_consistent(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        for v in [lo, hi] {
            let idx = bucket_index(v);
            prop_assert!(idx < NUM_BUCKETS);
            prop_assert!(bucket_lower_bound(idx) <= v);
            prop_assert!(v <= bucket_upper_bound(idx));
        }
    }

    /// Bucket ranges tile the axis: each bucket starts one past the
    /// previous bucket's end, starting at zero.
    #[test]
    fn bucket_bounds_tile_without_gaps(idx in 1usize..NUM_BUCKETS) {
        prop_assert_eq!(bucket_lower_bound(idx), bucket_upper_bound(idx - 1) + 1);
        prop_assert_eq!(bucket_lower_bound(0), 0);
    }

    /// Total count is exactly the number of records; the sum is exact.
    #[test]
    fn count_and_sum_are_exact(values in proptest::collection::vec(any::<u32>(), 0..200)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(u64::from(v));
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().map(|&v| u64::from(v)).sum::<u64>());
        let buckets = h.bucket_counts();
        prop_assert_eq!(buckets.iter().sum::<u64>(), values.len() as u64);
    }
}
