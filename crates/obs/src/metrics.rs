//! Metric primitives: relaxed-atomic counters, gauges, and fixed-bucket
//! log-scale histograms.
//!
//! Everything here is lock-free, allocation-free after construction, and
//! safe to hammer from any number of threads. All updates use `Relaxed`
//! ordering: metrics are monotone tallies, not synchronization edges, and
//! readers (exposition / snapshots) tolerate being a few updates behind.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A last-value-wins instantaneous gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite with `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Raise to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn observe_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Number of histogram buckets. Bucket boundaries are log-scale with four
/// sub-buckets per octave, so relative error of any bucket midpoint is
/// bounded by ~12.5% across the whole `u64` range.
pub const NUM_BUCKETS: usize = 252;

/// Map a value to its bucket index.
///
/// Values `0..4` get exact singleton buckets `0..4`; beyond that, each
/// power-of-two octave `[2^k, 2^(k+1))` is split into four equal
/// sub-buckets. The map is monotone: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 2
    let sub = ((v >> (msb - 2)) & 3) as usize;
    4 * (msb - 1) + sub
}

/// Inclusive lower bound of bucket `idx` (the smallest value mapping to it).
#[inline]
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let octave = idx / 4 + 1;
    let sub = (idx % 4) as u64;
    (1u64 << octave) + sub * (1u64 << (octave - 2))
}

/// Inclusive upper bound of bucket `idx` (`u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper_bound(idx: usize) -> u64 {
    if idx + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower_bound(idx + 1) - 1
    }
}

/// A fixed-bucket log-scale histogram of `u64` samples.
///
/// Recording is two relaxed `fetch_add`s; there is no locking and no
/// allocation. Total count is exact (every sample lands in exactly one
/// bucket); the per-sample value is approximated by its bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh zeroed histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Per-bucket counts (non-cumulative).
    pub fn bucket_counts(&self) -> [u64; NUM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sum of all recorded sample values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Compact summary (count, sum, approximate quantiles).
    pub fn summary(&self) -> HistSummary {
        HistSummary::from_buckets(&self.bucket_counts(), self.sum())
    }
}

/// Compact histogram summary: exact count/sum plus bucket-resolution
/// quantiles (each quantile reports the lower bound of the bucket the
/// rank falls in, i.e. an under-estimate by at most one sub-bucket).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Exact number of samples.
    pub count: u64,
    /// Wrapping sum of sample values.
    pub sum: u64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Lower bound of the highest occupied bucket.
    pub max: u64,
}

impl HistSummary {
    fn from_buckets(buckets: &[u64; NUM_BUCKETS], sum: u64) -> Self {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return HistSummary::default();
        }
        let rank = |q_num: u64, q_den: u64| -> u64 {
            // 1-based rank of the q-quantile sample, clamped to [1, count].
            (count * q_num).div_ceil(q_den).clamp(1, count)
        };
        let locate = |target_rank: u64| -> u64 {
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target_rank {
                    return bucket_lower_bound(i);
                }
            }
            bucket_lower_bound(NUM_BUCKETS - 1)
        };
        let max = buckets
            .iter()
            .rposition(|&n| n != 0)
            .map(bucket_lower_bound)
            .unwrap_or(0);
        HistSummary {
            count,
            sum,
            p50: locate(rank(1, 2)),
            p90: locate(rank(9, 10)),
            p99: locate(rank(99, 100)),
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        for idx in 0..NUM_BUCKETS {
            let lo = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lo), idx, "lower bound of {idx}");
            let hi = bucket_upper_bound(idx);
            assert_eq!(bucket_index(hi), idx, "upper bound of {idx}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn histogram_counts_and_summary() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 7, 100, 100, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 5309);
        let s = h.summary();
        assert_eq!(s.count, 8);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert_eq!(bucket_index(s.max), bucket_index(5000));
    }
}
