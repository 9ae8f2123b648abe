//! Fixed-bucket log2-scale histogram.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::HistogramSnapshot;

/// Number of buckets: one per possible bit length of a `u64` sample
/// (bucket 0 holds exactly the value 0, bucket `i` holds values in
/// `[2^(i-1), 2^i)`), with the top bucket absorbing everything else.
pub(crate) const BUCKETS: usize = 64;

/// Lock-free latency/size histogram with power-of-two buckets.
///
/// `record` is two relaxed atomic RMWs; percentiles are read out by a
/// cumulative scan over the 64 buckets and return the *upper bound* of
/// the bucket containing the requested rank, which makes readouts
/// monotone in `p` by construction (a higher rank can only land in the
/// same or a later bucket). Zero-sized with `obs` off.
pub struct Histogram {
    #[cfg(feature = "obs")]
    buckets: [AtomicU64; BUCKETS],
    #[cfg(feature = "obs")]
    sum: AtomicU64,
}

/// Bucket index for a sample: its bit length, capped at the top bucket.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top bucket).
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// New empty histogram.
    pub const fn new() -> Self {
        Histogram {
            #[cfg(feature = "obs")]
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            #[cfg(feature = "obs")]
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "obs")]
        {
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.sum.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    /// Value at percentile `p` (0–100): the upper bound of the bucket
    /// containing the sample of that rank. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile_of(&self.bucket_counts(), p)
    }

    /// Consistent one-pass readout of count/sum/p50/p95/p99. The bucket
    /// array is loaded once, so the three percentiles are computed from
    /// the same view and are always mutually monotone even while writers
    /// race.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        HistogramSnapshot {
            count: counts.iter().sum(),
            sum: self.sum(),
            p50: percentile_of(&counts, 50.0),
            p95: percentile_of(&counts, 95.0),
            p99: percentile_of(&counts, 99.0),
        }
    }

    /// Per-bucket counts, loaded once. Index `i` = bucket `i`.
    pub(crate) fn bucket_counts(&self) -> [u64; BUCKETS] {
        #[cfg(feature = "obs")]
        {
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
        }
        #[cfg(not(feature = "obs"))]
        {
            [0; BUCKETS]
        }
    }

    /// Reset to empty (test support; racing writers may land on either
    /// side of the reset).
    pub fn reset(&self) {
        #[cfg(feature = "obs")]
        {
            for b in &self.buckets {
                b.store(0, Ordering::Relaxed);
            }
            self.sum.store(0, Ordering::Relaxed);
        }
    }
}

fn percentile_of(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the requested percentile, 1-based, clamped into range.
    let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .finish()
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn percentiles_bound_samples_and_stay_monotone() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let s = h.snapshot();
        // Bucket upper bounds over-approximate but never undershoot the
        // true percentile, and never exceed the next power of two.
        assert!(s.p50 >= 500 && s.p50 <= 1023, "p50={}", s.p50);
        assert!(s.p99 >= 990 && s.p99 <= 1023, "p99={}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn single_value_percentiles() {
        let h = Histogram::new();
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.p50, s.p99);
        assert!(s.p50 >= 100 && s.p50 <= 127);
    }
}
