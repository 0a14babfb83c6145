//! A log2-bucketed streaming histogram over `u64` samples.
//!
//! Bucket 0 covers `[0, 2)` and bucket `i ≥ 1` covers `[2^i, 2^(i+1))`,
//! with 64 buckets so every `u64` value has a home. The harness trace
//! exporter's per-mode attempt latencies use this type too.
//! Observation and merge are pure integer arithmetic, so any partition of
//! a sample stream across workers, shards or batches merges back to the
//! exact histogram a sequential pass would have produced, in any merge
//! order.

/// Number of buckets: one per possible `u64` bit length (plus bucket 0
/// holding both 0 and 1).
pub const BUCKETS: usize = 64;

/// The log2 bucket index of a sample: 0 for values in `[0, 2)`, otherwise
/// the sample's bit length minus one.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).saturating_sub(1)
}

/// Inclusive lower bound of a bucket: 0 for bucket 0, `2^i` for bucket `i`.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << index
    }
}

/// A streaming histogram: per-bucket counts plus exact count, sum, min and
/// max. All fields are pure functions of the observed multiset, so two
/// histograms over the same samples are equal however the samples were
/// split and merged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Hist::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Adds every sample of `other` into `self`. Addition commutes, so any
    /// merge order over any partition of a stream produces the same result.
    pub fn merge(&mut self, other: &Log2Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// A deterministic integer quantile: the lower bound of the bucket
    /// holding the `⌈q·count⌉`-th smallest sample, clamped into the exact
    /// observed `[min, max]` range. `q ≥ 1.0` returns the exact maximum
    /// (the histogram tracks it precisely); an empty histogram returns 0.
    ///
    /// Because the answer is an integer derived from bucket counts alone,
    /// percentiles are byte-stable across hosts and pinnable in golden
    /// files.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_matches_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lower(i)), i, "lower bound lives in {i}");
        }
    }

    #[test]
    fn observe_tracks_exact_extremes() {
        let mut h = Log2Hist::new();
        assert_eq!((h.min(), h.max(), h.count(), h.sum()), (0, 0, 0, 0));
        for v in [7, 3, 900, 3] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 913);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 900);
    }

    #[test]
    fn quantile_is_bucket_lower_clamped_to_extremes() {
        let mut h = Log2Hist::new();
        h.observe(7);
        // Bucket lower bound of 7 is 4; clamping recovers the exact value.
        assert_eq!(h.quantile(0.5), 7);
        h.observe(100);
        h.observe(100);
        h.observe(100);
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.99), 64); // lower bound of 100's bucket
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let samples: Vec<u64> = (0..1000).map(|i| (i * 2654435761u64) >> 16).collect();
        let mut whole = Log2Hist::new();
        for &s in &samples {
            whole.observe(s);
        }
        let mut parts = [Log2Hist::new(), Log2Hist::new(), Log2Hist::new()];
        for (i, &s) in samples.iter().enumerate() {
            parts[i % 3].observe(s);
        }
        let mut fwd = Log2Hist::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Log2Hist::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, whole);
        assert_eq!(rev, whole);
    }
}
