//! Lock-free fixed-bucket latency histograms.
//!
//! Values land in power-of-two (log2) buckets: bucket 0 holds exactly
//! the value 0, bucket `i` (i ≥ 1) holds values in `[2^(i-1), 2^i)`.
//! 65 buckets cover the whole `u64` range, so recording never clamps
//! or saturates. Recording is a relaxed `fetch_add` on one bucket and
//! on the sum plus a `fetch_max` for the true maximum — there are no
//! locks anywhere, so hot paths (shard loops, WAL writers) can record
//! without contending with metrics readers. There is no separate count:
//! a snapshot's `count` is the sum of the buckets it read, so the two
//! can never disagree (a Prometheus `le` bucket above `+Inf`).
//!
//! Readers take a [`HistogramSnapshot`] — a plain `Copy`-free struct of
//! `u64`s — and can [`HistogramSnapshot::merge`] per-shard snapshots
//! into a cluster-wide view. Merging snapshots is exact: bucket counts,
//! totals, and sums add, and the max is the max of maxes, so a merged
//! snapshot is indistinguishable from one histogram fed the union of
//! the samples (property-tested in this crate).

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{Map, Value as Json};

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `1 + floor(log2(v))`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i`: the largest value it can hold.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A lock-free log2 histogram. Concurrent `record` calls never block;
/// `snapshot` reads are relaxed loads and may observe a record that is
/// mid-flight (bucket visible, sum not yet), which is fine for
/// monitoring and converges as soon as the writer finishes.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters; `count` is the sum of the
    /// buckets read.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A plain-data copy of a [`Histogram`], mergeable across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_upper_bound`] for bounds).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot into this one. Exact: the result equals a
    /// snapshot of one histogram that saw both sample sets.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`, as the inclusive upper
    /// bound of the bucket holding that rank (clamped to the recorded
    /// max, so a one-sample histogram reports the sample itself at
    /// every quantile). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Summary as a JSON object: `{count, p50, p90, p99, max, mean}`.
    /// Bucket-resolution quantiles: a reported pNN is the upper bound
    /// of its log2 bucket, i.e. within 2x of the true rank value.
    pub fn json_summary(&self) -> Json {
        let mut obj = Map::new();
        obj.insert("count".into(), Json::from(self.count));
        obj.insert("p50".into(), Json::from(self.quantile(0.50)));
        obj.insert("p90".into(), Json::from(self.quantile(0.90)));
        obj.insert("p99".into(), Json::from(self.quantile(0.99)));
        obj.insert("max".into(), Json::from(self.max));
        obj.insert(
            "mean".into(),
            serde_json::Number::from_f64((self.mean() * 100.0).round() / 100.0)
                .map(Json::Number)
                .unwrap_or(Json::from(0u64)),
        );
        Json::Object(obj)
    }

    /// Index of the highest non-empty bucket, if any.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value's bucket upper bound is >= the value and the
        // previous bucket's bound is < the value.
        for v in [1u64, 2, 3, 5, 127, 128, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_upper_bound(i) >= v);
            assert!(i == 0 || bucket_upper_bound(i - 1) < v);
        }
    }

    #[test]
    fn quantiles_clamp_to_max() {
        let h = Histogram::new();
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.quantile(0.50), 100);
        assert_eq!(s.quantile(0.99), 100);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket 4, upper bound 15
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, upper bound 1023
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 15);
        assert_eq!(s.quantile(0.90), 15);
        assert_eq!(s.quantile(0.99), 1000, "clamped to max");
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 90 * 10 + 10 * 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.highest_bucket(), None);
        let j = s.json_summary();
        assert_eq!(j.get("count").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn merge_adds_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(7);
        b.record(1000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 1012);
        assert_eq!(m.max, 1000);
        assert_eq!(m.quantile(1.0), 1000);
    }

    #[test]
    fn json_summary_shape() {
        let h = Histogram::new();
        h.record(3);
        h.record(3);
        let j = h.snapshot().json_summary();
        for key in ["count", "p50", "p90", "p99", "max", "mean"] {
            assert!(j.get(key).is_some(), "{key}");
        }
        assert_eq!(j.get("mean").and_then(|v| v.as_f64()), Some(3.0));
    }

    /// Concurrent recorders never leave a snapshot whose buckets and
    /// `count` disagree: a cumulative `le` bucket above `+Inf` is
    /// invalid Prometheus exposition.
    #[test]
    fn snapshots_under_concurrent_recording_are_consistent() {
        use std::sync::atomic::AtomicBool;
        let h = Histogram::new();
        let stop = AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            for t in 0..2u64 {
                let (h, stop) = (&h, &stop);
                s.spawn(move || {
                    let mut v = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 5000);
                        v += 7;
                    }
                });
            }
            let torn = (0..200_000)
                .filter(|_| {
                    let snap = h.snapshot();
                    snap.buckets.iter().sum::<u64>() != snap.count
                })
                .count();
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert!(h.snapshot().count > 0);
        assert_eq!(torn, 0, "snapshots with count != sum of buckets");
    }
}
