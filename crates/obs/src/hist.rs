//! Lock-free power-of-two-bucketed histogram.
//!
//! Values land in bucket `⌈log2(v)⌉`-style bins: bucket 0 holds the value
//! 0, bucket `i` (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`. All
//! mutation is `Relaxed` atomic adds on per-thread-owned instances, so a
//! recording thread never contends and never takes a lock; readers see a
//! slightly stale but internally usable view at any time.

use crate::json::Json;
use sk_snap::{Persist, Reader, SnapError, Writer};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per power of two up to 2^63.
pub const N_BUCKETS: usize = 65;

/// A monotonic, lock-free histogram with power-of-two buckets.
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index a value lands in.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The smallest value belonging to bucket `i`.
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The largest value belonging to bucket `i`.
#[inline]
pub fn bucket_ceil(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical observations.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values. Each `record_n` contribution saturates at
    /// `u64::MAX`, but accumulation across records wraps (lock-free
    /// `fetch_add`); practical telemetry sums never approach 2^64.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, or `None` while empty.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (self.count() > 0).then_some(v)
    }

    /// Largest recorded value, or `None` while empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Raw bucket count at index `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(bucket_floor, count)` pairs in ascending
    /// order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..N_BUCKETS)
            .filter_map(|i| {
                let c = self.bucket(i);
                (c > 0).then(|| (bucket_floor(i), c))
            })
            .collect()
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`, clamped to the
    /// recorded `[min, max]` range. Returns 0 while empty. Deterministic
    /// for a fixed set of recorded values.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..N_BUCKETS {
            seen += self.bucket(i);
            if seen >= rank {
                return bucket_ceil(i)
                    .min(self.max.load(Ordering::Relaxed))
                    .max(self.min.load(Ordering::Relaxed).min(bucket_ceil(i)));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Fold another histogram's counts into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..N_BUCKETS {
            let c = other.bucket(i);
            if c > 0 {
                self.buckets[i].fetch_add(c, Ordering::Relaxed);
            }
        }
        let oc = other.count();
        if oc > 0 {
            self.count.fetch_add(oc, Ordering::Relaxed);
            self.sum.fetch_add(other.sum(), Ordering::Relaxed);
            self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Structural equality of the recorded distribution (for tests).
    pub fn same_as(&self, other: &Histogram) -> bool {
        self.count() == other.count()
            && self.sum() == other.sum()
            && self.min() == other.min()
            && self.max() == other.max()
            && (0..N_BUCKETS).all(|i| self.bucket(i) == other.bucket(i))
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("buckets", &self.nonzero_buckets())
            .finish()
    }
}

/// `{"count","sum","min","max","p50","p90","p99","buckets":[[floor,n],…]}`:
/// `min` / `max` are `null` while empty, and `buckets` lists only the
/// non-empty buckets by their smallest member.
impl From<&Histogram> for Json {
    fn from(h: &Histogram) -> Json {
        Json::obj([
            ("count", Json::from(h.count())),
            ("sum", h.sum().into()),
            ("min", h.min().into()),
            ("max", h.max().into()),
            ("p50", h.quantile(0.5).into()),
            ("p90", h.quantile(0.9).into()),
            ("p99", h.quantile(0.99).into()),
            (
                "buckets",
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(floor, n)| Json::from_iter([floor, n]))
                    .collect(),
            ),
        ])
    }
}

impl Persist for Histogram {
    const MIN_BYTES: usize = 40;
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.count());
        w.put_u64(self.sum());
        w.put_u64(self.min.load(Ordering::Relaxed));
        w.put_u64(self.max.load(Ordering::Relaxed));
        // Sparse encoding: only non-empty buckets.
        let nz: Vec<(usize, u64)> = (0..N_BUCKETS)
            .filter_map(|i| {
                let c = self.bucket(i);
                (c > 0).then_some((i, c))
            })
            .collect();
        w.put_usize(nz.len());
        for (i, c) in nz {
            w.put_u8(i as u8);
            w.put_u64(c);
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let h = Histogram::new();
        h.count.store(r.get_u64()?, Ordering::Relaxed);
        h.sum.store(r.get_u64()?, Ordering::Relaxed);
        h.min.store(r.get_u64()?, Ordering::Relaxed);
        h.max.store(r.get_u64()?, Ordering::Relaxed);
        let n = r.get_count(9)?;
        if n > N_BUCKETS {
            return Err(SnapError::Corrupt(format!("{n} histogram buckets")));
        }
        for _ in 0..n {
            let i = r.get_u8()? as usize;
            if i >= N_BUCKETS {
                return Err(SnapError::Corrupt(format!("histogram bucket index {i}")));
            }
            h.buckets[i].store(r.get_u64()?, Ordering::Relaxed);
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..N_BUCKETS {
            assert_eq!(bucket_of(bucket_floor(i)), i);
            assert_eq!(bucket_of(bucket_ceil(i)), i);
        }
    }

    #[test]
    fn record_and_aggregates() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(3), 1); // 5 ∈ [4, 8)
        assert_eq!(h.nonzero_buckets().len(), 4);
    }

    #[test]
    fn quantiles_are_bounded_and_monotone() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.record(v);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let x = h.quantile(q);
            assert!(x >= prev, "quantile not monotone at q={q}");
            assert!(x <= h.max().unwrap());
            prev = x;
        }
        assert!(h.quantile(1.0) >= 99 / 2, "p100 upper bound covers the max bucket");
    }

    #[test]
    fn merge_matches_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let u = Histogram::new();
        for v in [1u64, 7, 7, 300] {
            a.record(v);
            u.record(v);
        }
        for v in [0u64, 2, 1 << 40] {
            b.record(v);
            u.record(v);
        }
        a.merge_from(&b);
        assert!(a.same_as(&u));
    }

    #[test]
    fn persist_round_trip() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 9, 1 << 50] {
            h.record(v);
        }
        let mut w = Writer::new();
        h.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = Histogram::load(&mut r).unwrap();
        r.finish().unwrap();
        assert!(h.same_as(&back));
    }

    #[test]
    fn corrupt_bucket_index_is_an_error() {
        let h = Histogram::new();
        h.record(1);
        let mut w = Writer::new();
        h.save(&mut w);
        let mut bytes = w.into_bytes();
        // The bucket index byte sits after count/sum/min/max (4×8) and the
        // bucket-list length (8).
        bytes[40] = 200;
        let mut r = Reader::new(&bytes);
        assert!(matches!(Histogram::load(&mut r), Err(SnapError::Corrupt(_))));
    }
}
