//! The metrics registry: named counters, gauges and log₂-bucketed
//! histograms behind cheap cloneable handles.
//!
//! A [`MetricsRegistry`] is either *enabled* (handles share atomic cells)
//! or *disabled* (handles are empty and every operation is one `Option`
//! discriminant check — no allocation, no atomics, no locks). Instrumented
//! code therefore keeps a handle unconditionally and never branches on an
//! "observability on?" flag itself.
//!
//! [`MetricsRegistry::snapshot`] freezes the registry into a
//! [`MetricsSnapshot`] — plain sorted vectors that are `PartialEq`,
//! mergeable and serialisable. Snapshots are the unit of the portfolio's
//! deterministic metric reduction: counters and histograms contain only
//! algorithmic-work counts (never wall-clock), so merging per-restart
//! snapshots in seed order yields bit-identical results for any thread
//! count under a step budget.

use crate::record::record;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two up
/// to 2⁶³.
const BUCKETS: usize = 65;

/// Maps a value to its histogram bucket: `0 → 0`, otherwise
/// `⌊log₂ v⌋ + 1` (bucket `b ≥ 1` covers `[2^(b−1), 2^b)`).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

#[derive(Debug)]
struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

/// A registry of named metrics. Cloning shares the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// Creates a disabled registry: every handle it hands out is a no-op.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// `true` when metrics are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or looks up) a counter. On a disabled registry the
    /// returned handle is a no-op.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .counters
                        .lock()
                        .expect("metrics mutex")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .gauges
                        .lock()
                        .expect("metrics mutex")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Registers (or looks up) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .histograms
                        .lock()
                        .expect("metrics mutex")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Freezes the current metric values into a sorted, comparable
    /// snapshot. Disabled registries yield an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .expect("metrics mutex")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("metrics mutex")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("metrics mutex")
            .iter()
            .map(|(k, cell)| {
                let count = cell.count.load(Ordering::Relaxed);
                (
                    k.clone(),
                    HistogramSnapshot {
                        count,
                        sum: cell.sum.load(Ordering::Relaxed),
                        min: if count == 0 {
                            0
                        } else {
                            cell.min.load(Ordering::Relaxed)
                        },
                        max: cell.max.load(Ordering::Relaxed),
                        buckets: cell
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let n = b.load(Ordering::Relaxed);
                                (n > 0).then_some((i as u32, n))
                            })
                            .collect(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 on a disabled handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge handle holding the latest `f64` value set.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 on a disabled handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A histogram handle recording `u64` observations into log₂ buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(value, Ordering::Relaxed);
            cell.min.fetch_min(value, Ordering::Relaxed);
            cell.max.fetch_max(value, Ordering::Relaxed);
            cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

record! {
    /// Frozen histogram state: exact count/sum/min/max plus the non-empty
    /// log₂ buckets as `(bucket_index, count)` pairs (see [`Histogram`]).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct HistogramSnapshot {
        /// Number of observations.
        pub count: u64,
        /// Sum of all observations.
        pub sum: u64,
        /// Smallest observation (0 when empty).
        pub min: u64,
        /// Largest observation (0 when empty).
        pub max: u64,
        /// Non-empty buckets, ascending by index.
        pub buckets: Vec<(u32, u64)>,
    }
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one (count/sum add, min/max
    /// combine, buckets add pointwise).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(bucket, n) in &other.buckets {
            *merged.entry(bucket).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

record! {
    /// All metrics of one registry frozen at a point in time, sorted by name.
    ///
    /// Snapshots merge **deterministically**: counters and histogram contents
    /// sum, gauges keep the maximum. The operation is associative and
    /// commutative, so a fold over per-restart snapshots in seed order is
    /// independent of which thread produced which snapshot.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MetricsSnapshot {
        /// `(name, value)` pairs, ascending by name.
        pub counters: Vec<(String, u64)>,
        /// `(name, value)` pairs, ascending by name.
        pub gauges: Vec<(String, f64)>,
        /// `(name, histogram)` pairs, ascending by name.
        pub histograms: Vec<(String, HistogramSnapshot)>,
    }
}

impl MetricsSnapshot {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Merges `other` into `self`: counters sum, gauges keep the maximum,
    /// histograms merge per [`HistogramSnapshot::merge`].
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut gauges: BTreeMap<String, f64> = self.gauges.drain(..).collect();
        for (name, v) in &other.gauges {
            gauges
                .entry(name.clone())
                .and_modify(|g| *g = g.max(*v))
                .or_insert(*v);
        }
        self.gauges = gauges.into_iter().collect();

        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            histograms.entry(name.clone()).or_default().merge(h);
        }
        self.histograms = histograms.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_no_op() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        reg.gauge("g").set(1.0);
        reg.histogram("h").record(3);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn counters_share_storage_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("steps");
        let b = reg.counter("steps");
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().counter("steps"), Some(3));
    }

    #[test]
    fn gauge_keeps_latest_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("similarity");
        g.set(0.25);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
        assert_eq!(reg.snapshot().gauges, vec![("similarity".into(), 0.75)]);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("v");
        for v in [0, 1, 2, 3, 900] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let (_, hs) = &snap.histograms[0];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 906);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 900);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
        assert!((hs.mean() - 181.2).abs() < 1e-9);
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // Bucket b ≥ 1 covers [2^(b−1), 2^b): an exact power 2^k is the
        // *lowest* value of bucket k+1, never the top of bucket k.
        for k in 0..64u32 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow), k as usize + 1, "2^{k}");
            if pow > 1 {
                assert_eq!(bucket_index(pow - 1), k as usize, "2^{k} - 1");
            }
            // pow + 1 stays in bucket k+1 — except for k = 0, where
            // 2⁰ + 1 = 2 is itself the next power.
            if k > 0 && k < 63 {
                assert_eq!(bucket_index(pow + 1), k as usize + 1, "2^{k} + 1");
            }
        }
        // Top bucket: [2^63, u64::MAX] all land in bucket 64.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_snapshot_min_is_zero() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("h");
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].1.min, 0);
        assert_eq!(snap.histograms[0].1.mean(), 0.0);
    }

    #[test]
    fn snapshot_merge_is_order_independent() {
        let make = |steps: u64, obs: &[u64]| {
            let reg = MetricsRegistry::new();
            reg.counter("steps").add(steps);
            let h = reg.histogram("h");
            for &v in obs {
                h.record(v);
            }
            reg.gauge("g").set(steps as f64);
            reg.snapshot()
        };
        let a = make(10, &[1, 5]);
        let b = make(7, &[0, 64]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("steps"), Some(17));
        assert_eq!(ab.gauges, vec![("g".into(), 10.0)]);
        let (_, h) = &ab.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 64);
    }

    #[test]
    fn merge_with_empty_preserves_self() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(3);
        let mut snap = reg.snapshot();
        let before = snap.clone();
        snap.merge(&MetricsSnapshot::default());
        assert_eq!(snap, before);
    }
}
