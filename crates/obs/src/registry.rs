//! Per-run metrics snapshots and the handle that accumulates them.
//!
//! A [`MetricsSnapshot`] is plain sorted vectors — `PartialEq`, mergeable
//! and serialisable: the wire record of the `metrics` event. The search
//! layer builds one per finished run from its counter block (which owns
//! the names) and hands it to [`MetricsRegistry::absorb`]; a registry is
//! either *enabled* (one shared snapshot behind a mutex, touched once per
//! run) or *disabled* (every operation is one `Option` check).
//!
//! Snapshots hold only algorithmic-work counts (never wall-clock), so
//! merging per-restart snapshots in seed order — the portfolio's metric
//! reduction — is bit-identical for any thread count under a step budget.

use crate::record::record;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Maps a value to its histogram bucket: `0 → 0`, otherwise
/// `⌊log₂ v⌋ + 1` (65 buckets up to 2⁶³).
fn bucket_index(value: u64) -> u32 {
    u64::BITS - value.leading_zeros()
}

/// An accumulator of per-run [`MetricsSnapshot`]s. Cloning shares the
/// underlying storage, so several runs reporting through one handle (the
/// two stages of a two-step pipeline, an experiment's recorder) sum.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<MetricsSnapshot>>>,
}

impl MetricsRegistry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::default()),
        }
    }

    /// Creates a disabled registry: it absorbs nothing.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// `true` when metrics are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Merges one finished run's metrics into the accumulated snapshot
    /// (see [`MetricsSnapshot::merge`]); a no-op when disabled.
    pub fn absorb(&self, run: &MetricsSnapshot) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("metrics mutex poisoned").merge(run);
        }
    }

    /// A copy of everything absorbed so far, sorted by name. Disabled
    /// registries yield an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.as_ref().map_or_else(Default::default, |inner| {
            inner.lock().expect("metrics mutex poisoned").clone()
        })
    }
}

record! {
    /// Frozen histogram state: exact count/sum/min/max plus the non-empty
    /// log₂ buckets as `(bucket_index, count)` pairs (see
    /// [`HistogramSnapshot::record`]).
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
    /// Records one observation: bucket 0 holds zeros, bucket `b ≥ 1` the
    /// values in `[2^(b−1), 2^b)`.
    pub fn record(&mut self, value: u64) {
        self.merge(&HistogramSnapshot {
            count: 1,
            sum: value,
            min: value,
            max: value,
            buckets: vec![(bucket_index(value), 1)],
        });
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

    fn histogram_of(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    /// One run's worth of metrics: a counter, a gauge and a histogram.
    fn run(steps: u64, observed: &[u64]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("steps".into(), steps)],
            gauges: vec![("g".into(), steps as f64)],
            histograms: vec![("h".into(), histogram_of(observed))],
        }
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        reg.absorb(&run(5, &[3]));
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_accumulator_and_names_stay_sorted() {
        let reg = MetricsRegistry::new();
        assert!(reg.snapshot().is_empty());
        let other = reg.clone();
        reg.absorb(&run(2, &[2]));
        other.absorb(&MetricsSnapshot {
            counters: vec![("accesses".into(), 9), ("steps".into(), 1)],
            ..MetricsSnapshot::default()
        });
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("accesses".into(), 9), ("steps".into(), 3)]
        );
        assert_eq!(snap.counter("steps"), Some(3));
        assert_eq!(snap.histograms[0].1.count, 1);
        assert_eq!(snap, other.snapshot());
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let hs = histogram_of(&[900, 0, 3, 1, 2]);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 906);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 900);
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn bucket_boundaries_at_exact_powers_of_two() {
        // Bucket b ≥ 1 covers [2^(b−1), 2^b): an exact power 2^k is the
        // *lowest* value of bucket k+1, never the top of bucket k.
        for k in 0..64u32 {
            let pow = 1u64 << k;
            assert_eq!(bucket_index(pow), k + 1, "2^{k}");
            if pow > 1 {
                assert_eq!(bucket_index(pow - 1), k, "2^{k} - 1");
            }
            // pow + 1 stays in bucket k+1 — except for k = 0, where
            // 2⁰ + 1 = 2 is itself the next power.
            if k > 0 && k < 63 {
                assert_eq!(bucket_index(pow + 1), k + 1, "2^{k} + 1");
            }
        }
    }

    #[test]
    fn empty_histogram_snapshot_min_is_zero() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.min, 0);
        // The first observation sets the minimum; it does not compete
        // with the empty histogram's 0.
        assert_eq!(histogram_of(&[7]).min, 7);
    }

    #[test]
    fn snapshot_merge_is_order_independent() {
        let a = run(10, &[1, 5]);
        let b = run(7, &[0, 64]);

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
        let mut snap = run(3, &[]);
        let before = snap.clone();
        snap.merge(&MetricsSnapshot::default());
        assert_eq!(snap, before);
    }
}
