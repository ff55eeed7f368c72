//! Property-based tests for the deterministic merge operations of the
//! observability layer: histogram-snapshot merging preserves the exact
//! count and sum, and phase-snapshot merging is associative and
//! order-insensitive — the algebraic facts the portfolio's parallel
//! reduction and the bench suite's two-step stat combination rely on.

use mwsj_obs::{merge_phase_snapshots, HistogramSnapshot, PhaseSnapshot};
use proptest::prelude::*;
use std::time::Duration;

/// Builds a histogram snapshot by recording `values` one at a time, the
/// way the search layer records a run's steps.
fn histogram_of(values: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.record(v);
    }
    h
}

fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    // Mix small values (bucket-boundary neighbours) with large ones.
    prop::collection::vec(
        prop_oneof![0u64..10, (0u32..40).prop_map(|k| 1u64 << k)],
        0..40,
    )
}

fn arb_phases() -> impl Strategy<Value = Vec<PhaseSnapshot>> {
    let path = prop_oneof![
        Just("solve".to_string()),
        Just("solve > restart[0]".to_string()),
        Just("solve > restart[1]".to_string()),
        Just("solve > restart[0] > find_best_value".to_string()),
        Just("join".to_string()),
    ];
    prop::collection::vec(
        (path, 0u64..100, 0u64..10_000, 0u64..5_000_000).prop_map(|(path, calls, steps, us)| {
            PhaseSnapshot {
                path,
                calls,
                steps,
                wall: Duration::from_micros(us),
            }
        }),
        0..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging histogram snapshots loses no observations: count, sum and
    /// per-bucket totals all equal those of recording every value into a
    /// single histogram, regardless of how the values were split.
    #[test]
    fn histogram_merge_preserves_count_and_sum(
        a in arb_values(),
        b in arb_values(),
        c in arb_values(),
    ) {
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        merged.merge(&histogram_of(&c));

        let combined: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = histogram_of(&combined);

        prop_assert_eq!(merged.count, combined.len() as u64);
        prop_assert_eq!(merged.sum, combined.iter().sum::<u64>());
        prop_assert_eq!(&merged.buckets, &direct.buckets);
        prop_assert_eq!(merged.max, direct.max);
        if !combined.is_empty() {
            prop_assert_eq!(merged.min, direct.min);
        }
        let bucket_total: u64 = merged.buckets.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(bucket_total, merged.count);
    }

    /// Histogram merge is commutative on every field.
    #[test]
    fn histogram_merge_is_commutative(a in arb_values(), b in arb_values()) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// `merge_phase_snapshots` is associative: merging list-by-list in any
    /// grouping equals merging everything at once.
    #[test]
    fn phase_merge_is_associative(
        a in arb_phases(),
        b in arb_phases(),
        c in arb_phases(),
    ) {
        let all = merge_phase_snapshots([a.clone(), b.clone(), c.clone()]);
        let left = merge_phase_snapshots([
            merge_phase_snapshots([a.clone(), b.clone()]),
            c.clone(),
        ]);
        let right = merge_phase_snapshots([
            a.clone(),
            merge_phase_snapshots([b.clone(), c.clone()]),
        ]);
        prop_assert_eq!(&all, &left);
        prop_assert_eq!(&all, &right);
    }

    /// `merge_phase_snapshots` is order-insensitive: any permutation of
    /// the input lists yields the same (sorted) result.
    #[test]
    fn phase_merge_is_order_insensitive(
        a in arb_phases(),
        b in arb_phases(),
        c in arb_phases(),
    ) {
        let abc = merge_phase_snapshots([a.clone(), b.clone(), c.clone()]);
        let cab = merge_phase_snapshots([c.clone(), a.clone(), b.clone()]);
        let bca = merge_phase_snapshots([b, c, a]);
        prop_assert_eq!(&abc, &cab);
        prop_assert_eq!(&abc, &bca);
        // And the result is sorted by path with unique keys.
        let paths: Vec<&str> = abc.iter().map(|s| s.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(paths, sorted);
    }
}
