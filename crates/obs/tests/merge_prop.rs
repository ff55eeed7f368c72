//! Property-based tests for the deterministic merge of histogram
//! snapshots: merging preserves the exact count and sum and is
//! commutative — the algebraic facts behind a registry that several runs
//! (a portfolio's restarts, a two-step pipeline's stages) absorb into.

use mwsj_obs::HistogramSnapshot;
use proptest::prelude::*;

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
}
