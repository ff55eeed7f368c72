//! Layout-equivalence properties for the probe-only flat kernel (the only
//! check on code the benchmark's `rtree.multiwindow` probe times): the
//! multi-window kernel must be **bit-identical** — same best leaf, same
//! score, same node-access count — whether it scans the tree's own
//! rectangle arrays or the flat SoA copy. Randomized STR trees go up to 10k entries
//! at node capacities 4, 8 and 32, with and without penalty-style scorers.

use mwsj_geom::{Predicate, Rect};
use mwsj_rtree::{multiwindow, RTree, RTreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.2, 0.0f64..0.2)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::Intersects),
        Just(Predicate::Contains),
        Just(Predicate::Inside),
        Just(Predicate::NorthEast),
        Just(Predicate::SouthWest),
        (0.0f64..0.3).prop_map(Predicate::WithinDistance),
    ]
}

fn trees_of(rects: &[Rect]) -> Vec<RTree<u32>> {
    let items: Vec<(Rect, u32)> = rects.iter().copied().zip(0u32..).collect();
    [4, 8, 32]
        .map(|cap| RTree::bulk_load_with_params(RTreeParams::new(cap), items.clone()))
        .into()
}

/// Runs both kernels over `tree` and asserts bit-identity of the result
/// and of the node-access counter.
fn assert_layouts_agree(
    tree: &RTree<u32>,
    windows: &[(Predicate, Rect)],
    penalty: Option<f64>,
) -> Result<(), TestCaseError> {
    let flat = tree.flat_leaves();
    // The scorer must be a pure function of (value, count) so both
    // traversals see the same numbers in the same order.
    let score = |v: &u32, c: u32| match penalty {
        Some(lambda) => c as f64 - lambda * (*v % 7) as f64,
        None => c as f64,
    };
    let mut acc_entry = 0u64;
    let entry = multiwindow::find_best_leaf(tree.root_node(), windows, score, &mut acc_entry);
    let mut acc_flat = 0u64;
    let flat_best =
        multiwindow::find_best_leaf_flat(tree.root_node(), &flat, windows, score, &mut acc_flat);
    prop_assert_eq!(acc_entry, acc_flat, "node accesses diverge between layouts");
    match (entry, flat_best) {
        (None, None) => {}
        (Some(e), Some(f)) => {
            prop_assert_eq!(e.value, f.value, "winning leaf value diverges");
            prop_assert_eq!(e.satisfied, f.satisfied, "satisfied count diverges");
            // Bit-identical, not approximately equal.
            prop_assert_eq!(
                e.score.to_bits(),
                f.score.to_bits(),
                "score bits diverge: {} vs {}",
                e.score,
                f.score
            );
        }
        (e, f) => prop_assert!(
            false,
            "one layout found a leaf, the other not: {e:?} vs {f:?}"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_and_entry_layouts_are_bit_identical(
        rects in prop::collection::vec(arb_rect(), 1..600),
        windows in prop::collection::vec((arb_pred(), arb_rect()), 1..5),
        lambda in prop_oneof![Just(None), (0.01f64..0.5).prop_map(Some)],
    ) {
        for tree in trees_of(&rects) {
            assert_layouts_agree(&tree, &windows, lambda)?;
        }
    }
}

/// The proptest sizes stay small for case throughput; this fixed-seed test
/// drives both kernels over 10k-entry trees (the large-tier cardinality)
/// with many random multi-window queries, raw and penalised.
#[test]
fn layouts_agree_on_ten_thousand_entries() {
    let mut rng = StdRng::seed_from_u64(0x5f1a);
    let rand_rect = |rng: &mut StdRng| {
        let x = rng.random_range(0.0..1.0);
        let y = rng.random_range(0.0..1.0);
        let w = rng.random_range(0.0..0.05);
        let h = rng.random_range(0.0..0.05);
        Rect::new(x, y, x + w, y + h)
    };
    let rects: Vec<Rect> = (0..10_000).map(|_| rand_rect(&mut rng)).collect();
    let preds = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::WithinDistance(0.1),
    ];
    for tree in trees_of(&rects) {
        for trial in 0..20 {
            let windows: Vec<(Predicate, Rect)> = (0..1 + trial % 4)
                .map(|i| (preds[(trial + i) % preds.len()], rand_rect(&mut rng)))
                .collect();
            let lambda = if trial % 2 == 0 { None } else { Some(0.125) };
            assert_layouts_agree(&tree, &windows, lambda).unwrap();
        }
    }
}
