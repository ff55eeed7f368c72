//! Property-based tests: the single-window walk agrees with a linear scan
//! on arbitrary data, under every predicate, at node capacities 4, 8 and 32.

use mwsj_geom::{Predicate, Rect};
use mwsj_rtree::{multiwindow::for_each_candidate, RTree, RTreeParams};
use proptest::prelude::*;

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

fn trees_of(rects: &[Rect]) -> Vec<RTree<usize>> {
    let items: Vec<(Rect, usize)> = rects.iter().copied().zip(0..).collect();
    [4, 8, 32]
        .map(|cap| RTree::bulk_load_with_params(RTreeParams::new(cap), items.clone()))
        .into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `for_each_candidate` with one window and `min_count = 1` emits the
    /// entries a linear scan of the input finds, in ascending leaf-array
    /// position (`leaf_values()` filtered in array order).
    #[test]
    fn single_window_walk_agrees_with_scan(
        rects in prop::collection::vec(arb_rect(), 1..120),
        window in arb_rect(),
        pred in arb_pred(),
    ) {
        let expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.eval(r, &window))
            .map(|(i, _)| i)
            .collect();
        for tree in trees_of(&rects) {
            prop_assert!(tree.check_invariants().is_ok());
            let mut got = Vec::new();
            let windows = [(pred, window)];
            for_each_candidate(tree.root_node(), &windows, 1, &mut 0, &mut [], |v, _| {
                got.push(v)
            });
            let in_leaf_order: Vec<usize> = tree
                .iter()
                .filter(|(r, _)| pred.eval(r, &window))
                .map(|(_, v)| *v)
                .collect();
            prop_assert_eq!(&got, &in_leaf_order, "predicate {}", pred);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "predicate {}", pred);
        }
    }
}
