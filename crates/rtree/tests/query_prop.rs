//! Property-based tests: every query kind agrees with a linear scan on
//! arbitrary data, at node capacities 4, 8 and 32.

use mwsj_geom::{Predicate, Rect};
use mwsj_rtree::{RTree, RTreeParams};
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_query_agrees_with_scan(
        rects in prop::collection::vec(arb_rect(), 1..120),
        window in arb_rect(),
    ) {
        let expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| i)
            .collect();
        for tree in trees_of(&rects) {
            prop_assert!(tree.check_invariants().is_ok());
            let mut got: Vec<usize> = tree.window(&window).map(|(_, v)| *v).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn predicate_query_agrees_with_scan(
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
            let mut got: Vec<usize> =
                tree.query_predicate(pred, &window).map(|(_, v)| *v).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "predicate {}", pred);
        }
    }
}
