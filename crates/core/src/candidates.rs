//! Multi-window candidate enumeration, shared by the systematic algorithms.
//!
//! Given a set of windows (assignments of already-instantiated query
//! variables), enumerate objects of one dataset together with the number of
//! windows they satisfy, visiting only subtrees that can reach a minimum
//! count. With `min_count = windows.len()` this is the conjunctive window
//! query of *window reduction*; with `min_count = 1` it is the candidate
//! generation of IBB ("objects that satisfy the largest number of join
//! conditions are tried first").

use crate::instance::{BackendKind, Instance};
use mwsj_geom::{Predicate, Rect};
use mwsj_query::VarId;
use mwsj_rtree::{grid, multiwindow, RTree};

/// Enumerates `(object, satisfied_count)` for all objects of `var`'s
/// dataset satisfying at least `min_count` of the `windows`, through the
/// instance's selected backend. `min_count` must be ≥ 1.
///
/// Both backends return the identical result *set*; the order differs
/// (R*-tree traversal order vs the grid's canonical `(cell, object)`
/// order), so callers needing a fixed order sort — IBB already sorts by
/// `(count desc, object asc)`.
///
/// Each visited node (R*-tree) or scanned candidate cell (grid) bumps
/// `node_accesses` and, when the slice is long enough, the matching
/// `level_accesses` row (`[0]` = leaf; the grid charges everything to the
/// leaf row). Pass `&mut []` to skip attribution.
pub(crate) fn candidates_with_counts(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Vec<(usize, u32)> {
    match instance.backend() {
        BackendKind::RTree => candidates_in_tree(
            instance.tree(var),
            windows,
            min_count,
            node_accesses,
            level_accesses,
        ),
        BackendKind::Grid => {
            if windows.is_empty() {
                return Vec::new();
            }
            grid::candidates_with_counts(
                instance.grid(var),
                windows,
                min_count,
                node_accesses,
                level_accesses,
            )
            .into_iter()
            .map(|(obj, count)| (obj as usize, count))
            .collect()
        }
    }
}

/// The R*-tree arm: the pruned threshold walk of
/// [`multiwindow::for_each_candidate`] from the root.
pub(crate) fn candidates_in_tree(
    tree: &RTree<u32>,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    multiwindow::for_each_candidate(
        tree.root_node(),
        windows,
        min_count,
        node_accesses,
        level_accesses,
        |obj, count| out.push((obj as usize, count)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (RTree<u32>, Vec<Rect>, Vec<(Predicate, Rect)>) {
        let mut rng = StdRng::seed_from_u64(91);
        let ds = Dataset::uniform(800, 0.3, &mut rng);
        let rects = ds.rects().to_vec();
        let tree = RTree::bulk_load(rects.iter().copied().zip(0u32..).collect());
        let windows = vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (Predicate::Intersects, Rect::new(0.8, 0.8, 0.9, 0.9)),
        ];
        (tree, rects, windows)
    }

    fn brute(rects: &[Rect], windows: &[(Predicate, Rect)], min: u32) -> Vec<(usize, u32)> {
        rects
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let c = windows.iter().filter(|(p, w)| p.eval(r, w)).count() as u32;
                (c >= min).then_some((i, c))
            })
            .collect()
    }

    #[test]
    fn counts_match_brute_force_at_every_threshold() {
        let (tree, rects, windows) = setup();
        let predicates = [
            Predicate::Intersects,
            Predicate::Contains,
            Predicate::Inside,
            Predicate::NorthEast,
            Predicate::SouthWest,
            Predicate::WithinDistance(0.02),
        ];
        // The three large windows, and three point-sized ones placed on
        // objects so that `Contains` has something to find.
        let large: Vec<Rect> = windows.iter().map(|&(_, w)| w).collect();
        let small: Vec<Rect> = [3, 400, 799]
            .map(|i| Rect::from_center(rects[i].center(), 1e-6, 1e-6))
            .to_vec();
        for pred in predicates {
            let mut matched = false;
            for window_rects in [&large, &small] {
                // Under one predicate, then under three.
                let same = [pred; 3];
                let mixed = [pred, pred.transpose(), Predicate::Intersects];
                for preds in [same, mixed] {
                    let windows: Vec<_> = preds
                        .into_iter()
                        .zip(window_rects.iter().copied())
                        .collect();
                    for min in 1..=3 {
                        let mut acc = 0;
                        let mut got = candidates_in_tree(&tree, &windows, min, &mut acc, &mut []);
                        got.sort_unstable();
                        let mut expected = brute(&rects, &windows, min);
                        expected.sort_unstable();
                        assert_eq!(got, expected, "{pred}, min_count {min}");
                        matched |= preds == same && !got.is_empty();
                    }
                }
            }
            assert!(matched, "{pred} matched nothing: the comparison is vacuous");
        }
    }

    #[test]
    fn empty_windows_yield_nothing() {
        let (tree, _, _) = setup();
        let mut acc = 0;
        assert!(candidates_in_tree(&tree, &[], 1, &mut acc, &mut []).is_empty());
    }

    #[test]
    fn higher_threshold_prunes_more() {
        let (tree, _, windows) = setup();
        let mut acc1 = 0;
        let mut acc3 = 0;
        let _ = candidates_in_tree(&tree, &windows, 1, &mut acc1, &mut []);
        let _ = candidates_in_tree(&tree, &windows, 3, &mut acc3, &mut []);
        assert!(acc3 <= acc1, "conjunctive query should visit fewer nodes");
    }
}
