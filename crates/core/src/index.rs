//! The one module that knows which index answers a question.
//!
//! Every algorithm of the paper asks its index one of two questions: *the
//! best object for these windows* ([`best`] — find best value, Fig. 5) or
//! *every object satisfying at least `k` of these windows* ([`candidates`]
//! — the conjunctive window query of WR and PJM with `k = windows.len()`,
//! the candidate generation of IBB with `k = 1`). PJM's opening move, the
//! join of two whole datasets, is the third entry point ([`first_pair`]).
//!
//! Each is answered by the instance's selected [`BackendKind`]: the
//! R*-tree through the two traversals of [`mwsj_rtree::multiwindow`] and
//! the synchronous join of [`crate::pairwise`], the uniform grid through the
//! three kernels of [`mwsj_rtree::grid`] (best entry, candidates, cell-pair
//! join). Every
//! `match` on the backend is in this file; the algorithms above it never
//! see which index they run on. (Synchronous traversal is not a question
//! to an index but a descent of the trees themselves, which every instance
//! has — it does not come through here.)
//!
//! Each visited node (R*-tree) or scanned candidate cell (grid) bumps
//! `node_accesses` and, when the slice is long enough, the matching
//! `level_accesses` row (`[0]` = leaf; the grid charges everything to the
//! leaf row). Pass `&mut []` to skip attribution.

use crate::find_best_value::BestValue;
use crate::instance::{BackendKind, Instance};
use crate::pairwise::PairwiseJoin;
use mwsj_geom::{Predicate, Rect};
use mwsj_query::{PenaltyTable, VarId};
use mwsj_rtree::{grid, multiwindow};

/// The object of `var`'s dataset with the best score against pre-built
/// `windows`, or `None` when no object satisfies any of them.
///
/// This is the shared back half of [`find_best_value`](crate::find_best_value)
/// and the [`WindowCache`](crate::WindowCache) fast path. Raw mode scores
/// an object by its satisfied count; penalty mode subtracts `λ·penalty` —
/// both as `f64`, which reproduces the paper's raw strict-count comparison
/// exactly because `u32 → f64` is lossless.
///
/// # Panics
/// Panics if penalty mode's λ is negative, infinite or NaN: both kernels
/// prune on "no object scores above its satisfied count", which only a
/// finite λ ≥ 0 keeps true, and would return an object that is not the
/// best.
pub(crate) fn best(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    penalties: Option<(&PenaltyTable, f64)>,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestValue> {
    if let Some((_, lambda)) = penalties {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "GILS penalty weight λ must be finite and ≥ 0, got {lambda}"
        );
    }
    // One arm per (backend, scorer): each kernel is instantiated with the
    // one closure it runs, which it can inline.
    let best = match (instance.backend(), penalties) {
        (BackendKind::RTree, Some((table, lambda))) => multiwindow::find_best_leaf_leveled(
            instance.tree(var).root_node(),
            windows,
            |&object, count| count as f64 - lambda * table.get(var, object as usize) as f64,
            node_accesses,
            level_accesses,
        ),
        (BackendKind::RTree, None) => multiwindow::find_best_leaf_leveled(
            instance.tree(var).root_node(),
            windows,
            |_, count| count as f64,
            node_accesses,
            level_accesses,
        ),
        (BackendKind::Grid, Some((table, lambda))) => grid::best_in_windows(
            instance.grid(var),
            windows,
            |&object, count| count as f64 - lambda * table.get(var, object as usize) as f64,
            node_accesses,
            level_accesses,
        ),
        (BackendKind::Grid, None) => grid::best_in_windows(
            instance.grid(var),
            windows,
            |_, count| count as f64,
            node_accesses,
            level_accesses,
        ),
    }?;
    Some(BestValue {
        object: best.value as usize,
        rect: best.rect,
        satisfied: best.satisfied,
        effective: best.score,
    })
}

/// Enumerates `(object, satisfied_count)` for all objects of `var`'s
/// dataset satisfying at least `min_count` (≥ 1) of the `windows`; empty
/// `windows` yield nothing.
///
/// Both backends return the identical result *set*; the order differs
/// (R*-tree walk order — ascending leaf position — vs the grid's canonical
/// `(cell, object)` order), so callers needing a fixed order sort — IBB
/// already sorts by `(count desc, object asc)`.
pub(crate) fn candidates(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Vec<(usize, u32)> {
    match instance.backend() {
        BackendKind::RTree => {
            let mut out = Vec::new();
            multiwindow::for_each_candidate(
                instance.tree(var).root_node(),
                windows,
                min_count,
                node_accesses,
                level_accesses,
                |object, count| out.push((object as usize, count)),
            );
            out
        }
        BackendKind::Grid => grid::candidates_with_counts(
            instance.grid(var),
            windows,
            min_count,
            node_accesses,
            level_accesses,
        )
        .into_iter()
        .map(|(object, count)| (object as usize, count))
        .collect(),
    }
}

/// PJM's first pair: every `[a, b]` with `a` an object of `v0`, `b` one of
/// `v1` and `a pred b`, in the deterministic order of the join that
/// produced it.
///
/// An overlap join on the R*-tree is the synchronous [`PairwiseJoin`] of
/// the two trees. On the grid, the three predicates that imply intersection
/// are the cell-pair join of the two grids ([`grid::join`]). Everything
/// else is an index-nested-loop: each object of `v0`, in leaf order (no
/// order is promised, and consecutive leaves are spatial neighbours, so
/// consecutive probes walk the same part of `v1`'s index), probes `v1`'s
/// index with the transposed predicate.
pub(crate) fn first_pair(
    instance: &Instance,
    v0: VarId,
    v1: VarId,
    pred: Predicate,
    node_accesses: &mut u64,
) -> Vec<Vec<usize>> {
    use Predicate::{Contains, Inside, Intersects};
    let mut out = Vec::new();
    match (instance.backend(), pred) {
        (BackendKind::RTree, Intersects) => {
            let join = PairwiseJoin::join(instance.tree(v0), instance.tree(v1));
            *node_accesses += join.node_accesses;
            let pairs = join.pairs.into_iter();
            out.extend(pairs.map(|(a, b)| vec![a as usize, b as usize]));
        }
        (BackendKind::Grid, Intersects | Contains | Inside) => grid::join(
            instance.grid(v0),
            instance.grid(v1),
            pred,
            node_accesses,
            |a, b| out.push(vec![a as usize, b as usize]),
        ),
        _ => {
            for (&a, w) in instance.objects(v0).iter().zip(instance.rects(v0)) {
                let window = [(pred.transpose(), *w)];
                let hits = candidates(instance, v1, &window, 1, node_accesses, &mut []);
                out.extend(hits.into_iter().map(|(b, _)| vec![a as usize, b]));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::Dataset;
    use mwsj_query::QueryGraph;
    use mwsj_rtree::NodeRef;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PREDICATES: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.02),
    ];

    /// A two-variable instance over two datasets of `n` objects, on both
    /// backends.
    fn both_backends(seed: u64, n: usize, density: f64) -> [Instance; 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..2)
            .map(|_| Dataset::uniform(n, density, &mut rng))
            .collect();
        let rtree = Instance::new(QueryGraph::chain(2), datasets).unwrap();
        let grid = rtree.clone().with_backend(BackendKind::Grid);
        [rtree, grid]
    }

    fn large_windows() -> Vec<(Predicate, Rect)> {
        vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (Predicate::Intersects, Rect::new(0.8, 0.8, 0.9, 0.9)),
        ]
    }

    fn brute(inst: &Instance, windows: &[(Predicate, Rect)], min: u32) -> Vec<(usize, u32)> {
        inst.scan(0)
            .filter_map(|(i, r)| {
                let c = windows.iter().filter(|(p, w)| p.eval(&r, w)).count() as u32;
                (c >= min).then_some((i, c))
            })
            .collect()
    }

    #[test]
    fn counts_match_brute_force_at_every_threshold() {
        for inst in both_backends(91, 800, 0.3) {
            let backend = inst.backend().name();
            // The three large windows, and three point-sized ones placed on
            // objects so that `Contains` has something to find.
            let large: Vec<Rect> = large_windows().iter().map(|&(_, w)| w).collect();
            let small: Vec<Rect> = [3, 400, 799]
                .map(|i| Rect::from_center(inst.rect(0, i).center(), 1e-6, 1e-6))
                .to_vec();
            for pred in PREDICATES {
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
                            let mut got = candidates(&inst, 0, &windows, min, &mut 0, &mut []);
                            got.sort_unstable();
                            let expected = brute(&inst, &windows, min);
                            assert_eq!(got, expected, "{backend}: {pred}, min_count {min}");
                            matched |= preds == same && !got.is_empty();
                        }
                    }
                }
                assert!(matched, "{pred} matched nothing: the comparison is vacuous");
            }
        }
    }

    #[test]
    fn empty_windows_yield_nothing() {
        for inst in both_backends(91, 800, 0.3) {
            let mut acc = 0;
            assert!(candidates(&inst, 0, &[], 1, &mut acc, &mut []).is_empty());
            assert_eq!(acc, 0);
        }
    }

    #[test]
    fn higher_threshold_prunes_more() {
        let [rtree, _] = both_backends(91, 800, 0.3);
        let (mut acc1, mut acc3) = (0, 0);
        let _ = candidates(&rtree, 0, &large_windows(), 1, &mut acc1, &mut []);
        let _ = candidates(&rtree, 0, &large_windows(), 3, &mut acc3, &mut []);
        assert!(acc3 <= acc1, "conjunctive query should visit fewer nodes");
    }

    /// Nodes a depth-first window query enters: the root, and every node
    /// whose MBR could hold a match.
    fn nodes_entered(node: NodeRef<'_, u32>, pred: Predicate, w: &Rect) -> u64 {
        let below = node.entries().filter(|e| pred.possible(e.mbr(), w));
        1 + below
            .filter_map(|e| e.child())
            .map(|child| nodes_entered(child, pred, w))
            .sum::<u64>()
    }

    /// The first pair under every predicate. The index-nested-loop on the
    /// R*-tree: tuples ordered by `v0` leaf position and then by `v1` leaf
    /// position, and one access per node entered, root included — the
    /// order and the count of a depth-first window query per object. On the
    /// grid the same set, every pair once.
    #[test]
    fn first_pair_keeps_its_order_and_its_accesses() {
        // The second dataset is the first with every other rectangle grown
        // and the rest shrunk, so that containment has pairs to find.
        let first = Dataset::uniform(300, 0.4, &mut StdRng::seed_from_u64(93));
        let resized = first.rects().iter().zip(0..).map(|(r, i)| {
            let scale = if i % 2 == 0 { 1.5 } else { 0.5 };
            Rect::from_center(r.center(), scale * r.width(), scale * r.height())
        });
        let second: Vec<Rect> = resized.collect();
        let rtree = Instance::new(QueryGraph::chain(2), [first.rects(), &second[..]]).unwrap();
        let grid = rtree.clone().with_backend(BackendKind::Grid);
        for pred in PREDICATES {
            let (mut expected, mut visited) = (Vec::new(), 0);
            for (&a, w) in rtree.objects(0).iter().zip(rtree.rects(0)) {
                let to_a = pred.transpose();
                visited += nodes_entered(rtree.tree(1).root_node(), to_a, w);
                let hits = rtree.rects(1).iter().zip(rtree.objects(1));
                expected.extend(
                    hits.filter(|(r, _)| to_a.eval(r, w))
                        .map(|(_, &b)| vec![a as usize, b as usize]),
                );
            }
            assert!(!expected.is_empty(), "{pred} matched nothing");
            for (a, b) in expected.iter().map(|t| (t[0], t[1])) {
                assert!(pred.eval(&rtree.rect(0, a), &rtree.rect(1, b)), "{pred}");
            }
            if pred != Predicate::Intersects {
                let mut accesses = 0;
                let got = first_pair(&rtree, 0, 1, pred, &mut accesses);
                assert_eq!(got, expected, "{pred}");
                assert_eq!(accesses, visited, "{pred}");
            }

            let mut cells = 0;
            let mut on_grid = first_pair(&grid, 0, 1, pred, &mut cells);
            assert!(cells > 0, "{pred}");
            on_grid.sort();
            expected.sort();
            assert_eq!(on_grid, expected, "{pred} on the grid");
        }
    }
}
