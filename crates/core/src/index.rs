//! The one module that asks the index a question.
//!
//! Every algorithm of the paper asks its index one of two questions: *the
//! best object for these windows* ([`best`] — find best value, Fig. 5; for
//! GILS's penalised scores, the objects that tie on the top count,
//! [`top_objects`], which the window cache re-scores) or
//! *every object satisfying at least `k` of these windows* ([`candidates`]
//! — the conjunctive window query of WR with `k = windows.len()`,
//! the candidate generation of IBB with `k` the least count that can still
//! beat its incumbent).
//!
//! Each is answered by the variable's R*-tree through the two traversals
//! of [`mwsj_rtree::multiwindow`]. (WR's opening pairwise join is not a
//! question to an index but a descent of the trees themselves — it does
//! not come through here.)
//!
//! Each visited node bumps `node_accesses` and, when the slice is long
//! enough, the matching `level_accesses` row (`[0]` = leaf). Pass `&mut
//! []` to skip attribution. A best-value question ([`best`],
//! [`top_objects`]) that the instance's support bits rule out — no object
//! of the variable satisfies any of its windows — is answered empty
//! before the index is asked, and touches no counter ([`crate::support`]).

use crate::find_best_value::BestValue;
use crate::instance::Instance;
use mwsj_geom::{Predicate, Rect};
use mwsj_query::VarId;
use mwsj_rtree::multiwindow;

/// The object of `var`'s dataset that satisfies the most of the pre-built
/// `windows`, or `None` when no object satisfies any of them.
///
/// This is the raw back half of [`find_best_value()`](crate::find_best_value())
/// and of the [`WindowCache`](crate::WindowCache): the score is the
/// satisfied count as `f64`, which reproduces the paper's strict-count
/// comparison exactly because `u32 → f64` is lossless. A penalised question
/// re-scores the objects [`top_objects`] lists instead.
///
/// `windows` are the neighbour windows of `var` in
/// `graph().neighbors(var)` order and `assignments` the neighbour objects
/// they are the rectangles of: a question the support bits rule out is
/// answered `None` without a walk.
pub(crate) fn best(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    assignments: &[usize],
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestValue> {
    if instance.support().live(var, assignments.iter().copied()) == Some(0) {
        return None;
    }
    walk_best(instance, var, windows, node_accesses, level_accesses)
}

/// [`best`] without the support check: the tree's best-first kernel.
pub(crate) fn walk_best(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) -> Option<BestValue> {
    let best = multiwindow::find_best_leaf_leveled(
        instance.tree(var).root_node(),
        windows,
        |_, count| count as f64,
        node_accesses,
        level_accesses,
    )?;
    Some(BestValue {
        object: best.value as usize,
        rect: best.rect,
        satisfied: best.satisfied,
        effective: best.score,
    })
}

/// Fills `out` with the `(object, satisfied_count)` of the objects of
/// `var`'s dataset that reach the top count of `windows` — `widen`ed, of
/// every object with a count ≥ 1 — in the order the best-first kernel
/// breaks ties in: for any score at most the count, the first strict
/// maximum of `out` is the object the kernel would return.
///
/// It runs the best-first kernel with a scorer that records what it is
/// offered and scores a leaf ½ below its count — so the kernel cuts only
/// what counts *below* the running top, and offers every tie, in its own
/// order — or, widened, ½ whatever the count, which cuts nothing.
/// `assignments` are as for [`best`]: a question the support bits rule out has an empty
/// list, and walks nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn top_objects(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    assignments: &[usize],
    widen: bool,
    out: &mut Vec<(u32, u32)>,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) {
    out.clear();
    if instance.support().live(var, assignments.iter().copied()) != Some(0) {
        walk_top_objects(
            instance,
            var,
            windows,
            widen,
            out,
            node_accesses,
            level_accesses,
        );
    }
}

/// [`top_objects`] without the support check, into an empty `out`.
pub(crate) fn walk_top_objects(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    widen: bool,
    out: &mut Vec<(u32, u32)>,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) {
    let record = |&object: &u32, count: u32| {
        out.push((object, count));
        f64::from(if widen { 1 } else { count }) - 0.5
    };
    let root = instance.tree(var).root_node();
    multiwindow::find_best_leaf_leveled(root, windows, record, node_accesses, level_accesses);
    let top = out.iter().map(|&(_, count)| count).max().unwrap_or(0);
    let keep = if widen { 1 } else { top };
    out.retain(|&(_, count)| count >= keep);
}

/// Fills `out` with `(object, satisfied_count)` for all objects of `var`'s
/// dataset satisfying at least `min_count` (≥ 1) of the `windows`; empty
/// `windows` yield nothing. A caller that reuses `out` allocates nothing
/// once it has grown.
///
/// They come in walk order, ascending leaf position. Its one caller, the
/// systematic walk ([`crate::ibb`], IBB's and WR's), sorts by `(count
/// desc, object asc)`.
pub(crate) fn candidates(
    instance: &Instance,
    var: VarId,
    windows: &[(Predicate, Rect)],
    min_count: u32,
    out: &mut Vec<(u32, u32)>,
    node_accesses: &mut u64,
    level_accesses: &mut [u64],
) {
    out.clear();
    multiwindow::for_each_candidate(
        instance.tree(var).root_node(),
        windows,
        min_count,
        node_accesses,
        level_accesses,
        |object, count| out.push((object, count)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::Dataset;
    use mwsj_query::QueryGraph;
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

    /// A two-variable instance over two datasets of `n` objects.
    fn instance(seed: u64, n: usize, density: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..2)
            .map(|_| Dataset::uniform(n, density, &mut rng))
            .collect();
        Instance::new(QueryGraph::chain(2), datasets).unwrap()
    }

    fn large_windows() -> Vec<(Predicate, Rect)> {
        vec![
            (Predicate::Intersects, Rect::new(0.1, 0.1, 0.4, 0.4)),
            (Predicate::Intersects, Rect::new(0.3, 0.3, 0.6, 0.6)),
            (Predicate::Intersects, Rect::new(0.8, 0.8, 0.9, 0.9)),
        ]
    }

    fn brute(inst: &Instance, windows: &[(Predicate, Rect)], min: u32) -> Vec<(u32, u32)> {
        inst.scan(0)
            .filter_map(|(i, r)| {
                let c = windows.iter().filter(|(p, w)| p.eval(&r, w)).count() as u32;
                (c >= min).then_some((i as u32, c))
            })
            .collect()
    }

    #[test]
    fn counts_match_brute_force_at_every_threshold() {
        let inst = instance(91, 800, 0.3);
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
                        let mut got = Vec::new();
                        candidates(&inst, 0, &windows, min, &mut got, &mut 0, &mut []);
                        got.sort_unstable();
                        let expected = brute(&inst, &windows, min);
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
        let inst = instance(91, 800, 0.3);
        let (mut acc, mut got) = (0, vec![(0, 0)]);
        candidates(&inst, 0, &[], 1, &mut got, &mut acc, &mut []);
        assert!(got.is_empty());
        assert_eq!(acc, 0);
    }

    #[test]
    fn higher_threshold_prunes_more() {
        let rtree = instance(91, 800, 0.3);
        let (mut acc1, mut acc3, mut got) = (0, 0, Vec::new());
        candidates(&rtree, 0, &large_windows(), 1, &mut got, &mut acc1, &mut []);
        candidates(&rtree, 0, &large_windows(), 3, &mut got, &mut acc3, &mut []);
        assert!(acc3 <= acc1, "conjunctive query should visit fewer nodes");
    }
}
