//! *Find best value* (paper §3, Fig. 5): a branch-and-bound multi-window
//! query.
//!
//! Given a solution and a variable `vᵢ` to re-instantiate, the assignments
//! of `vᵢ`'s query-graph neighbours act as query *windows*; the goal is the
//! object of dataset `Dᵢ` that satisfies the most join conditions against
//! those windows. The traversal starts at the root of `vᵢ`'s R*-tree,
//! sorts each node's entries by the number of windows they (can) satisfy,
//! visits them best-first, and prunes any subtree whose potential count
//! cannot exceed the best leaf count found so far.
//!
//! GILS extends the comparison with assignment penalties (paper §4): the
//! *effective* value of an object is `satisfied − λ·penalty(vᵢ ← object)`.
//! Penalties only lower a value, so no object below the top satisfied count
//! `t` scores above `t − 1`: the objects at `t`, re-scored, answer the
//! question whenever their best beats `t − 1` (DESIGN.md §5e).
//!
//! The traversal itself is the shared multi-window kernel in
//! [`mwsj_rtree::multiwindow`], reached through
//! `index::best`; this module builds the windows from the query graph. In
//! the hard region most questions have no answer at all, and `index::best`
//! answers those from the instance's support bits without reading a node
//! (DESIGN.md §5e, "A question no object can answer is not walked"). ILS
//! and SEA use an answer only if it beats the variable's current count;
//! they do not ask at all when the support bits show that no object can
//! (§5e, "A question whose answer cannot be used is not asked").
//! Hot loops should prefer
//! [`WindowCache::find_best_value`](crate::WindowCache), which remembers
//! each variable's last question (and, for a population, the questions its
//! members asked) with its answer, and skips the traversal entirely when a
//! question is asked again.

use crate::index;
use crate::instance::Instance;
use crate::window_cache::WindowCache;
use mwsj_geom::{Predicate, Rect};
use mwsj_query::{PenaltyTable, Solution, VarId};

/// Result of a [`find_best_value`] search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestValue {
    /// The best object of the variable's dataset.
    pub object: usize,
    /// Its MBR — [`Instance::rect`]`(var, object)`, read where the
    /// traversal found it, so a caller that keeps its assignment's
    /// rectangles at hand need not look it up.
    pub rect: Rect,
    /// Number of join conditions the object satisfies against the current
    /// assignments of the variable's neighbours.
    pub satisfied: u32,
    /// `satisfied − λ·penalty`; equals `satisfied` when no penalties are in
    /// play.
    pub effective: f64,
}

/// Retrieves the best value for `var` given the other assignments in `sol`
/// (paper Fig. 5). Returns `None` when no object satisfies any join
/// condition (the paper's `bestValue = ∅`).
///
/// `penalties` activates GILS mode: leaf values are compared by their
/// λ-discounted effective value, answered as GILS answers it — by a fresh
/// [`WindowCache`] re-scoring the objects at the top count. `node_accesses`
/// is incremented once per R*-tree node visited; a question the support
/// bits rule out visits none.
/// The first question about an instance builds its support bits.
///
/// # Panics
/// Panics if the penalty weight λ of `penalties` is negative, infinite or
/// NaN: "no object off the top count scores above it" holds only for a
/// finite λ ≥ 0.
pub fn find_best_value(
    instance: &Instance,
    sol: &Solution,
    var: VarId,
    penalties: Option<(&PenaltyTable, f64)>,
    node_accesses: &mut u64,
) -> Option<BestValue> {
    if penalties.is_some() {
        let mut cache = WindowCache::new(instance);
        return cache.find_best_value(instance, sol, var, penalties, node_accesses);
    }
    // The windows: one per neighbour, with the predicate oriented var → u.
    let neighbors = instance.graph().neighbors(var);
    let assigned: Vec<usize> = neighbors.iter().map(|&(u, _)| sol.get(u)).collect();
    let windows: Vec<(Predicate, Rect)> = (neighbors.iter().zip(&assigned))
        .map(|(&(u, pred), &object)| (pred, instance.rect(u, object)))
        .collect();
    index::best(instance, var, &windows, &assigned, node_accesses, &mut [])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::Dataset;
    use mwsj_query::{QueryGraph, QueryGraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute-force reference implementation.
    fn brute_best(
        instance: &Instance,
        sol: &Solution,
        var: VarId,
        penalties: Option<(&PenaltyTable, f64)>,
    ) -> Option<BestValue> {
        let windows: Vec<(Predicate, Rect)> = instance
            .graph()
            .neighbors(var)
            .iter()
            .map(|&(u, pred)| (pred, instance.rect(u, sol.get(u))))
            .collect();
        let mut best: Option<BestValue> = None;
        for obj in 0..instance.cardinality(var) {
            let r = instance.rect(var, obj);
            let count = windows.iter().filter(|(pred, w)| pred.eval(&r, w)).count() as u32;
            if count == 0 {
                continue;
            }
            let effective = match penalties {
                Some((t, l)) => count as f64 - l * t.get(var, obj) as f64,
                None => count as f64,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    if penalties.is_some() {
                        effective > b.effective
                    } else {
                        count > b.satisfied
                    }
                }
            };
            if better {
                best = Some(BestValue {
                    object: obj,
                    rect: r,
                    satisfied: count,
                    effective,
                });
            }
        }
        best
    }

    fn random_instance(seed: u64, n: usize, cardinality: usize, density: f64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = QueryGraph::clique(n);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, density, &mut rng))
            .collect();
        Instance::new(graph, datasets).unwrap()
    }

    #[test]
    fn matches_brute_force_on_satisfied_count() {
        let inst = random_instance(51, 5, 400, 0.3);
        let mut rng = StdRng::seed_from_u64(52);
        for _ in 0..50 {
            let sol = inst.random_solution(&mut rng);
            for var in 0..5 {
                let mut acc = 0u64;
                let fast = find_best_value(&inst, &sol, var, None, &mut acc);
                let slow = brute_best(&inst, &sol, var, None);
                match (fast, slow) {
                    (None, None) => {}
                    (Some(f), Some(s)) => {
                        // Several objects may tie; the counts must agree.
                        assert_eq!(f.satisfied, s.satisfied, "var {var}");
                    }
                    (f, s) => panic!("mismatch: fast {f:?} vs slow {s:?}"),
                }
                assert!(acc > 0, "traversal must visit at least the root");
            }
        }
    }

    #[test]
    fn returns_none_when_nothing_intersects() {
        // Two far-apart clusters: dataset 1 near origin, dataset 0 far away.
        let d0 = vec![Rect::new(0.9, 0.9, 0.95, 0.95)];
        let d1 = vec![
            Rect::new(0.0, 0.0, 0.05, 0.05),
            Rect::new(0.1, 0.1, 0.15, 0.15),
        ];
        let inst = Instance::new(QueryGraph::chain(2), vec![d0, d1]).unwrap();
        let sol = Solution::new(vec![0, 0]);
        let mut acc = 0;
        assert_eq!(find_best_value(&inst, &sol, 1, None, &mut acc), None);
    }

    #[test]
    fn paper_example_prefers_object_intersecting_both_windows() {
        // Three datasets; the middle variable should pick the object that
        // overlaps both neighbours rather than one of them.
        let left = vec![Rect::new(0.0, 0.0, 0.3, 0.3)];
        let right = vec![Rect::new(0.5, 0.5, 0.8, 0.8)];
        let middle = vec![
            Rect::new(0.0, 0.0, 0.1, 0.1),     // hits left only
            Rect::new(0.25, 0.25, 0.55, 0.55), // hits both
            Rect::new(0.6, 0.6, 0.7, 0.7),     // hits right only
        ];
        let graph = QueryGraphBuilder::new(3)
            .edge(1, 0)
            .edge(1, 2)
            .build()
            .unwrap();
        let inst = Instance::new(graph, vec![left, middle, right]).unwrap();
        let sol = Solution::new(vec![0, 0, 0]);
        let mut acc = 0;
        let best = find_best_value(&inst, &sol, 1, None, &mut acc).unwrap();
        assert_eq!(best.object, 1);
        assert_eq!(best.satisfied, 2);
    }

    #[test]
    fn penalties_steer_away_from_punished_assignments() {
        // Two identical objects both satisfying one window; penalising the
        // first must make the second win.
        let d0 = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let d1 = vec![Rect::new(0.2, 0.2, 0.4, 0.4), Rect::new(0.2, 0.2, 0.4, 0.4)];
        let inst = Instance::new(QueryGraph::chain(2), vec![d0, d1]).unwrap();
        let sol = Solution::new(vec![0, 0]);
        let mut table = PenaltyTable::new();
        table.penalize(1, 0);
        let mut acc = 0;
        let best = find_best_value(&inst, &sol, 1, Some((&table, 0.1)), &mut acc).unwrap();
        assert_eq!(best.object, 1, "penalised object 0 should lose the tie");
        assert!((best.effective - 1.0).abs() < 1e-12);
    }

    #[test]
    fn penalty_mode_matches_brute_force() {
        let inst = random_instance(53, 4, 300, 0.3);
        let mut rng = StdRng::seed_from_u64(54);
        let mut table = PenaltyTable::new();
        // Random penalties.
        use rand::RngExt;
        for _ in 0..200 {
            table.penalize(rng.random_range(0..4), rng.random_range(0..300));
        }
        let lambda = 0.05;
        for _ in 0..30 {
            let sol = inst.random_solution(&mut rng);
            for var in 0..4 {
                let mut acc = 0;
                let fast = find_best_value(&inst, &sol, var, Some((&table, lambda)), &mut acc);
                let slow = brute_best(&inst, &sol, var, Some((&table, lambda)));
                match (fast, slow) {
                    (None, None) => {}
                    (Some(f), Some(s)) => {
                        assert!(
                            (f.effective - s.effective).abs() < 1e-12,
                            "var {var}: fast {f:?} vs slow {s:?}"
                        );
                    }
                    (f, s) => panic!("mismatch: fast {f:?} vs slow {s:?}"),
                }
            }
        }
    }

    /// One penalised query at `lambda`. Pruning on "no
    /// object scores above its count" is wrong for a negative or NaN λ:
    /// before λ was checked, the 200 calls of
    /// `penalty_mode_matches_brute_force` run at λ = −0.5 returned another
    /// effective value than `brute_best` 46 times, and at NaN another
    /// object 133 times (at 0.5: never).
    fn penalised_queries(lambda: f64) {
        let inst = random_instance(57, 4, 300, 0.3);
        let mut table = PenaltyTable::new();
        table.penalize(0, 7);
        let sol = Solution::new(vec![0; 4]);
        let _ = find_best_value(&inst, &sol, 0, Some((&table, lambda)), &mut 0);
    }

    #[test]
    #[should_panic(expected = "λ must be finite and ≥ 0, got -0.5")]
    fn a_negative_lambda_is_refused() {
        penalised_queries(-0.5);
    }

    #[test]
    #[should_panic(expected = "λ must be finite and ≥ 0, got NaN")]
    fn a_nan_lambda_is_refused() {
        penalised_queries(f64::NAN);
    }

    #[test]
    fn pruning_reduces_node_accesses() {
        let inst = random_instance(55, 3, 5_000, 0.2);
        let mut rng = StdRng::seed_from_u64(56);
        let sol = inst.random_solution(&mut rng);
        let mut accesses = 0;
        let _ = find_best_value(&inst, &sol, 0, None, &mut accesses);
        let total_nodes = inst.tree(0).node_count() as u64;
        assert!(
            accesses < total_nodes,
            "visited {accesses} of {total_nodes} nodes — pruning ineffective"
        );
    }
}
