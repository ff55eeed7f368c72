//! A solution under search, with everything a step needs of it at hand.

use crate::find_best_value::BestValue;
use crate::instance::Instance;
use crate::window_cache::WindowCache;
use mwsj_geom::Rect;
use mwsj_query::{ConflictState, PenaltyTable, QueryGraph, Solution, VarId};
use rand::rngs::StdRng;
use rand::RngExt;

/// A solution with its cached evaluation and the MBR of each assignment,
/// so that a search step reads the datasets' rectangle arrays only inside
/// the index kernel: the climbing solution of ILS and GILS, one member of
/// SEA's population.
#[derive(Debug)]
pub(crate) struct Individual {
    pub sol: Solution,
    pub cs: ConflictState,
    /// `rects[v] == instance.rect(v, sol.get(v))`.
    pub rects: Vec<Rect>,
}

impl Clone for Individual {
    fn clone(&self) -> Self {
        Individual {
            sol: self.sol.clone(),
            cs: self.cs.clone(),
            rects: self.rects.clone(),
        }
    }

    /// Reuses all of `self`'s vectors: selection copies a whole population
    /// every generation.
    fn clone_from(&mut self, source: &Self) {
        self.sol.clone_from(&source.sol);
        self.cs.clone_from(&source.cs);
        self.rects.clone_from(&source.rects);
    }
}

impl Individual {
    pub(crate) fn new(instance: &Instance, sol: Solution) -> Self {
        let rects: Vec<Rect> = (0..sol.len())
            .map(|v| instance.rect(v, sol.get(v)))
            .collect();
        let cs = ConflictState::evaluate(instance.graph(), &sol, |v, _| rects[v]);
        Individual { sol, cs, rects }
    }

    /// Overwrites `self` in place with `seed`, or else with a random
    /// solution drawn as [`Instance::random_solution`] draws it.
    pub(crate) fn reseed(&mut self, instance: &Instance, seed: Option<Solution>, rng: &mut StdRng) {
        match seed {
            Some(sol) => self.sol = sol,
            None => {
                for v in 0..instance.n_vars() {
                    let object = rng.random_range(0..instance.cardinality(v));
                    self.sol.set(v, object);
                }
            }
        }
        for (v, rect) in self.rects.iter_mut().enumerate() {
            *rect = instance.rect(v, self.sol.get(v));
        }
        let rects = &self.rects;
        self.cs
            .evaluate_into(instance.graph(), &self.sol, |v, _| rects[v]);
    }

    /// The best value for `var` given the other assignments, through
    /// `cache` and with the windows read from the rectangles carried here.
    /// `tally` is `(node_accesses, level_accesses)`.
    pub(crate) fn best_value(
        &self,
        cache: &mut WindowCache,
        instance: &Instance,
        var: VarId,
        penalties: Option<(&PenaltyTable, f64)>,
        tally: (&mut u64, &mut [u64]),
    ) -> Option<BestValue> {
        let rects = &self.rects;
        cache.find_best_value_with(instance, &self.sol, var, penalties, |v, _| rects[v], tally)
    }

    /// [`Individual::best_value`], raw, if it satisfies more conditions
    /// than `var`'s current assignment, the only answer ILS's climb and
    /// SEA's mutation take; a question the support bits show cannot be
    /// answered so is not asked ([`WindowCache::improving_value_with`]).
    pub(crate) fn improving_value(
        &self,
        cache: &mut WindowCache,
        instance: &Instance,
        var: VarId,
        tally: (&mut u64, &mut [u64]),
    ) -> Option<BestValue> {
        let current = self.cs.satisfied_of(instance.graph(), var);
        let rects = &self.rects;
        cache.improving_value_with(instance, &self.sol, var, current, |v, _| rects[v], tally)
    }

    /// The invariant the searches keep after every step: the carried
    /// rectangles and evaluation are those of the solution.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self, instance: &Instance) {
        for (v, rect) in self.rects.iter().enumerate() {
            assert_eq!(*rect, instance.rect(v, self.sol.get(v)));
        }
        assert_eq!(self.cs, instance.evaluate(&self.sol));
    }

    /// Re-instantiates `var` with `best`, the answer to a question about it.
    pub(crate) fn assign(&mut self, graph: &QueryGraph, var: VarId, best: &BestValue) {
        self.rects[var] = best.rect;
        let rects = &self.rects;
        self.cs
            .reassign(graph, &mut self.sol, var, best.object, |v, _| rects[v]);
    }
}
