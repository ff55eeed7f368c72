//! Window Reduction (paper §2, \[PMT99\]): exact multiway join by
//! backtracking with index window queries — the engine's one exact join.
//!
//! When the first two variables of the order share an edge whose predicate
//! implies intersection, they open as a pair: the synchronous pairwise
//! join of their trees (\[BKS93\]), the first step of the pairwise join
//! method \[MP99\]. Otherwise the first variable opens alone, in leaf
//! order. Every depth after the opening is IBB's walk ([`crate::ibb`])
//! with its bound held at one violation: a conjunctive multi-window query
//! on the assignments of the variable's placed neighbours, its candidates
//! tried in id order, backtracking when it returns nothing. WR
//! enumerates exactly the set of exact solutions; it cannot return
//! approximate matches (which is precisely the limitation the paper's
//! heuristics address).
//!
//! WR searches the instance's arc-consistent core ([`crate::support`]):
//! the same solutions, over domains the semi-joins have cut down to the
//! objects that can still take part in one.

use crate::budget::{SearchBudget, SearchContext};
use crate::driver::SearchDriver;
use crate::ibb::{descend, Descend, Goal, SearchState};
use crate::instance::Instance;
use crate::pairwise::PairwiseJoin;
use crate::result::RunStats;
use crate::support::implies_intersection;
use mwsj_geom::Rect;
use mwsj_obs::ObsHandle;
use mwsj_query::{Solution, VarId};
use std::ops::ControlFlow;

/// Result of an exact-join enumeration (WR).
#[derive(Debug, Clone, Default)]
pub struct ExactJoinOutcome {
    /// The exact solutions found, in WR's enumeration order —
    /// deterministic for an instance, and no sorted order. A `limit` keeps
    /// a prefix of it.
    pub solutions: Vec<Solution>,
    /// Counters. `steps`: variable instantiations tried — an opening pair
    /// of the first edge's join counts as one, as does each object of a
    /// scanned variable and each candidate of a window query.
    /// `node_accesses`: index nodes read, the opening join's included. Both count the search of the
    /// instance's arc-consistent core, not the pass that built it
    /// ([`Instance::core_node_accesses`]).
    pub stats: RunStats,
    /// `true` if enumeration finished (neither the limit nor the budget
    /// truncated it) — the solution list is then complete.
    pub complete: bool,
}

impl ExactJoinOutcome {
    /// The `run_end` event of an exact join over `instance`: similarity 1
    /// when a solution was found, 0 (every condition violated) when none
    /// was, proven when the enumeration is [`complete`](Self::complete).
    pub fn run_end(&self, instance: &Instance) -> mwsj_obs::RunEvent {
        let (violations, similarity) = if self.solutions.is_empty() {
            (instance.graph().edge_count(), 0.0)
        } else {
            (0, 1.0)
        };
        self.stats.run_end(violations, similarity, self.complete)
    }

    /// Runs `body` on a fresh driver of `instance` for `budget`, under a
    /// `wr` span, and finishes the driver into the outcome's counters.
    pub(crate) fn framed(
        instance: &Instance,
        budget: &SearchBudget,
        obs: &ObsHandle,
        body: impl FnOnce(&mut SearchDriver) -> (Vec<Solution>, bool),
    ) -> ExactJoinOutcome {
        let ctx = SearchContext::local(*budget).with_obs(obs.clone());
        let mut driver = SearchDriver::new(instance, &ctx);
        let _phase = obs.timer.span("wr");
        let (solutions, complete) = body(&mut driver);
        ExactJoinOutcome {
            solutions,
            stats: driver.finish_exact(),
            complete,
        }
    }
}

/// Window reduction.
#[derive(Debug, Clone, Default)]
pub struct WindowReduction {}

impl WindowReduction {
    /// Creates the algorithm.
    pub fn new() -> Self {
        WindowReduction {}
    }

    /// Enumerates up to `limit` exact solutions within `budget`.
    pub fn run(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
    ) -> ExactJoinOutcome {
        self.run_with_obs(instance, budget, limit, &ObsHandle::disabled())
    }

    /// Like [`WindowReduction::run`], additionally reporting counters and
    /// phase timings ("wr") through `obs`.
    ///
    /// WR runs on `instance`'s arc-consistent core ([`Instance::core_sizes`]),
    /// and its solutions are mapped back to `instance`'s object ids. The
    /// pass is built on the first call of any view of the instance, under
    /// a `core` span; its node reads are the instance's
    /// ([`Instance::core_node_accesses`]), not the run's, so a run's
    /// counters do not depend on which run came first. A budget that runs
    /// out during the pass ends the run there, truncated and charged the
    /// pass's reads, and the pass is not kept. An empty domain means no
    /// solution: the outcome is then empty and complete. `limit = 0` asks
    /// for nothing, so it builds nothing.
    pub fn run_with_obs(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        obs: &ObsHandle,
    ) -> ExactJoinOutcome {
        ExactJoinOutcome::framed(instance, budget, obs, |driver| {
            if limit == 0 {
                return (Vec::new(), false);
            }
            let pass = obs.timer.span("core");
            let mut reads = 0;
            let Some(domains) = instance.domains(driver.clock(), &mut reads) else {
                driver.stats_mut().node_accesses += reads;
                return (Vec::new(), false);
            };
            drop(pass);
            if domains.is_empty() {
                return (Vec::new(), true);
            }
            if !domains.pruned() {
                return enumerate(descend, instance, limit, driver);
            }
            let core = instance.core(domains);
            let (mut solutions, complete) = enumerate(descend, &core, limit, driver);
            solutions.iter_mut().for_each(|s| domains.to_original(s));
            (solutions, complete)
        })
    }
}

/// WR itself, on the instance it is given: up to `limit` (≥ 1)
/// solutions, and whether the enumeration completed. `walk` takes every
/// depth after the opening: [`descend`], or a test's reference.
pub(crate) fn enumerate(
    walk: Descend,
    instance: &Instance,
    limit: usize,
    driver: &mut SearchDriver,
) -> (Vec<Solution>, bool) {
    debug_assert!(limit > 0, "the walk pushes before it checks the limit");
    let solutions = Vec::new();
    let mut state = SearchState::new(instance, driver, Goal::Exact { solutions, limit });
    let mut assignment = vec![usize::MAX; instance.n_vars()];
    let mut rects = vec![Rect::EMPTY; instance.n_vars()];
    let pair = match state.order[..] {
        [v0, v1, ..] => (instance.graph().predicate_between(v0, v1)).map(|pred| (v0, v1, pred)),
        _ => None,
    };
    // An opening: one step, its objects placed, and the walk on from the
    // depth after them; `Break` ends the enumeration.
    let mut open = |state: &mut SearchState<'_, '_>, placed: &[(VarId, u32, Rect)]| {
        if state.driver.exhausted() {
            state.truncated = true;
            return ControlFlow::Break(());
        }
        state.driver.step();
        for &(v, object, rect) in placed {
            (assignment[v], rects[v]) = (object as usize, rect);
        }
        match walk(state, placed.len(), &mut assignment, &mut rects, 0) {
            true => ControlFlow::Break(()),
            false => ControlFlow::Continue(()),
        }
    };
    match pair.filter(|&(_, _, pred)| implies_intersection(pred)) {
        // The pairs of the synchronous [`PairwiseJoin`] of the first two
        // variables' trees (\[BKS93\], PJM's first step \[MP99\]) that
        // satisfy the oriented predicate. The join stops where the walk
        // ends; no pair list is built.
        Some((v0, v1, pred)) => {
            let mut opened = None;
            let (reads, _) = PairwiseJoin::visit(instance.tree(v0), instance.tree(v1), |a, b| {
                let (ra, rb) = (instance.rect(v0, a as usize), instance.rect(v1, b as usize));
                if !pred.eval(&ra, &rb) {
                    return ControlFlow::Continue(());
                }
                // The join stands in for the loops of depths 0 and 1: depth
                // 2's pool holds while the first variable's object does.
                if opened.replace(a) != Some(a) {
                    state.new_parent_loop(2);
                }
                open(&mut state, &[(v0, a, ra), (v1, b, rb)])
            });
            state.driver.stats_mut().node_accesses += reads;
        }
        // Otherwise the first variable's objects in leaf order, where
        // consecutive windows are spatial neighbours.
        None => {
            let v0 = state.order[0];
            let mut leaves = instance.objects(v0).iter().zip(instance.rects(v0));
            _ = leaves.try_for_each(|(&object, &rect)| open(&mut state, &[(v0, object, rect)]));
        }
    }
    let Goal::Exact { solutions, .. } = state.goal else {
        unreachable!("the walk keeps its goal")
    };
    let complete = !state.truncated && solutions.len() < limit;
    (solutions, complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::{count_exact_solutions, Dataset, QueryShape};
    use mwsj_query::ConflictState;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(
        seed: u64,
        shape: QueryShape,
        n: usize,
        cardinality: usize,
        density: f64,
    ) -> (Instance, Vec<Dataset>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, density, &mut rng))
            .collect();
        (
            Instance::new(shape.graph(n), datasets.clone()).unwrap(),
            datasets,
        )
    }

    #[test]
    fn wr_count_matches_brute_force() {
        for shape in [QueryShape::Chain, QueryShape::Clique, QueryShape::Cycle] {
            let (inst, datasets) = instance(121, shape, 3, 60, 0.5);
            let outcome =
                WindowReduction::new().run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
            assert!(outcome.complete);
            let brute = count_exact_solutions(&datasets, inst.graph(), u64::MAX);
            assert_eq!(outcome.solutions.len() as u64, brute, "{}", shape.name());
        }
    }

    #[test]
    fn wr_solutions_are_all_exact_and_distinct() {
        let (inst, _) = instance(122, QueryShape::Chain, 4, 40, 0.4);
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
        let mut seen = std::collections::HashSet::new();
        for sol in &outcome.solutions {
            let cs = ConflictState::evaluate(inst.graph(), sol, inst.rect_of());
            assert_eq!(cs.total_violations(), 0);
            assert!(seen.insert(sol.clone()), "duplicate solution {sol}");
        }
    }

    #[test]
    fn wr_respects_solution_limit() {
        let (inst, _) = instance(123, QueryShape::Chain, 3, 60, 1.5);
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(30.0), 5);
        assert_eq!(outcome.solutions.len(), 5);
        assert!(!outcome.complete);
    }

    #[test]
    fn wr_budget_truncation_is_flagged() {
        let (inst, _) = instance(124, QueryShape::Chain, 4, 500, 0.6);
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::iterations(10), usize::MAX);
        assert!(!outcome.complete);
    }

    /// One pass per instance: the first exact join of the instance or of
    /// a clone builds it, every later one — the other's included — finds
    /// it built, and `--limit 0` builds nothing. The pass's reads are the
    /// instance's, so the first run counts what every later one does.
    #[test]
    fn the_pass_is_built_once_and_shared_by_clones() {
        let (inst, _) = instance(126, QueryShape::Chain, 3, 2_000, 0.05);
        let clone = inst.clone();
        let budget = SearchBudget::seconds(30.0);
        let _ = WindowReduction::new().run(&clone, &budget, 0);
        assert_eq!(inst.core_sizes(), None);
        let first = WindowReduction::new().run(&inst, &budget, usize::MAX);
        let sizes = clone.core_sizes().expect("clones share the pass");
        assert!(sizes.iter().all(|&size| size < 2_000), "{sizes:?}");
        assert!(clone.core_node_accesses().is_some_and(|reads| reads > 0));
        let again = WindowReduction::new().run(&inst, &budget, usize::MAX);
        assert!(!first.solutions.is_empty());
        assert_eq!(first.solutions, again.solutions);
        assert_eq!(first.stats.counters(), again.stats.counters());
        let on_clone = WindowReduction::new().run(&clone, &budget, usize::MAX);
        assert_eq!(on_clone.solutions, again.solutions);
    }

    /// On data where every join keeps most objects the pass does not run:
    /// its probes read a small share of what the search reads, it removes
    /// nothing, and the run is WR on the whole instance — same solutions in
    /// the same order, same counters.
    #[test]
    fn the_pass_does_not_run_where_every_join_keeps_most_objects() {
        let (inst, _) = instance(128, QueryShape::Clique, 4, 2_000, 0.4);
        let budget = SearchBudget::seconds(60.0);
        let public = WindowReduction::new().run(&inst, &budget, usize::MAX);
        assert_eq!(inst.core_sizes(), Some(vec![2_000; 4]));
        let join = crate::PairwiseJoin::join(inst.tree(0), inst.tree(1));
        assert!(
            join.pairs.len() > 2_000,
            "the first join keeps most objects"
        );
        let reads = inst.core_node_accesses().unwrap();
        let search = public.stats.node_accesses;
        assert!(reads > 0 && reads < search / 4, "{reads} of {search}");
        let kernel = ExactJoinOutcome::framed(&inst, &budget, &ObsHandle::disabled(), |driver| {
            enumerate(descend, &inst, usize::MAX, driver)
        });
        assert!(public.complete && kernel.complete);
        assert_eq!(public.solutions, kernel.solutions);
        assert_eq!(public.stats.counters(), kernel.stats.counters());
    }

    /// The pass checks the budget before every revision. A budget that runs
    /// out during it ends the run there — truncated, no solution, charged
    /// what the pass read — and the pass is dropped: one that has run out
    /// before the pass starts reads nothing, and the next run with time to
    /// spare builds the pass in full.
    #[test]
    fn a_budget_spent_in_the_pass_stops_the_run() {
        let (inst, _) = instance(127, QueryShape::Clique, 4, 20_000, 0.05);
        let cut = |budget| WindowReduction::new().run(&inst, &budget, usize::MAX);
        let none = cut(SearchBudget::time(std::time::Duration::ZERO));
        assert!(!none.complete && none.solutions.is_empty());
        assert_eq!((none.stats.steps, none.stats.node_accesses), (0, 0));
        let early = cut(SearchBudget::time(std::time::Duration::from_millis(1)));
        assert!(!early.complete && early.solutions.is_empty());
        assert_eq!(early.stats.steps, 0);
        assert_eq!(inst.core_sizes(), None, "a pass cut short is not kept");
        let whole = WindowReduction::new().run(&inst, &SearchBudget::seconds(60.0), usize::MAX);
        assert!(whole.complete);
        let pass = inst
            .core_node_accesses()
            .expect("the full run built the pass");
        assert!(early.stats.node_accesses < pass, "{early:?} of {pass}");
        let sizes = inst.core_sizes().unwrap();
        assert!(sizes.iter().all(|&size| size < 2_000), "{sizes:?}");
    }

    #[test]
    fn wr_empty_result_when_unsatisfiable() {
        let (inst, datasets) = instance(125, QueryShape::Clique, 3, 15, 0.001);
        assert_eq!(count_exact_solutions(&datasets, inst.graph(), 1), 0);
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(10.0), usize::MAX);
        assert!(outcome.complete);
        assert!(outcome.solutions.is_empty());
    }
}
