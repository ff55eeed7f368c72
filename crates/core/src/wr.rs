//! Window Reduction (paper §2, \[PMT99\]): exact multiway join by
//! backtracking with index window queries.
//!
//! The first variable in the order takes every value of its dataset; each
//! subsequent variable is instantiated via a conjunctive multi-window query
//! (the assignments of its already-instantiated neighbours), backtracking
//! when the query returns nothing. WR enumerates exactly the set of exact
//! solutions; it cannot return approximate matches (which is precisely the
//! limitation the paper's heuristics address).

use crate::budget::{BudgetClock, SearchBudget, SearchContext};
use crate::index;
use crate::instance::Instance;
use crate::order::connectivity_order;
use crate::result::RunStats;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::ObsHandle;
use mwsj_query::Solution;

/// Result of an exact-join enumeration (WR, ST or PJM).
#[derive(Debug, Clone, Default)]
pub struct ExactJoinOutcome {
    /// The exact solutions found, in the algorithm's own enumeration order
    /// — deterministic for an instance and a backend, different between
    /// algorithms and backends, and no sorted order. A `limit` keeps a
    /// prefix of it.
    pub solutions: Vec<Solution>,
    /// Counters. `steps`: variable instantiations tried (WR), combinations
    /// expanded (ST), intermediate tuples extended plus one for the first
    /// pair (PJM). `node_accesses`: index nodes or grid cells read; for ST,
    /// the nodes held by the expanded combinations — one per variable
    /// still inside a subtree — whatever pruning found them.
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
    pub fn run_with_obs(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        obs: &ObsHandle,
    ) -> ExactJoinOutcome {
        let graph = instance.graph();
        let order = connectivity_order(graph);
        let mut position = vec![0usize; order.len()];
        for (k, &v) in order.iter().enumerate() {
            position[v] = k;
        }
        let ctx = SearchContext::local(*budget).with_obs(obs.clone());
        let clock = BudgetClock::from_context(&ctx);
        let _phase = clock.obs().timer.span("wr");
        let mut state = WrState {
            instance,
            order,
            position,
            clock,
            stats: RunStats::default(),
            solutions: Vec::new(),
            limit,
            truncated: false,
        };
        let mut assignment = vec![usize::MAX; instance.n_vars()];
        let mut rects = vec![Rect::EMPTY; instance.n_vars()];
        // `limit = 0` asks for nothing: `descend` would push the first
        // solution before looking at the limit.
        if limit > 0 {
            descend(&mut state, 0, &mut assignment, &mut rects);
        }
        let mut stats = state.stats;
        state.clock.finish(&mut stats);
        let complete = !state.truncated && state.solutions.len() < state.limit;
        ExactJoinOutcome {
            solutions: state.solutions,
            stats,
            complete,
        }
    }
}

struct WrState<'a> {
    instance: &'a Instance,
    order: Vec<usize>,
    position: Vec<usize>,
    clock: BudgetClock,
    stats: RunStats,
    solutions: Vec<Solution>,
    limit: usize,
    truncated: bool,
}

/// Returns `true` when enumeration should stop (limit or budget hit).
/// `rects[v]` is the MBR of `assignment[v]` for every instantiated `v`.
fn descend(
    state: &mut WrState<'_>,
    depth: usize,
    assignment: &mut [usize],
    rects: &mut [Rect],
) -> bool {
    let instance = state.instance;
    let graph = instance.graph();
    if depth == graph.n_vars() {
        state.solutions.push(Solution::new(assignment.to_vec()));
        return state.solutions.len() >= state.limit;
    }
    let var = state.order[depth];
    let windows: Vec<(Predicate, Rect)> = graph
        .neighbors(var)
        .iter()
        .filter(|&&(u, _)| state.position[u] < depth)
        .map(|&(u, pred)| (pred, rects[u]))
        .collect();

    if windows.is_empty() {
        // First variable (or a variable with no instantiated neighbours —
        // impossible on connected graphs past depth 0): full scan, in leaf
        // order — the order the rectangles are stored in, and one in which
        // consecutive windows are spatial neighbours.
        for (&obj, &rect) in instance.objects(var).iter().zip(instance.rects(var)) {
            if state.clock.exhausted() {
                state.truncated = true;
                return true;
            }
            state.clock.step();
            (assignment[var], rects[var]) = (obj as usize, rect);
            if descend(state, depth + 1, assignment, rects) {
                return true;
            }
        }
    } else {
        // Conjunctive window query: every condition must hold.
        let required = windows.len() as u32;
        let candidates = index::candidates(
            instance,
            var,
            &windows,
            required,
            &mut state.stats.node_accesses,
            &mut [],
        );
        for (obj, _) in candidates {
            if state.clock.exhausted() {
                state.truncated = true;
                return true;
            }
            state.clock.step();
            (assignment[var], rects[var]) = (obj, instance.rect(var, obj));
            if descend(state, depth + 1, assignment, rects) {
                return true;
            }
        }
    }
    assignment[var] = usize::MAX;
    false
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

    #[test]
    fn wr_empty_result_when_unsatisfiable() {
        let (inst, datasets) = instance(125, QueryShape::Clique, 3, 15, 0.001);
        assert_eq!(count_exact_solutions(&datasets, inst.graph(), 1), 0);
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(10.0), usize::MAX);
        assert!(outcome.complete);
        assert!(outcome.solutions.is_empty());
    }
}
