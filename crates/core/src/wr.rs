//! Window Reduction (paper §2, \[PMT99\]): exact multiway join by
//! backtracking with index window queries.
//!
//! The first variable in the order takes every value of its dataset; each
//! subsequent variable is instantiated via a conjunctive multi-window query
//! (the assignments of its already-instantiated neighbours), backtracking
//! when the query returns nothing. WR enumerates exactly the set of exact
//! solutions; it cannot return approximate matches (which is precisely the
//! limitation the paper's heuristics address).
//!
//! WR, ST and PJM search the instance's arc-consistent core
//! ([`crate::support`]): the same solutions, over domains the semi-joins
//! have cut down to the objects that can still take part in one.

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
    /// still inside a subtree — whatever pruning found them. Both count
    /// the search of the instance's arc-consistent core, not the pass
    /// that built it ([`Instance::core_node_accesses`]).
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

    /// Runs `kernel` — an enumeration of up to `limit` solutions of the
    /// instance it is given, returning them and whether it completed —
    /// on `instance`'s arc-consistent core ([`crate::support`]), and maps
    /// its solutions back to `instance`'s object ids. The pass is built on
    /// the first call of any view of the instance, under a `core` span;
    /// its node reads are the instance's ([`Instance::core_node_accesses`]),
    /// not the run's, so a run's counters do not depend on which run came
    /// first. A budget that runs out during the pass ends the run there,
    /// truncated and charged the pass's reads, and the pass is not kept.
    /// An empty domain means no solution: the outcome is then empty and
    /// complete. `limit = 0` asks for nothing, so it builds nothing.
    pub(crate) fn on_core(
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        obs: &ObsHandle,
        phase: &'static str,
        kernel: impl FnOnce(&Instance, &mut BudgetClock, &mut RunStats) -> (Vec<Solution>, bool),
    ) -> ExactJoinOutcome {
        ExactJoinOutcome::framed(budget, obs, phase, |clock, stats| {
            if limit == 0 {
                return kernel(instance, clock, stats);
            }
            let pass = clock.obs().timer.span("core");
            let mut reads = 0;
            let Some(domains) = instance.domains(clock, &mut reads) else {
                stats.node_accesses += reads;
                return (Vec::new(), false);
            };
            drop(pass);
            if domains.is_empty() {
                return (Vec::new(), true);
            }
            if !domains.pruned() {
                return kernel(instance, clock, stats);
            }
            let (mut solutions, complete) = kernel(&instance.core(domains), clock, stats);
            solutions.iter_mut().for_each(|s| domains.to_original(s));
            (solutions, complete)
        })
    }

    /// Runs `body` under a fresh clock for `budget` and a `phase` span,
    /// and finishes the clock into the outcome's counters.
    pub(crate) fn framed(
        budget: &SearchBudget,
        obs: &ObsHandle,
        phase: &'static str,
        body: impl FnOnce(&mut BudgetClock, &mut RunStats) -> (Vec<Solution>, bool),
    ) -> ExactJoinOutcome {
        let ctx = SearchContext::local(*budget).with_obs(obs.clone());
        let mut clock = BudgetClock::from_context(&ctx);
        let _phase = clock.obs().timer.span(phase);
        let mut stats = RunStats::default();
        let (solutions, complete) = body(&mut clock, &mut stats);
        clock.finish(&mut stats);
        ExactJoinOutcome {
            solutions,
            stats,
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
    pub fn run_with_obs(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        obs: &ObsHandle,
    ) -> ExactJoinOutcome {
        ExactJoinOutcome::on_core(instance, budget, limit, obs, "wr", |core, clock, stats| {
            enumerate(core, limit, clock, stats)
        })
    }
}

/// WR itself, on the instance it is given: up to `limit` solutions, and
/// whether the enumeration completed.
pub(crate) fn enumerate(
    instance: &Instance,
    limit: usize,
    clock: &mut BudgetClock,
    stats: &mut RunStats,
) -> (Vec<Solution>, bool) {
    let graph = instance.graph();
    let order = connectivity_order(graph);
    let mut position = vec![0usize; order.len()];
    for (k, &v) in order.iter().enumerate() {
        position[v] = k;
    }
    let mut state = WrState {
        instance,
        order,
        position,
        clock,
        stats,
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
    let complete = !state.truncated && state.solutions.len() < limit;
    (state.solutions, complete)
}

struct WrState<'a> {
    instance: &'a Instance,
    order: Vec<usize>,
    position: Vec<usize>,
    clock: &'a mut BudgetClock,
    stats: &'a mut RunStats,
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
        let mut candidates = Vec::new();
        index::candidates(
            instance,
            var,
            &windows,
            required,
            &mut candidates,
            &mut state.stats.node_accesses,
            &mut [],
        );
        for (obj, _) in candidates {
            let obj = obj as usize;
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

    /// One pass per instance: the first exact join of either backend view
    /// builds it, every later one — the other view's included — finds it
    /// built, and `--limit 0` builds nothing. The pass's reads are the
    /// instance's, so the first run counts what every later one does.
    #[test]
    fn the_pass_is_built_once_and_shared_by_the_views() {
        let (inst, _) = instance(126, QueryShape::Chain, 3, 2_000, 0.05);
        let grid = inst.clone().with_backend(crate::BackendKind::Grid);
        let budget = SearchBudget::seconds(30.0);
        let _ = WindowReduction::new().run(&grid, &budget, 0);
        assert_eq!(inst.core_sizes(), None);
        let first = WindowReduction::new().run(&inst, &budget, usize::MAX);
        let sizes = grid.core_sizes().expect("the views share the pass");
        assert!(sizes.iter().all(|&size| size < 2_000), "{sizes:?}");
        assert!(grid.core_node_accesses().is_some_and(|reads| reads > 0));
        let again = WindowReduction::new().run(&inst, &budget, usize::MAX);
        assert!(!first.solutions.is_empty());
        assert_eq!(first.solutions, again.solutions);
        assert_eq!(first.stats.counters(), again.stats.counters());
        let mut on_grid = WindowReduction::new().run(&grid, &budget, usize::MAX);
        let mut wanted = again.solutions;
        let by_objects = |a: &Solution, b: &Solution| a.as_slice().cmp(b.as_slice());
        on_grid.solutions.sort_by(by_objects);
        wanted.sort_by(by_objects);
        assert_eq!(on_grid.solutions, wanted);
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
        let kernel =
            ExactJoinOutcome::framed(&budget, &ObsHandle::disabled(), "wr", |clock, stats| {
                enumerate(&inst, usize::MAX, clock, stats)
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
