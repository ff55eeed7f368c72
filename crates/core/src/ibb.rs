//! Indexed Branch and Bound (paper §6): the engine's one systematic walk.
//!
//! A systematic algorithm that retrieves the **best** solution — exact if
//! one exists, otherwise the approximate solution with the minimum
//! inconsistency degree. It extends window reduction \[PMT99\]: variables are
//! instantiated depth-first via (multi-)window queries on the
//! corresponding R*-tree; when no object satisfies *all* conditions
//! against the instantiated prefix, the algorithm does not immediately
//! backtrack but keeps descending as long as the partial solution can
//! still beat the incumbent. Objects satisfying more conditions are tried
//! first, exactly like `find best value`.
//!
//! The incumbent bound is what the two-step methods exploit: seeding IBB
//! with a high-similarity heuristic solution prunes the vast low-quality
//! part of the search space up front (paper Fig. 11). The bound is applied
//! inside the index: each candidate walk asks only for the objects whose
//! satisfied count can still beat the incumbent, so the R*-tree skips the
//! subtrees below that count.
//!
//! Most of a variable's windows come from variables placed before its
//! parent, and stay put while the parent's loop tries object after object.
//! When the count asked for needs some of those fixed windows, the
//! objects satisfying enough of them are asked for once per parent loop
//! (the pool), and each step recounts the pool against the parent's own
//! window instead of walking the index again: the same candidates, with
//! the same counts, so the search is unchanged and only node reads fall.
//! Each depth keeps its windows, candidates and pool in buffers the run
//! owns, so a step allocates nothing.
//!
//! Window reduction is this walk with its bound held at one violation
//! ([`Goal::Exact`]): the candidates are the objects satisfying every
//! window, tried in id order. [`crate::wr`] opens the walk and hands it
//! every depth after the opening.

use crate::budget::{SearchBudget, SearchContext};
use crate::driver::SearchDriver;
use crate::index;
use crate::instance::Instance;
use crate::order::connectivity_order;
use crate::result::RunOutcome;
use mwsj_geom::{Predicate, Rect};
use mwsj_query::{Solution, VarId};

/// Configuration of [`Ibb`].
#[derive(Debug, Clone)]
pub struct IbbConfig {
    /// Incumbent to start from — typically the best solution of a heuristic
    /// pre-step (the two-step methods of §6). IBB then only explores
    /// branches that can *strictly* beat it.
    pub initial: Option<Solution>,
    /// Stop as soon as an exact (zero-violation) solution is found
    /// (`true`, the default — the paper's Fig. 11 measures exactly this
    /// time) instead of exhausting the space to *prove* optimality.
    pub stop_at_exact: bool,
}

impl Default for IbbConfig {
    fn default() -> Self {
        IbbConfig::new()
    }
}

impl IbbConfig {
    /// Default configuration: no initial bound, stop at the first exact
    /// solution.
    pub fn new() -> Self {
        IbbConfig {
            initial: None,
            stop_at_exact: true,
        }
    }

    /// Seeds the search with a heuristic solution.
    pub fn with_initial(solution: Solution) -> Self {
        IbbConfig {
            initial: Some(solution),
            stop_at_exact: true,
        }
    }
}

/// Indexed branch and bound.
#[derive(Debug, Clone, Default)]
pub struct Ibb {
    config: IbbConfig,
}

/// What a walk is for; it sets the bound and what a full assignment does,
/// and nothing else.
pub(crate) enum Goal {
    /// IBB's best solution: the bound is the driver's incumbent, a full
    /// assignment becomes the new one, and an exact one ends the walk if
    /// `stop_at_exact`.
    Best { stop_at_exact: bool },
    /// WR's exact solutions: the bound stays at one violation, a full
    /// assignment is pushed, and the `limit`-th ends the walk.
    Exact {
        solutions: Vec<Solution>,
        limit: usize,
    },
}

/// A walk's signature: [`descend`], or a test's reference.
pub(crate) type Descend =
    fn(&mut SearchState<'_, '_>, usize, &mut [usize], &mut [Rect], usize) -> bool;

pub(crate) struct SearchState<'a, 'd> {
    instance: &'a Instance,
    pub(crate) order: Vec<VarId>,
    /// position of each variable in `order`.
    position: Vec<usize>,
    pub(crate) driver: &'d mut SearchDriver,
    pub(crate) goal: Goal,
    /// Set when the budget ran out (the walk did not finish).
    pub(crate) truncated: bool,
    /// One per depth: what `descend` keeps between calls.
    frames: Vec<Frame>,
}

impl<'a, 'd> SearchState<'a, 'd> {
    pub(crate) fn new(instance: &'a Instance, driver: &'d mut SearchDriver, goal: Goal) -> Self {
        let order = connectivity_order(instance.graph());
        let mut position = vec![0usize; order.len()];
        for (k, &v) in order.iter().enumerate() {
            position[v] = k;
        }
        let frames = order.iter().map(|_| Frame::default()).collect();
        SearchState {
            instance,
            order,
            position,
            driver,
            goal,
            truncated: false,
            frames,
        }
    }

    /// The violations a branch must stay below.
    fn bound(&self) -> usize {
        match self.goal {
            Goal::Best { .. } => self.driver.bound(),
            Goal::Exact { .. } => 1,
        }
    }

    /// Hands a full assignment with `violations` (below the bound) to the
    /// goal; `true` ends the walk.
    fn found(&mut self, assignment: &[usize], violations: usize) -> bool {
        debug_assert!(violations < self.bound());
        let sol = Solution::new(assignment.to_vec());
        match &mut self.goal {
            Goal::Best { stop_at_exact } => {
                self.driver.record_best(&sol, violations);
                violations == 0 && *stop_at_exact
            }
            Goal::Exact { solutions, limit } => {
                solutions.push(sol);
                solutions.len() >= *limit
            }
        }
    }

    /// Forgets `depth`'s pool: the loop one depth up starts over.
    pub(crate) fn new_parent_loop(&mut self, depth: usize) {
        if let Some(frame) = self.frames.get_mut(depth) {
            frame.pool_min = None;
        }
    }
}

/// The buffers of one depth of [`descend`], reused from call to call so
/// that a step allocates nothing once they have grown.
#[derive(Default)]
struct Frame {
    /// The variable's windows, one per neighbour placed before it: first
    /// the fixed ones — of the neighbours placed before the parent (the
    /// variable one depth up), which the parent's loop holds fixed — then
    /// the parent's own, if it is a neighbour.
    windows: Vec<(Predicate, Rect)>,
    /// `(object, count)` of the candidates: best first while they are
    /// tried, then by id for the zero-count scan to skip.
    candidates: Vec<(u32, u32)>,
    /// `(object, count of fixed windows)` of every object satisfying at
    /// least `pool_min` of the fixed windows.
    pool: Vec<(u32, u32)>,
    /// The count the pool was asked for; `None` until it is asked in the
    /// parent's current call. No later call in it needs less, which
    /// [`descend`] debug-asserts.
    pool_min: Option<u32>,
}

impl Ibb {
    /// Creates the algorithm.
    pub fn new(config: IbbConfig) -> Self {
        Ibb { config }
    }

    /// Runs IBB. The search is deterministic; the budget caps wall-clock /
    /// expanded candidates (one step = one candidate instantiation).
    /// `RunOutcome::proven_optimal` reports whether the space was exhausted
    /// (or an exact solution was found), i.e. whether the answer is the
    /// global best.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget) -> RunOutcome {
        self.search(instance, &SearchContext::local(*budget))
    }

    /// Runs IBB under an explicit [`SearchContext`], reporting counters,
    /// phase timings ("ibb") and improvement / stop-reason events through
    /// its handle.
    pub fn search(&self, instance: &Instance, ctx: &SearchContext) -> RunOutcome {
        let mut driver = SearchDriver::new(instance, ctx).with_access_profile(instance);
        let _phase = ctx.obs().timer.span("ibb");
        if let Some(sol) = &self.config.initial {
            driver.seed_incumbent(sol, instance.violations(sol));
        }

        let stop_at_exact = self.config.stop_at_exact;
        let mut state = SearchState::new(instance, &mut driver, Goal::Best { stop_at_exact });
        let mut assignment = vec![usize::MAX; instance.n_vars()];
        let mut rects = vec![Rect::EMPTY; instance.n_vars()];
        // It stops early only at an exact solution, which proves it best.
        let stopped = descend(&mut state, 0, &mut assignment, &mut rects, 0);
        let proven_optimal = !state.truncated || stopped;
        driver.finish_systematic(instance, proven_optimal)
    }
}

/// The systematic walk, from `depth` on: IBB's search or WR's, as the
/// state's [`Goal`] says. Returns `true` when the goal ends the walk.
/// `rects[v]` is the MBR of `assignment[v]` for every instantiated `v`.
///
/// The bound in force when `var`'s candidates are asked for is the walk's
/// `min_count`, so the index returns exactly the candidates the loop can
/// reach before its bound check breaks (the bound only falls): the same
/// search as asking for every object with a count ≥ 1, fewer nodes read.
///
/// A candidate needs `min_count` windows, of which at most `k` (0 or 1)
/// are the parent's own: it satisfies at least `min_count − k` of the
/// windows the parent's loop holds fixed. When that is ≥ 1, the objects
/// that do (the pool) are asked for once per call of the parent, and each
/// call here recounts the pool against the parent's window instead of
/// walking the index. Within one call of the parent `min_count` never
/// falls — its violations only rise and the bound only falls — so the pool
/// asked for first still holds every candidate of the calls after it.
pub(crate) fn descend(
    state: &mut SearchState<'_, '_>,
    depth: usize,
    assignment: &mut [usize],
    rects: &mut [Rect],
    violations_so_far: usize,
) -> bool {
    let instance = state.instance;
    let graph = instance.graph();
    if depth == graph.n_vars() {
        // Below the bound by construction of the bound checks.
        return state.found(assignment, violations_so_far);
    }
    state.new_parent_loop(depth + 1);

    let var = state.order[depth];
    let parent = depth.checked_sub(1).map(|up| state.order[up]);
    let bound = state.bound();
    let frame = &mut state.frames[depth];
    // Windows: assignments of neighbours that precede `var` in the order,
    // the parent's own last.
    frame.windows.clear();
    let mut own = None;
    for &(u, pred) in graph.neighbors(var) {
        if Some(u) == parent {
            own = Some((pred, rects[u]));
        } else if state.position[u] < depth {
            frame.windows.push((pred, rects[u]));
        }
    }
    let fixed = frame.windows.len();
    frame.windows.extend(own);
    let assigned_neighbors = frame.windows.len() as u32;

    // Candidate objects that can still beat the incumbent, best first: a
    // count `c` gives `violations_so_far + assigned − c` violations, below
    // the bound iff `c ≥ violations_so_far + assigned + 1 − bound`.
    frame.candidates.clear();
    if !frame.windows.is_empty() {
        let beat = violations_so_far + frame.windows.len() + 1;
        let min_count = beat.saturating_sub(bound).max(1) as u32;
        let (node_accesses, levels) = state.driver.tally(var);
        let k = own.is_some() as u32;
        if min_count > k {
            let from_fixed = min_count - k;
            // Asked once per call of the parent: `min_count` never falls
            // within it, so the first pool holds every later candidate.
            debug_assert!(frame.pool_min.is_none_or(|asked| asked <= from_fixed));
            if frame.pool_min.is_none() {
                let (fixed, pool) = (&frame.windows[..fixed], &mut frame.pool);
                index::candidates(
                    instance,
                    var,
                    fixed,
                    from_fixed,
                    pool,
                    node_accesses,
                    levels,
                );
                frame.pool_min = Some(from_fixed);
            }
            let own_hit = |obj: u32| {
                let rect = || instance.rect(var, obj as usize);
                own.is_some_and(|(pred, w): (Predicate, Rect)| pred.eval(&rect(), &w)) as u32
            };
            let recounted = frame
                .pool
                .iter()
                .map(|&(obj, count)| (obj, count + own_hit(obj)));
            frame
                .candidates
                .extend(recounted.filter(|&(_, count)| count >= min_count));
        } else {
            let (windows, out) = (&frame.windows, &mut frame.candidates);
            index::candidates(
                instance,
                var,
                windows,
                min_count,
                out,
                node_accesses,
                levels,
            );
        }
    }
    frame
        .candidates
        .sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Try them in decreasing-count order. Indexed, not iterated: the
    // recursion borrows `state`, and uses the frames below this one only.
    for at in 0..state.frames[depth].candidates.len() {
        let (obj, count) = state.frames[depth].candidates[at];
        let new_violations = violations_so_far + (assigned_neighbors - count) as usize;
        if new_violations >= state.bound() {
            // The incumbent improved mid-loop; candidates are sorted by
            // count desc: every later candidate is at least as bad.
            break;
        }
        if state.driver.exhausted() {
            state.truncated = true;
            return false;
        }
        state.driver.step();
        let obj = obj as usize;
        (assignment[var], rects[var]) = (obj, instance.rect(var, obj));
        if descend(state, depth + 1, assignment, rects, new_violations) {
            return true;
        }
    }

    // Zero-count region (or no windows at all, e.g. the first variable):
    // every remaining object violates all `assigned_neighbors` conditions.
    // If the bound admits this region, it admitted it when the walk was
    // issued (the bound only falls), so the walk asked for count ≥ 1, and
    // the loop above ran to its end — it breaks only at violations that
    // reach the bound, and a zero-count object has no fewer — so every
    // candidate was tried: the scan, in id order, steps over them. Sorted
    // by id they cut the ids into gaps, and a gap's objects are scanned
    // without a compare — past the last tried one, and everywhere when
    // none was tried.
    let zero_violations = violations_so_far + assigned_neighbors as usize;
    if zero_violations < state.bound() {
        let tried = &mut state.frames[depth].candidates;
        tried.sort_unstable_by_key(|&(obj, _)| obj);
        let gaps = tried.len() + 1;
        let (mut objects, mut next) = (instance.scan(var), 0);
        'scan: for gap in 0..gaps {
            let candidate = state.frames[depth].candidates.get(gap);
            let end = candidate.map_or(usize::MAX, |&(obj, _)| obj as usize);
            for (obj, rect) in objects.by_ref().take(end - next) {
                // Re-check: the incumbent may have improved mid-loop.
                if zero_violations >= state.bound() {
                    break 'scan;
                }
                if state.driver.exhausted() {
                    state.truncated = true;
                    return false;
                }
                state.driver.step();
                (assignment[var], rects[var]) = (obj, rect);
                if descend(state, depth + 1, assignment, rects, zero_violations) {
                    return true;
                }
            }
            objects.next(); // the tried candidate itself
            next = end.saturating_add(1);
        }
    }

    assignment[var] = usize::MAX;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wr::ExactJoinOutcome;
    use mwsj_datagen::{
        count_exact_solutions, hard_region_density, plant_solution, Dataset, QueryShape,
    };
    use mwsj_obs::ObsHandle;
    use mwsj_query::{Edge, QueryGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted_instance(
        seed: u64,
        shape: QueryShape,
        n: usize,
        cardinality: usize,
    ) -> (Instance, Solution) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = hard_region_density(shape, n, cardinality, 1.0);
        let mut datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        let graph = shape.graph(n);
        let planted = plant_solution(&mut datasets, &graph, &mut rng);
        let inst = Instance::new(graph, datasets).unwrap();
        (inst, planted)
    }

    #[test]
    fn ibb_finds_planted_exact_solution() {
        let (inst, _) = planted_instance(101, QueryShape::Clique, 4, 150);
        let outcome = Ibb::new(IbbConfig::new()).run(&inst, &SearchBudget::seconds(30.0));
        assert!(outcome.is_exact(), "violations {}", outcome.best_violations);
        assert!(outcome.proven_optimal);
        let rect_of = inst.rect_of();
        assert!(inst.graph().is_exact(&outcome.best, rect_of));
    }

    #[test]
    fn ibb_returns_global_best_on_unsatisfiable_instance() {
        // Sparse datasets with no exact solution: IBB must return the true
        // minimum-violation assignment, verified by brute force.
        let mut rng = StdRng::seed_from_u64(102);
        let n = 3;
        let cardinality = 12;
        let d = 0.002; // far below the hard region
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        let graph = QueryGraph::clique(n);
        let ds_for_count = datasets.clone();
        let inst = Instance::new(graph, datasets).unwrap();
        assert_eq!(
            count_exact_solutions(&ds_for_count, inst.graph(), 1),
            0,
            "instance must be unsatisfiable for this test"
        );

        // Brute force minimum violations.
        let mut best_brute = usize::MAX;
        for a in 0..cardinality {
            for b in 0..cardinality {
                for c in 0..cardinality {
                    let v = inst.violations(&Solution::new(vec![a, b, c]));
                    best_brute = best_brute.min(v);
                }
            }
        }

        let mut config = IbbConfig::new();
        config.stop_at_exact = false; // exhaust the space
        let outcome = Ibb::new(config).run(&inst, &SearchBudget::seconds(30.0));
        assert!(outcome.proven_optimal);
        assert_eq!(outcome.best_violations, best_brute);
    }

    #[test]
    fn initial_bound_prunes_work() {
        let (inst, planted) = planted_instance(103, QueryShape::Clique, 4, 120);
        let unseeded = Ibb::new(IbbConfig::new()).run(&inst, &SearchBudget::seconds(30.0));
        // Seed with a near-perfect solution: one variable knocked off.
        let mut near = planted.clone();
        near.set(0, (planted.get(0) + 1) % inst.cardinality(0));
        let seeded =
            Ibb::new(IbbConfig::with_initial(near)).run(&inst, &SearchBudget::seconds(30.0));
        assert!(seeded.is_exact());
        assert!(
            seeded.stats.steps <= unseeded.stats.steps,
            "seeded {} vs unseeded {} steps",
            seeded.stats.steps,
            unseeded.stats.steps
        );
    }

    #[test]
    fn budget_truncation_is_reported() {
        let (inst, _) = planted_instance(104, QueryShape::Clique, 5, 400);
        let outcome = Ibb::new(IbbConfig {
            initial: None,
            stop_at_exact: false,
        })
        .run(&inst, &SearchBudget::iterations(50));
        assert!(
            !outcome.proven_optimal,
            "a 50-step run cannot exhaust this space"
        );
    }

    /// `descend` as it was before the bound went into the walk: every object
    /// satisfying ≥ 1 window is asked for and the bound is applied to the
    /// sorted list afterwards. Kept as the reference the bounded walk is
    /// held to, for either [`Goal`].
    fn reference_descend(
        state: &mut SearchState<'_, '_>,
        depth: usize,
        assignment: &mut [usize],
        rects: &mut [Rect],
        violations_so_far: usize,
    ) -> bool {
        let instance = state.instance;
        let graph = instance.graph();
        if depth == graph.n_vars() {
            return state.found(assignment, violations_so_far);
        }
        let var = state.order[depth];
        let windows: Vec<(Predicate, Rect)> = graph
            .neighbors(var)
            .iter()
            .filter(|&&(u, _)| state.position[u] < depth)
            .map(|&(u, pred)| (pred, rects[u]))
            .collect();
        let assigned_neighbors = windows.len() as u32;
        let mut candidates = Vec::new();
        if !windows.is_empty() {
            let (node_accesses, levels) = state.driver.tally(var);
            index::candidates(
                instance,
                var,
                &windows,
                1,
                &mut candidates,
                node_accesses,
                levels,
            );
        }
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(obj, count) in &candidates {
            let new_violations = violations_so_far + (assigned_neighbors - count) as usize;
            if new_violations >= state.bound() {
                break;
            }
            if state.driver.exhausted() {
                state.truncated = true;
                return false;
            }
            state.driver.step();
            let obj = obj as usize;
            (assignment[var], rects[var]) = (obj, instance.rect(var, obj));
            if reference_descend(state, depth + 1, assignment, rects, new_violations) {
                return true;
            }
        }
        let zero_violations = violations_so_far + assigned_neighbors as usize;
        if zero_violations < state.bound() {
            let mut tried: Vec<usize> = candidates.iter().map(|&(obj, _)| obj as usize).collect();
            tried.sort_unstable();
            let mut tried = tried.into_iter().peekable();
            for (obj, rect) in instance.scan(var) {
                if tried.next_if_eq(&obj).is_some() {
                    continue;
                }
                if zero_violations >= state.bound() {
                    break;
                }
                if state.driver.exhausted() {
                    state.truncated = true;
                    return false;
                }
                state.driver.step();
                (assignment[var], rects[var]) = (obj, rect);
                if reference_descend(state, depth + 1, assignment, rects, zero_violations) {
                    return true;
                }
            }
        }
        assignment[var] = usize::MAX;
        false
    }

    /// [`Ibb::run`] over [`reference_descend`].
    fn run_reference(config: &IbbConfig, instance: &Instance, budget: &SearchBudget) -> RunOutcome {
        let ctx = SearchContext::local(*budget);
        let mut driver = SearchDriver::new(instance, &ctx);
        if let Some(sol) = &config.initial {
            driver.seed_incumbent(sol, instance.violations(sol));
        }
        let stop_at_exact = config.stop_at_exact;
        let mut state = SearchState::new(instance, &mut driver, Goal::Best { stop_at_exact });
        let mut assignment = vec![usize::MAX; instance.n_vars()];
        let mut rects = vec![Rect::EMPTY; instance.n_vars()];
        let stopped = reference_descend(&mut state, 0, &mut assignment, &mut rects, 0);
        let proven_optimal = !state.truncated || stopped;
        driver.finish_systematic(instance, proven_optimal)
    }

    /// WR's kernel over `walk` (WR's opening join, then `walk` with the
    /// exact goal).
    fn run_exact(
        walk: Descend,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
    ) -> ExactJoinOutcome {
        ExactJoinOutcome::framed(instance, budget, &ObsHandle::disabled(), |driver| {
            crate::wr::enumerate(walk, instance, limit, driver)
        })
    }

    /// WR ran the search the reference runs for the exact goal: the same
    /// solutions in the same order, steps and completeness, and no more
    /// nodes read.
    fn assert_same_exact_search(
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        case: &str,
    ) {
        let got = run_exact(descend, instance, budget, limit);
        let want = run_exact(reference_descend, instance, budget, limit);
        assert_eq!(got.solutions, want.solutions, "{case}");
        assert_eq!(got.stats.steps, want.stats.steps, "{case}");
        assert_eq!(got.complete, want.complete, "{case}");
        let (read, ref_read) = (got.stats.node_accesses, want.stats.node_accesses);
        assert!(read <= ref_read, "{case}: {read} > {ref_read}");
    }

    /// `got` ran the search `want` ran — the same best, `(step,
    /// similarity)` trace, improvements, top list, steps and proof — and
    /// read no more nodes.
    fn assert_same_search(got: &RunOutcome, want: &RunOutcome, case: &str) {
        let curve = |o: &RunOutcome| -> Vec<(u64, f64)> {
            o.trace.iter().map(|p| (p.step, p.similarity)).collect()
        };
        assert_eq!(got.best, want.best, "{case}");
        assert_eq!(got.best_violations, want.best_violations, "{case}");
        assert_eq!(curve(got), curve(want), "{case}");
        assert_eq!(got.stats.improvements, want.stats.improvements, "{case}");
        assert_eq!(got.top_solutions, want.top_solutions, "{case}");
        assert_eq!(got.stats.steps, want.stats.steps, "{case}");
        assert_eq!(got.proven_optimal, want.proven_optimal, "{case}");
        let (read, ref_read) = (got.stats.node_accesses, want.stats.node_accesses);
        assert!(read <= ref_read, "{case}: {read} > {ref_read}");
    }

    /// The bounded walk runs the reference's search: the same best, trace,
    /// improvements, top list, steps and proof, on every query shape, with
    /// no seed, a heuristic seed and a near-optimal one,
    /// stopping at the first exact solution or not, under step budgets that
    /// truncate and one that mostly does not — reading no more nodes, and
    /// fewer on cliques, where a variable has several assigned neighbours.
    #[test]
    fn bounded_walk_is_the_count_one_search() {
        use crate::ils::{Ils, IlsConfig};
        let shapes = [
            QueryShape::Chain,
            QueryShape::Star,
            QueryShape::Cycle,
            QueryShape::Clique,
            QueryShape::Random,
        ];
        let (mut cases, mut fewer_on_a_clique) = (0, false);
        for (s, shape) in shapes.into_iter().enumerate() {
            for n in 3..=6 {
                let seed = 900 + 10 * s as u64 + n as u64;
                let (inst, planted) = planted_instance(seed, shape, n, 100);
                let inst = &inst;
                let heuristic = Ils::new(IlsConfig::default()).run(
                    inst,
                    &SearchBudget::iterations(60),
                    &mut StdRng::seed_from_u64(seed),
                );
                let mut near = planted.clone();
                near.set(n - 1, (planted.get(n - 1) + 1) % inst.cardinality(n - 1));
                let seeds = [None, Some(heuristic.best), Some(near)];
                for initial in &seeds {
                    for stop_at_exact in [true, false] {
                        for steps in [7, 90, 3_000] {
                            let config = IbbConfig {
                                initial: initial.clone(),
                                stop_at_exact,
                            };
                            let budget = SearchBudget::iterations(steps);
                            let got = Ibb::new(config.clone()).run(inst, &budget);
                            let want = run_reference(&config, inst, &budget);
                            let case = format!(
                                "{} n={n} seeded={} stop={stop_at_exact} steps={steps}",
                                shape.name(),
                                initial.is_some()
                            );
                            assert_same_search(&got, &want, &case);
                            let (read, ref_read) =
                                (got.stats.node_accesses, want.stats.node_accesses);
                            fewer_on_a_clique |= shape == QueryShape::Clique && read < ref_read;
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 4 * 3 * 2 * 3);
        assert!(fewer_on_a_clique, "the threshold never pruned a node");
    }

    const PREDICATES: [Predicate; 6] = [
        Predicate::Intersects,
        Predicate::Contains,
        Predicate::Inside,
        Predicate::NorthEast,
        Predicate::SouthWest,
        Predicate::WithinDistance(0.02),
    ];

    /// A drawn instance: `shape`'s graph on `n` variables with every edge
    /// labelled `PREDICATES[pred]` (`pred == 6`: edge `i` gets
    /// `PREDICATES[i % 6]`), over uniform datasets of 20–119 objects.
    fn drawn_instance(
        seed: u64,
        shape: QueryShape,
        n: usize,
        pred: usize,
        density: f64,
    ) -> Instance {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        let shaped = shape.graph_seeded(n, seed);
        let edges = shaped.edges().iter().enumerate().map(|(i, &edge)| Edge {
            pred: PREDICATES[if pred == 6 { i % 6 } else { pred }],
            ..edge
        });
        let graph = QueryGraph::from_edges(n, edges.collect()).unwrap();
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(rng.random_range(20..120), density, &mut rng))
            .collect();
        Instance::new(graph, datasets).unwrap()
    }

    proptest::proptest! {
        /// The pooled search is the count-one search on drawn instances:
        /// every query shape — chains and cliques, where a variable's
        /// parent is one of its neighbours, stars, where it is not, and
        /// cycles and random graphs, which have both —, each of the six
        /// predicates on every edge or a mix, sparse to dense data, no
        /// seed, a random solution or a short ILS best as the
        /// seed, stopping at the first exact solution or not, under a drawn
        /// step budget: [`assert_same_search`] against [`run_reference`].
        /// WR's exact goal runs on the same instance under the same
        /// budget, with a drawn limit: [`assert_same_exact_search`].
        #[test]
        fn pooled_search_is_the_count_one_search(
            seed in proptest::prelude::any::<u64>(),
            shape in 0usize..5,
            n in 3usize..7,
            pred in 0usize..7,
            density in 0.05f64..2.0,
            seeded in 0u8..3,
            stop_at_exact in proptest::prelude::any::<bool>(),
            steps in 1u64..4_000,
            limit in 1usize..300,
        ) {
            use crate::ils::{Ils, IlsConfig};
            let shape = [
                QueryShape::Chain,
                QueryShape::Star,
                QueryShape::Cycle,
                QueryShape::Clique,
                QueryShape::Random,
            ][shape];
            let inst = drawn_instance(seed, shape, n, pred, density);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1BB);
            let initial = match seeded {
                0 => None,
                1 => Some(inst.random_solution(&mut rng)),
                _ => {
                    let ils = Ils::new(IlsConfig::default());
                    Some(ils.run(&inst, &SearchBudget::iterations(40), &mut rng).best)
                }
            };
            let config = IbbConfig { initial, stop_at_exact };
            let budget = SearchBudget::iterations(steps);
            let got = Ibb::new(config.clone()).run(&inst, &budget);
            let want = run_reference(&config, &inst, &budget);
            let case = format!(
                "{} n={n} pred={pred} density={density} seeded={seeded} \
                 stop={stop_at_exact} steps={steps}",
                shape.name(),
            );
            assert_same_search(&got, &want, &case);
            assert_same_exact_search(&inst, &budget, limit, &format!("{case} limit={limit}"));
        }
    }

    #[test]
    fn ibb_agrees_with_brute_force_on_chain() {
        let mut rng = StdRng::seed_from_u64(105);
        let datasets: Vec<Dataset> = (0..3)
            .map(|_| Dataset::uniform(15, 0.05, &mut rng))
            .collect();
        let graph = QueryGraph::chain(3);
        let inst = Instance::new(graph, datasets).unwrap();
        let mut best_brute = usize::MAX;
        for a in 0..15 {
            for b in 0..15 {
                for c in 0..15 {
                    best_brute = best_brute.min(inst.violations(&Solution::new(vec![a, b, c])));
                }
            }
        }
        let outcome = Ibb::new(IbbConfig {
            initial: None,
            stop_at_exact: false,
        })
        .run(&inst, &SearchBudget::seconds(30.0));
        assert_eq!(outcome.best_violations, best_brute);
        assert!(outcome.proven_optimal);
    }
}
