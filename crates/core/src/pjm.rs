//! Pairwise Join Method (paper §2, \[MP99\]): exact multiway joins composed
//! from pairwise R-tree joins.
//!
//! The first two variables of a connectivity order are joined with the
//! BKS93 synchronous pairwise join; every further variable is attached by
//! an index-nested-loop step that, for each intermediate tuple, runs a
//! conjunctive multi-window query against the new variable's R*-tree. The
//! intermediate result is materialised between steps — the source of PJM's
//! memory blow-up on high-selectivity queries, and the reason it cannot be
//! adapted to approximate retrieval (intermediate pairs must intersect).

use crate::budget::{BudgetClock, SearchBudget, SearchContext};
use crate::candidates::candidates_with_counts;
use crate::instance::{BackendKind, Instance};
use crate::order::connectivity_order;
use crate::pairwise::PairwiseJoin;
use crate::result::RunStats;
use crate::wr::ExactJoinOutcome;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::ObsHandle;
use mwsj_query::Solution;
use mwsj_rtree::AccessCounter;

/// Join-order strategy for [`Pjm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PjmOrder {
    /// Cost-based greedy ordering \[MP99\]: start with the edge whose
    /// estimated pairwise output (`Nᵢ·Nⱼ·(|rᵢ|+|rⱼ|)²`, extents measured
    /// from the data) is smallest, then repeatedly attach the connected
    /// variable with the smallest estimated growth factor. Minimises the
    /// materialised intermediate results.
    #[default]
    CostBased,
    /// Structural ordering (most-connected first), ignoring statistics.
    Connectivity,
}

/// Pairwise join method.
#[derive(Debug, Clone)]
pub struct Pjm {
    /// Cap on the materialised intermediate result (tuples). Exceeding it
    /// truncates the join (`complete = false`).
    pub max_intermediate: usize,
    /// Join-order strategy.
    pub order: PjmOrder,
}

impl Default for Pjm {
    fn default() -> Self {
        Pjm {
            max_intermediate: 5_000_000,
            order: PjmOrder::default(),
        }
    }
}

impl Pjm {
    /// Creates the algorithm with an intermediate-result cap.
    pub fn new(max_intermediate: usize) -> Self {
        Pjm {
            max_intermediate,
            ..Pjm::default()
        }
    }

    /// Sets the join-order strategy.
    pub fn with_order(mut self, order: PjmOrder) -> Self {
        self.order = order;
        self
    }

    /// Computes the variable order according to the configured strategy.
    fn join_order(&self, instance: &Instance) -> Vec<usize> {
        match self.order {
            PjmOrder::Connectivity => connectivity_order(instance.graph()),
            PjmOrder::CostBased => cost_based_order(instance),
        }
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

    /// Like [`Pjm::run`], additionally reporting counters and phase timings
    /// ("pjm") through `obs`.
    pub fn run_with_obs(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
        obs: &ObsHandle,
    ) -> ExactJoinOutcome {
        let graph = instance.graph();
        let n = graph.n_vars();
        let order = self.join_order(instance);
        let ctx = SearchContext::local(*budget).with_obs(obs.clone());
        let mut clock = BudgetClock::from_context(&ctx);
        let _phase = clock.obs().timer.span("pjm");
        let mut stats = RunStats::default();
        let mut truncated = false;

        // Step 1: pairwise join of the first two variables in the order
        // (connected by construction of the order on connected graphs;
        // fall back to a cross filter if not).
        let (v0, v1) = (order[0], order[1]);
        let mut tuples: Vec<Vec<usize>> =
            match (instance.backend(), graph.predicate_between(v0, v1)) {
                // No edge between the first two: Cartesian product is required;
                // guarded by the intermediate cap.
                (_, None) => {
                    let mut out = Vec::new();
                    'outer: for a in 0..instance.cardinality(v0) {
                        for b in 0..instance.cardinality(v1) {
                            if out.len() >= self.max_intermediate {
                                truncated = true;
                                break 'outer;
                            }
                            out.push(vec![a, b]);
                        }
                    }
                    out
                }
                (BackendKind::RTree, Some(Predicate::Intersects)) => {
                    let join = PairwiseJoin::join(instance.tree(v0), instance.tree(v1));
                    stats.node_accesses += join.node_accesses;
                    join.pairs
                        .into_iter()
                        .map(|(a, b)| vec![a as usize, b as usize])
                        .collect()
                }
                (BackendKind::RTree, Some(pred)) => {
                    // Generic predicate: index-nested-loop over v0.
                    let counter = AccessCounter::new();
                    let mut out = Vec::new();
                    for (a, w) in instance.scan(v0) {
                        for (_, b) in instance
                            .tree(v1)
                            .query_predicate_counted(pred.transpose(), &w, &counter)
                            .map(|(r, v)| (r, *v as usize))
                        {
                            out.push(vec![a, b]);
                        }
                    }
                    stats.node_accesses += counter.get();
                    out
                }
                (BackendKind::Grid, Some(pred)) => {
                    grid_pair_join(instance, v0, v1, pred, &mut stats.node_accesses)
                }
            };
        clock.step();

        // Steps 2..n: attach one variable at a time.
        for k in 2..n {
            if tuples.is_empty() {
                break;
            }
            let var = order[k];
            let mut next: Vec<Vec<usize>> = Vec::new();
            'tuples: for tuple in &tuples {
                if clock.exhausted() {
                    truncated = true;
                    break 'tuples;
                }
                clock.step();
                let windows: Vec<(Predicate, Rect)> = graph
                    .neighbors(var)
                    .iter()
                    .filter_map(|&(u, pred)| {
                        let pos = order[..k].iter().position(|&x| x == u)?;
                        Some((pred, instance.rect(u, tuple[pos])))
                    })
                    .collect();
                debug_assert!(!windows.is_empty(), "connectivity order guarantees windows");
                let required = windows.len() as u32;
                for (obj, _) in candidates_with_counts(
                    instance,
                    var,
                    &windows,
                    required,
                    &mut stats.node_accesses,
                    &mut [],
                ) {
                    if next.len() >= self.max_intermediate {
                        truncated = true;
                        break 'tuples;
                    }
                    let mut extended = tuple.clone();
                    extended.push(obj);
                    next.push(extended);
                }
            }
            tuples = next;
        }

        // Convert order-indexed tuples back to variable-indexed solutions.
        let mut solutions: Vec<Solution> = Vec::with_capacity(tuples.len().min(limit));
        for tuple in tuples {
            if solutions.len() >= limit {
                truncated = true;
                break;
            }
            if tuple.len() < n {
                continue; // truncated mid-extension
            }
            let mut assignment = vec![0usize; n];
            for (pos, &var) in order.iter().enumerate() {
                assignment[var] = tuple[pos];
            }
            solutions.push(Solution::new(assignment));
        }

        stats.elapsed = clock.elapsed();
        stats.steps = clock.steps();
        crate::observe::flush_stats(clock.obs(), &stats);
        clock.emit_stop_reason();
        ExactJoinOutcome {
            solutions,
            stats,
            complete: !truncated,
        }
    }
}

/// Greedy cost-based ordering: smallest estimated first pair, then the
/// cheapest connected extension (estimated growth factor
/// `Nᵥ · Π (|rᵥ|+|rᵤ|)²` over edges to already-placed variables; a factor
/// below 1 *shrinks* the intermediate result). Falls back to connectivity
/// for variables with no placed neighbour (disconnected graphs).
fn cost_based_order(instance: &Instance) -> Vec<usize> {
    let graph = instance.graph();
    let n = graph.n_vars();
    if n <= 2 {
        return (0..n).collect();
    }
    let extent: Vec<f64> = (0..n).map(|v| instance.avg_extent(v)).collect();
    let card: Vec<f64> = (0..n).map(|v| instance.cardinality(v) as f64).collect();

    // Best starting edge.
    let mut best_pair: Option<(f64, usize, usize)> = None;
    for e in graph.edges() {
        let est = card[e.a] * card[e.b] * (extent[e.a] + extent[e.b]).powi(2);
        if best_pair.is_none_or(|(b, _, _)| est < b) {
            best_pair = Some((est, e.a, e.b));
        }
    }
    let (_, a, b) = best_pair.expect("graph has edges");
    let mut order = vec![a, b];
    let mut placed = vec![false; n];
    placed[a] = true;
    placed[b] = true;

    while order.len() < n {
        let mut best: Option<(f64, usize)> = None;
        for v in 0..n {
            if placed[v] {
                continue;
            }
            let mut growth = card[v];
            let mut connected = false;
            for &(u, _) in graph.neighbors(v) {
                if placed[u] {
                    connected = true;
                    growth *= (extent[v] + extent[u]).powi(2);
                }
            }
            if !connected {
                continue;
            }
            if best.is_none_or(|(g, _)| growth < g) {
                best = Some((growth, v));
            }
        }
        match best {
            Some((_, v)) => {
                placed[v] = true;
                order.push(v);
            }
            None => {
                // Disconnected remainder: append by connectivity order.
                for v in connectivity_order(graph) {
                    if !placed[v] {
                        placed[v] = true;
                        order.push(v);
                    }
                }
            }
        }
    }
    order
}

/// First-pair join on the grid backend: an index-nested-loop over `v0`'s
/// objects, each probing `v1`'s grid with the transposed predicate. With
/// `grid_threads() > 1` the probes fan out over scoped worker threads; the
/// result is merged back in `v0`-object order and the per-probe cell-access
/// counts are summed, so both the pair list and `node_accesses` are
/// bit-identical to the sequential run (see DESIGN.md §5j).
fn grid_pair_join(
    instance: &Instance,
    v0: usize,
    v1: usize,
    pred: Predicate,
    node_accesses: &mut u64,
) -> Vec<Vec<usize>> {
    use mwsj_rtree::grid;

    let g = instance.grid(v1);
    let n = instance.cardinality(v0);
    let probe = |a: usize, w: Rect, accesses: &mut u64| -> Vec<Vec<usize>> {
        grid::query_predicate(g, pred.transpose(), &w, 1, accesses)
            .into_iter()
            .map(|b| vec![a, b as usize])
            .collect()
    };
    let threads = instance.grid_threads().min(n);
    if threads <= 1 {
        let mut out = Vec::new();
        for (a, w) in instance.scan(v0) {
            out.extend(probe(a, w, node_accesses));
        }
        return out;
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    // (probe object, its pair rows, its cell accesses) per finished probe.
    type ProbeResult = (usize, Vec<Vec<usize>>, u64);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<ProbeResult>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let a = next.fetch_add(1, Ordering::Relaxed);
                if a >= n {
                    break;
                }
                let mut accesses = 0u64;
                let rows = probe(a, instance.rect(v0, a), &mut accesses);
                done.lock().expect("probe mutex").push((a, rows, accesses));
            });
        }
    });
    let mut done = done.into_inner().expect("probe mutex");
    done.sort_unstable_by_key(|&(a, _, _)| a);
    let mut out = Vec::new();
    for (_, rows, accesses) in done {
        *node_accesses += accesses;
        out.extend(rows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowReduction;
    use mwsj_datagen::{count_exact_solutions, Dataset, QueryShape};
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
    fn pjm_count_matches_brute_force() {
        for shape in [QueryShape::Chain, QueryShape::Clique, QueryShape::Star] {
            let (inst, datasets) = instance(141, shape, 4, 50, 0.35);
            let outcome = Pjm::default().run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
            assert!(outcome.complete);
            let brute = count_exact_solutions(&datasets, inst.graph(), u64::MAX);
            assert_eq!(outcome.solutions.len() as u64, brute, "{}", shape.name());
        }
    }

    #[test]
    fn pjm_agrees_with_wr() {
        let (inst, _) = instance(142, QueryShape::Cycle, 4, 40, 0.4);
        let mut pjm: Vec<Solution> = Pjm::default()
            .run(&inst, &SearchBudget::seconds(30.0), usize::MAX)
            .solutions;
        let mut wr: Vec<Solution> = WindowReduction::new()
            .run(&inst, &SearchBudget::seconds(30.0), usize::MAX)
            .solutions;
        pjm.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        wr.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        assert_eq!(pjm, wr);
    }

    #[test]
    fn pjm_intermediate_cap_truncates() {
        let (inst, _) = instance(143, QueryShape::Chain, 3, 100, 1.5);
        let outcome = Pjm::new(10).run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
        assert!(!outcome.complete);
    }

    #[test]
    fn both_orders_produce_identical_solution_sets() {
        let (inst, _) = instance(145, QueryShape::Cycle, 4, 50, 0.4);
        let budget = SearchBudget::seconds(30.0);
        let mut cost: Vec<Solution> = Pjm::default()
            .with_order(PjmOrder::CostBased)
            .run(&inst, &budget, usize::MAX)
            .solutions;
        let mut conn: Vec<Solution> = Pjm::default()
            .with_order(PjmOrder::Connectivity)
            .run(&inst, &budget, usize::MAX)
            .solutions;
        cost.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        conn.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        assert_eq!(cost, conn);
    }

    #[test]
    fn cost_based_order_starts_with_cheapest_pair() {
        // Two tiny datasets and two huge ones in a chain: the cheap pair
        // must be joined first.
        let mut rng = StdRng::seed_from_u64(146);
        let small_a = Dataset::uniform(10, 0.001, &mut rng);
        let small_b = Dataset::uniform(10, 0.001, &mut rng);
        let big_a = Dataset::uniform(2_000, 0.5, &mut rng);
        let big_b = Dataset::uniform(2_000, 0.5, &mut rng);
        // chain: big_a(0) - small_a(1) - small_b(2) - big_b(3)
        let graph = QueryShape::Chain.graph(4);
        let inst = Instance::new(
            graph,
            vec![
                big_a.rects().to_vec(),
                small_a.rects().to_vec(),
                small_b.rects().to_vec(),
                big_b.rects().to_vec(),
            ],
        )
        .unwrap();
        let order = cost_based_order(&inst);
        assert_eq!(
            {
                let mut first_two = order[..2].to_vec();
                first_two.sort_unstable();
                first_two
            },
            vec![1, 2],
            "cheapest pair (1,2) should start the order, got {order:?}"
        );
    }

    #[test]
    fn pjm_solutions_are_exact() {
        let (inst, _) = instance(144, QueryShape::Clique, 3, 60, 0.5);
        let outcome = Pjm::default().run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
        for sol in &outcome.solutions {
            assert_eq!(inst.violations(sol), 0);
        }
    }
}
