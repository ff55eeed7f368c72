//! Pairwise Join Method (paper §2, \[MP99\]): exact multiway joins composed
//! from pairwise joins.
//!
//! The first two variables of the join order are joined as a pair
//! (`index::first_pair`: the BKS93 synchronous pairwise join of two
//! R*-trees or the cell-pair join of two grids where the predicate allows,
//! an index-nested-loop otherwise); every further variable is
//! attached by an index-nested-loop step that, for each intermediate tuple,
//! runs a conjunctive multi-window query against the new variable's index.
//! A variable with no placed neighbour — the query graph is disconnected —
//! extends every tuple with every object of its dataset. The intermediate
//! result is materialised between steps — the source of PJM's memory
//! blow-up on high-selectivity queries, and the reason it cannot be adapted
//! to approximate retrieval (intermediate pairs must intersect).

use crate::budget::{BudgetClock, SearchBudget};
use crate::index;
use crate::instance::Instance;
use crate::order::connectivity_order;
use crate::result::RunStats;
use crate::wr::ExactJoinOutcome;
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::ObsHandle;
use mwsj_query::Solution;

/// Pairwise join method, joining in the cost-based greedy order of
/// \[MP99\] (see `cost_based_order`), which minimises the materialised
/// intermediate results.
#[derive(Debug, Clone)]
pub struct Pjm {
    /// Cap on the materialised intermediate result (tuples). Exceeding it
    /// truncates the join (`complete = false`).
    pub max_intermediate: usize,
}

impl Default for Pjm {
    fn default() -> Self {
        Pjm::new(5_000_000)
    }
}

impl Pjm {
    /// Creates the algorithm with an intermediate-result cap.
    pub fn new(max_intermediate: usize) -> Self {
        Pjm { max_intermediate }
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
        ExactJoinOutcome::on_core(instance, budget, limit, obs, "pjm", |core, clock, stats| {
            self.enumerate(core, limit, clock, stats)
        })
    }

    /// PJM itself, on the instance it is given: up to `limit` solutions,
    /// and whether the enumeration completed.
    pub(crate) fn enumerate(
        &self,
        instance: &Instance,
        limit: usize,
        clock: &mut BudgetClock,
        stats: &mut RunStats,
    ) -> (Vec<Solution>, bool) {
        let graph = instance.graph();
        let n = graph.n_vars();
        let order = cost_based_order(instance);
        let mut truncated = false;

        // Step 1: pairwise join of the first two variables in the order.
        let (v0, v1) = (order[0], order[1]);
        let pred = graph
            .predicate_between(v0, v1)
            .expect("the cost-based order starts with an edge");
        let mut tuples = index::first_pair(instance, v0, v1, pred, &mut stats.node_accesses);
        clock.step();

        // Steps 2..n: attach one variable at a time.
        let mut windows: Vec<(Predicate, Rect)> = Vec::new();
        let mut hits = Vec::new();
        for k in 2..n {
            if tuples.is_empty() {
                break;
            }
            let var = order[k];
            let mut next: Vec<Vec<usize>> = Vec::new();
            for tuple in &tuples {
                if clock.exhausted() {
                    truncated = true;
                    break;
                }
                clock.step();
                windows.clear();
                windows.extend(graph.neighbors(var).iter().filter_map(|&(u, pred)| {
                    let pos = order[..k].iter().position(|&x| x == u)?;
                    Some((pred, instance.rect(u, tuple[pos])))
                }));
                // `false` once the cap is reached.
                let mut extend = |obj: usize| {
                    let fits = next.len() < self.max_intermediate;
                    if fits {
                        let mut extended = tuple.clone();
                        extended.push(obj);
                        next.push(extended);
                    }
                    fits
                };
                let fits = if windows.is_empty() {
                    // No placed neighbour (a disconnected query graph): the
                    // variable constrains nothing yet, every object extends
                    // the tuple.
                    (0..instance.cardinality(var)).all(&mut extend)
                } else {
                    let required = windows.len() as u32;
                    let accesses = &mut stats.node_accesses;
                    index::candidates(
                        instance,
                        var,
                        &windows,
                        required,
                        &mut hits,
                        accesses,
                        &mut [],
                    );
                    hits.iter().all(|&(obj, _)| extend(obj as usize))
                };
                if !fits {
                    truncated = true;
                    break;
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
        (solutions, !truncated)
    }
}

/// Greedy cost-based ordering \[MP99\]: start with the edge whose
/// estimated pairwise output (`Nᵢ·Nⱼ·(|rᵢ|+|rⱼ|)²`, extents measured from
/// the data) is smallest, then repeatedly attach the cheapest connected
/// extension (estimated growth factor `Nᵥ · Π (|rᵥ|+|rᵤ|)²` over edges to
/// already-placed variables; a factor below 1 *shrinks* the intermediate
/// result). Falls back to connectivity for variables with no placed
/// neighbour (disconnected graphs).
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

    /// A variable no edge touches extends every tuple with every object of
    /// its dataset (it used to get an empty window list and extend none),
    /// under the intermediate cap like every other attach step.
    #[test]
    fn isolated_variable_multiplies_the_result_by_its_dataset() {
        let (_, datasets) = instance(147, QueryShape::Chain, 3, 30, 0.5);
        let one_edge = mwsj_query::QueryGraphBuilder::new(3)
            .edge(0, 2)
            .build()
            .unwrap();
        let inst = Instance::new(one_edge, datasets.clone()).unwrap();
        let budget = SearchBudget::seconds(30.0);
        let outcome = Pjm::default().run(&inst, &budget, usize::MAX);
        let brute = count_exact_solutions(&datasets, inst.graph(), u64::MAX);
        assert!(outcome.complete && brute >= 30, "{brute} solutions");
        assert_eq!(outcome.solutions.len() as u64, brute);
        assert!(outcome.solutions.iter().all(|s| inst.violations(s) == 0));

        let capped = Pjm::new(brute as usize - 1).run(&inst, &budget, usize::MAX);
        assert!(!capped.complete);
        assert_eq!(capped.solutions.len() as u64, brute - 1);
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
