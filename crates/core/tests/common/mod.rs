//! Fixtures shared by the integration tests of `mwsj-core`.

// Each test binary compiles its own copy and uses what it needs.
#![allow(dead_code)]

use mwsj_core::{Instance, ObsHandle, SearchBudget, VecSink, WindowReduction};
use mwsj_datagen::{count_exact_solutions, hard_region_density, Dataset, QueryShape};
use mwsj_geom::{Predicate, Rect};
use mwsj_query::{QueryGraph, QueryGraphBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Hard-region instance with no planted solution, so heuristics run to
/// budget exhaustion instead of stopping on an exact solution.
pub fn hard_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = hard_region_density(shape, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    Instance::new(shape.graph(n), datasets).unwrap()
}

/// An enabled handle and the sink that keeps what it emits.
pub fn sinked_obs() -> (Arc<VecSink>, ObsHandle) {
    let sink = Arc::new(VecSink::new());
    let obs = ObsHandle::enabled().with_sink(sink.clone());
    (sink, obs)
}

/// The six predicates.
pub const PREDICATES: [Predicate; 6] = [
    Predicate::Intersects,
    Predicate::Contains,
    Predicate::Inside,
    Predicate::NorthEast,
    Predicate::SouthWest,
    Predicate::WithinDistance(0.01),
];

/// `graph` with `pred` on WR's first edge: the edge between the variable
/// of highest degree and its neighbour of highest degree (the lowest index
/// on a tie), the first two variables of WR's order. WR opens with the
/// pairwise join of that edge when `pred` implies intersection and scans
/// its first variable when it does not.
pub fn with_first_edge(graph: &QueryGraph, pred: Predicate) -> QueryGraph {
    let by_degree = |v: &usize| (graph.degree(*v), std::cmp::Reverse(*v));
    let first = (0..graph.n_vars()).max_by_key(by_degree).unwrap();
    let neighbors = graph.neighbors(first).iter().map(|&(u, _)| u);
    let second = neighbors.max_by_key(by_degree).expect("a connected graph");
    let mut builder = QueryGraphBuilder::new(graph.n_vars());
    for e in graph.edges() {
        builder = match (e.a, e.b) {
            (a, b) if (a, b) == (first, second) => builder.edge_with(a, b, pred),
            (a, b) if (a, b) == (second, first) => builder.edge_with(b, a, pred),
            (a, b) => builder.edge_with(a, b, e.pred),
        };
    }
    builder.build().unwrap()
}

/// WR with `limit` on `inst`, held to the independent backtracking counter
/// over the same rectangles ([`count_exact_solutions`]): it finds as many
/// solutions as the counter counts up to `limit`, every one exact and none
/// twice, and a smaller limit keeps a prefix of them. Returns the count.
pub fn assert_wr_matches_the_counter(inst: &Instance, limit: usize, what: &str) -> usize {
    let datasets: Vec<Dataset> = (0..inst.n_vars())
        .map(|v| Dataset::from_rects(rects_of(inst, v)))
        .collect();
    let count = count_exact_solutions(&datasets, inst.graph(), limit as u64) as usize;
    let budget = SearchBudget::iterations(u64::MAX);
    let outcome = WindowReduction::new().run(inst, &budget, limit);
    assert_eq!(outcome.solutions.len(), count, "{what}");
    assert_eq!(outcome.complete, count < limit, "{what}");
    assert!(outcome.solutions.iter().all(|s| inst.violations(s) == 0));
    let mut sorted = outcome.solutions.clone();
    sorted.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
    sorted.dedup();
    assert_eq!(sorted.len(), count, "{what}: a solution twice");
    let prefix = WindowReduction::new().run(inst, &budget, count / 2 + 1);
    let kept = outcome.solutions.len().min(count / 2 + 1);
    assert_eq!(
        prefix.solutions,
        outcome.solutions[..kept],
        "{what}: no prefix"
    );
    count
}

/// The rectangles of `var`'s dataset, in object id order.
pub fn rects_of(inst: &Instance, var: usize) -> Vec<Rect> {
    (0..inst.cardinality(var))
        .map(|o| inst.rect(var, o))
        .collect()
}

/// The instance's data under `graph`.
pub fn regraphed(inst: &Instance, graph: QueryGraph) -> Instance {
    Instance::new(graph, (0..inst.n_vars()).map(|v| rects_of(inst, v))).unwrap()
}
