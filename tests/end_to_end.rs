//! End-to-end integration tests: datagen → query → rtree → core algorithms.

use mwsj::datagen::{count_exact_solutions, plant_solution};
use mwsj::prelude::*;
use mwsj::query::QueryGraphBuilder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds a hard-region instance plus the raw datasets (for brute-force
/// verification).
fn hard_instance(
    seed: u64,
    shape: QueryShape,
    n: usize,
    cardinality: usize,
    target: f64,
) -> (Instance, Vec<Dataset>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = mwsj::datagen::hard_region_density(shape, n, cardinality, target);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    (
        Instance::new(shape.graph(n), datasets.clone()).unwrap(),
        datasets,
    )
}

/// The exact join and the brute-force counter agree on
/// the complete solution set, across query shapes — with WR's first edge
/// under each predicate that implies intersection, where WR opens with the
/// pairwise join of that edge, and under one that does not, where it scans
/// its first variable.
#[test]
fn exact_methods_agree_across_shapes() {
    for (seed, shape) in [
        (201, QueryShape::Chain),
        (202, QueryShape::Clique),
        (203, QueryShape::Cycle),
        (204, QueryShape::Star),
    ] {
        let (inst, drawn) = hard_instance(seed, shape, 4, 300, 50.0);
        // Every dataset is the first one with each rectangle scaled about
        // its centre, so that object `i` of one variable often contains
        // object `i` of another and Contains and Inside have solutions.
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..4)
            .map(|_| {
                let scaled = drawn[0].rects().iter().map(|r| {
                    let k = rng.random_range(0.3..1.7);
                    Rect::from_center(r.center(), k * r.width(), k * r.height())
                });
                Dataset::from_rects(scaled.collect())
            })
            .collect();
        // WR's first edge: the variable of highest degree (the lowest on a
        // tie), then its neighbour of highest degree.
        let graph = inst.graph();
        let by_degree = |v: &usize| (graph.degree(*v), std::cmp::Reverse(*v));
        let first = (0..4).max_by_key(by_degree).unwrap();
        let second = (graph.neighbors(first).iter().map(|&(u, _)| u))
            .max_by_key(by_degree)
            .unwrap();
        let budget = SearchBudget::seconds(60.0);
        for pred in [
            Predicate::Intersects,
            Predicate::Contains,
            Predicate::Inside,
            Predicate::WithinDistance(0.005),
        ] {
            let mut builder = QueryGraphBuilder::new(4);
            for e in graph.edges() {
                let on_first = [(e.a, e.b), (e.b, e.a)].contains(&(first, second));
                let p = if on_first { pred } else { e.pred };
                builder = builder.edge_with(e.a, e.b, p);
            }
            let inst = Instance::new(builder.build().unwrap(), datasets.clone()).unwrap();
            let brute = count_exact_solutions(&datasets, inst.graph(), u64::MAX);
            let wr = WindowReduction::new().run(&inst, &budget, usize::MAX);
            let what = format!("{} with {pred} first", shape.name());
            assert!(wr.complete, "WR did not finish {what}");
            assert_eq!(wr.solutions.len() as u64, brute, "WR vs brute on {what}");
            let mut sorted = wr.solutions.clone();
            sorted.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                wr.solutions.len(),
                "a solution twice on {what}"
            );
            assert!(wr.solutions.iter().all(|s| inst.violations(s) == 0));
        }
    }
}

/// Every heuristic's reported similarity matches an independent
/// re-evaluation of its best solution.
#[test]
fn heuristic_outcomes_are_self_consistent() {
    let (inst, _) = hard_instance(205, QueryShape::Clique, 5, 400, 1.0);
    let budget = SearchBudget::iterations(500);
    let mut rng = StdRng::seed_from_u64(206);
    let outcomes = vec![
        Ils::new(IlsConfig::default()).run(&inst, &budget, &mut rng),
        Gils::new(GilsConfig::default()).run(&inst, &budget, &mut rng),
        Sea::new(SeaConfig::default_for(&inst)).run(&inst, &SearchBudget::iterations(10), &mut rng),
        NaiveLocalSearch::default().run(&inst, &budget, &mut rng),
    ];
    for o in outcomes {
        let recomputed = inst.violations(&o.best);
        assert_eq!(o.best_violations, recomputed);
        let sim = inst.graph().similarity_of_violations(recomputed);
        assert!((o.best_similarity - sim).abs() < 1e-12);
        assert_eq!(o.best.len(), inst.n_vars());
    }
}

/// IBB (exhaustive mode) returns the same optimum the heuristics can at
/// best match, and the two-step pipeline retrieves a planted optimum.
#[test]
fn systematic_search_dominates_heuristics() {
    let (inst, _) = hard_instance(207, QueryShape::Clique, 3, 40, 1.0);
    let mut config = IbbConfig::new();
    config.stop_at_exact = false;
    let optimal = Ibb::new(config).run(&inst, &SearchBudget::seconds(60.0));
    assert!(optimal.proven_optimal);
    let mut rng = StdRng::seed_from_u64(208);
    for _ in 0..5 {
        let h = Ils::new(IlsConfig::default()).run(&inst, &SearchBudget::iterations(300), &mut rng);
        assert!(h.best_violations >= optimal.best_violations);
    }
}

#[test]
fn two_step_retrieves_planted_optimum() {
    let mut rng = StdRng::seed_from_u64(209);
    let n = 4;
    let shape = QueryShape::Clique;
    let d = mwsj::datagen::hard_region_density(shape, n, 200, 1.0);
    let mut datasets: Vec<Dataset> = (0..n).map(|_| Dataset::uniform(200, d, &mut rng)).collect();
    let graph = shape.graph(n);
    let planted = plant_solution(&mut datasets, &graph, &mut rng);
    let inst = Instance::new(graph, datasets).unwrap();

    let pipeline = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(200),
    ));
    let outcome = pipeline.run(&inst, &SearchBudget::seconds(60.0), &mut rng);
    assert!(outcome.best.is_exact());
    // The planted solution is *an* exact solution; the one found must
    // evaluate exact too (it may be the same or another coincidental one).
    assert_eq!(inst.violations(&planted), 0);
}

/// Workload reproducibility end to end: same spec → same outcome.
#[test]
fn workloads_are_reproducible_end_to_end() {
    let spec = WorkloadSpec::hard_region(QueryShape::Chain, 4, 300, 77);
    let run = |spec: &WorkloadSpec| {
        let w = spec.generate();
        let inst = Instance::new(w.graph, w.datasets).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        Ils::new(IlsConfig::default())
            .run(&inst, &SearchBudget::iterations(400), &mut rng)
            .best
    };
    assert_eq!(run(&spec), run(&spec));
}

/// The planted-solution machinery interacts correctly with indexing: the
/// planted tuple is retrievable through the R*-tree-driven exact join.
#[test]
fn planted_solution_is_found_by_exact_join() {
    let mut rng = StdRng::seed_from_u64(210);
    let shape = QueryShape::Clique;
    let d = mwsj::datagen::hard_region_density(shape, 4, 150, 1.0) / 10.0;
    let mut datasets: Vec<Dataset> = (0..4).map(|_| Dataset::uniform(150, d, &mut rng)).collect();
    let graph = shape.graph(4);
    let planted = plant_solution(&mut datasets, &graph, &mut rng);
    let inst = Instance::new(graph, datasets).unwrap();
    let found = WindowReduction::new()
        .run(&inst, &SearchBudget::seconds(60.0), usize::MAX)
        .solutions;
    assert!(
        found.contains(&planted),
        "planted {planted} missing from WR result"
    );
}
