//! Integration tests for top-k solution retrieval across algorithms.

use mwsj::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hard_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = hard_region_density(shape, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    Instance::new(shape.graph(n), datasets).unwrap()
}

/// Every algorithm's top list is sorted, distinct, consistent with its
/// headline best, and faithful under re-evaluation.
#[test]
fn top_lists_are_sound_for_all_algorithms() {
    let inst = hard_instance(501, QueryShape::Clique, 5, 500);
    let mut rng = StdRng::seed_from_u64(502);
    let outcomes = vec![
        Ils::new(IlsConfig::default()).run(&inst, &SearchBudget::iterations(800), &mut rng),
        Gils::new(GilsConfig::default()).run(&inst, &SearchBudget::iterations(800), &mut rng),
        Sea::new(SeaConfig::default_for(&inst)).run(&inst, &SearchBudget::iterations(20), &mut rng),
        NaiveGa::default().run(&inst, &SearchBudget::iterations(20), &mut rng),
        NaiveLocalSearch::default().run(&inst, &SearchBudget::iterations(2_000), &mut rng),
    ];
    for o in outcomes {
        assert!(!o.top_solutions.is_empty());
        // Head of the list is the best solution.
        assert_eq!(o.top_solutions[0].1, o.best_violations);
        // Sorted ascending, distinct, faithful.
        for w in o.top_solutions.windows(2) {
            assert!(w[0].1 <= w[1].1, "top list out of order");
            assert_ne!(w[0].0, w[1].0, "duplicate solution in top list");
        }
        for (sol, violations) in &o.top_solutions {
            assert_eq!(inst.violations(sol), *violations);
        }
        assert!(o.top_solutions.len() <= mwsj::core::DEFAULT_TOP_K);
    }
}

/// IBB's top list holds its incumbent history, ending at the optimum.
#[test]
fn ibb_top_list_ends_at_optimum() {
    let inst = hard_instance(503, QueryShape::Clique, 3, 60);
    let outcome = Ibb::new(IbbConfig {
        initial: None,
        stop_at_exact: false,
    })
    .run(&inst, &SearchBudget::seconds(60.0));
    assert!(outcome.proven_optimal);
    assert_eq!(outcome.top_solutions[0].1, outcome.best_violations);
    for (sol, violations) in &outcome.top_solutions {
        assert_eq!(inst.violations(sol), *violations);
    }
}

/// A dense instance has many exact solutions; the top list should collect
/// several distinct perfect matches.
#[test]
fn dense_instances_yield_multiple_exact_solutions() {
    let mut rng = StdRng::seed_from_u64(504);
    let datasets: Vec<Dataset> = (0..3)
        .map(|_| Dataset::uniform(300, 2.0, &mut rng))
        .collect();
    let inst = Instance::new(QueryGraph::chain(3), datasets).unwrap();
    // Random re-instantiation wanders enough to hit several distinct good
    // solutions.
    let outcome =
        NaiveLocalSearch::default().run(&inst, &SearchBudget::iterations(20_000), &mut rng);
    assert!(outcome.top_solutions.len() >= 3);
    assert_eq!(outcome.top_solutions[0].1, 0);
}
