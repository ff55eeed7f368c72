//! Integration tests for the extended predicates (inside, north-east,
//! within-distance) through the whole pipeline — the Discussion's claim
//! that the methods extend beyond the overlap join.

use mwsj::prelude::*;
use mwsj::query::QueryGraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixed_instance(seed: u64, cardinality: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let big = Dataset::uniform(cardinality, 0.8, &mut rng); // large rects
    let small = Dataset::uniform(cardinality, 0.005, &mut rng);
    let mid_a = Dataset::uniform(cardinality, 0.02, &mut rng);
    let mid_b = Dataset::uniform(cardinality, 0.02, &mut rng);
    let graph = QueryGraphBuilder::new(4)
        .edge_with(0, 1, Predicate::Contains)
        .edge_with(2, 0, Predicate::WithinDistance(0.1))
        .edge_with(3, 2, Predicate::NorthEast)
        .build()
        .unwrap();
    Instance::new(graph, vec![big, small, mid_a, mid_b]).unwrap()
}

#[test]
fn heuristics_run_with_mixed_predicates() {
    let inst = mixed_instance(302, 500);
    let mut rng = StdRng::seed_from_u64(303);
    let budget = SearchBudget::iterations(800);
    for outcome in [
        Ils::new(IlsConfig::default()).run(&inst, &budget, &mut rng),
        Gils::new(GilsConfig::default()).run(&inst, &budget, &mut rng),
        Sea::new(SeaConfig::default_for(&inst)).run(&inst, &SearchBudget::iterations(15), &mut rng),
    ] {
        // Reported similarity must be faithful...
        assert_eq!(inst.violations(&outcome.best), outcome.best_violations);
        // ...and clearly better than chance: containment of a random small
        // rect in a random big one is rare, so random similarity ≈ 1/3.
        assert!(
            outcome.best_similarity >= 2.0 / 3.0 - 1e-9,
            "{}",
            outcome.best_similarity
        );
    }
}

#[test]
fn wr_enumerates_mixed_predicate_solutions_exactly() {
    let inst = mixed_instance(304, 40);
    let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(60.0), usize::MAX);
    assert!(outcome.complete);
    // Cross-check every solution and the count against brute force.
    let mut brute = 0usize;
    for a in 0..40 {
        for b in 0..40 {
            for c in 0..40 {
                for d in 0..40 {
                    if inst.violations(&Solution::new(vec![a, b, c, d])) == 0 {
                        brute += 1;
                    }
                }
            }
        }
    }
    assert_eq!(outcome.solutions.len(), brute);
    for s in &outcome.solutions {
        assert_eq!(inst.violations(s), 0);
    }
}

#[test]
fn asymmetric_predicates_survive_the_full_pipeline() {
    // Contains/Inside orientation: v0 contains v1 must not be confused
    // with v1 contains v0 anywhere in the stack.
    let big = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
    let small = vec![Rect::new(0.4, 0.4, 0.5, 0.5)];
    let forward = QueryGraphBuilder::new(2)
        .edge_with(0, 1, Predicate::Contains)
        .build()
        .unwrap();
    let inst = Instance::new(forward, vec![big.clone(), small.clone()]).unwrap();
    assert_eq!(inst.violations(&Solution::new(vec![0, 0])), 0);

    let backward = QueryGraphBuilder::new(2)
        .edge_with(1, 0, Predicate::Contains)
        .build()
        .unwrap();
    let inst = Instance::new(backward, vec![big, small]).unwrap();
    assert_eq!(inst.violations(&Solution::new(vec![0, 0])), 1);
}
