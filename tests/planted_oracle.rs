//! Planted-solution oracle tests: datasets are doctored so an exact
//! (similarity-1) solution is known to exist, then each algorithm must
//! find it — the heuristics within a generous step budget, IBB exactly.
//!
//! This is the repo's strongest end-to-end correctness check: unlike the
//! statistical paper-claim tests it has a ground truth, so a regression in
//! any layer (R*-tree queries, conflict bookkeeping, search moves) turns
//! into a hard failure instead of a quality drift.

use mwsj::datagen::{count_exact_solutions, plant_solution};
use mwsj::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A hard-region chain instance with one solution planted. Returns the
/// instance and the planted assignment.
fn planted_instance(seed: u64, n: usize, cardinality: usize) -> (Instance, Solution) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = hard_region_density(QueryShape::Chain, n, cardinality, 1.0);
    let mut datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    let graph = QueryGraph::chain(n);
    let planted = plant_solution(&mut datasets, &graph, &mut rng);
    assert!(
        count_exact_solutions(&datasets, &graph, 1) >= 1,
        "planting failed"
    );
    let inst = Instance::new(graph, datasets).unwrap();
    assert_eq!(inst.violations(&planted), 0, "planted solution not exact");
    (inst, planted)
}

#[test]
fn ils_reaches_the_planted_optimum() {
    let (inst, _) = planted_instance(800, 3, 200);
    let mut rng = StdRng::seed_from_u64(801);
    let outcome =
        Ils::new(IlsConfig::default()).run(&inst, &SearchBudget::iterations(60_000), &mut rng);
    assert_eq!(
        outcome.best_violations, 0,
        "similarity {}",
        outcome.best_similarity
    );
    assert_eq!(inst.violations(&outcome.best), 0);
}

#[test]
fn gils_reaches_the_planted_optimum() {
    let (inst, _) = planted_instance(810, 3, 200);
    let mut rng = StdRng::seed_from_u64(811);
    let outcome =
        Gils::new(GilsConfig::default()).run(&inst, &SearchBudget::iterations(60_000), &mut rng);
    assert_eq!(
        outcome.best_violations, 0,
        "similarity {}",
        outcome.best_similarity
    );
    assert_eq!(inst.violations(&outcome.best), 0);
}

#[test]
fn sea_reaches_the_planted_optimum() {
    let (inst, _) = planted_instance(820, 3, 200);
    let mut rng = StdRng::seed_from_u64(821);
    let outcome = Sea::new(SeaConfig::default_for(&inst)).run(
        &inst,
        &SearchBudget::iterations(3_000),
        &mut rng,
    );
    assert_eq!(
        outcome.best_violations, 0,
        "similarity {}",
        outcome.best_similarity
    );
    assert_eq!(inst.violations(&outcome.best), 0);
}

#[test]
fn ibb_returns_the_planted_optimum_exactly() {
    let (inst, _) = planted_instance(830, 3, 150);
    let outcome = Ibb::new(IbbConfig::new()).run(&inst, &SearchBudget::seconds(120.0));
    assert_eq!(outcome.best_violations, 0);
    assert_eq!(inst.violations(&outcome.best), 0);
    assert!(outcome.proven_optimal);
}

#[test]
fn portfolio_of_ils_restarts_reaches_the_planted_optimum() {
    let (inst, _) = planted_instance(840, 3, 200);
    let outcome = Portfolio::new(Ils::new(IlsConfig::default()), 4).run(
        &inst,
        &SearchBudget::iterations(120_000),
        841,
    );
    assert_eq!(outcome.merged.best_violations, 0);
    assert_eq!(inst.violations(&outcome.merged.best), 0);
}
