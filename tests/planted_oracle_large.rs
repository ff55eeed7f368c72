//! Planted-solution oracle at paper scale (large tier): an n = 8,
//! N = 10 000 hard-region workload with one exact solution planted. The
//! heuristics must reach similarity 1.0 within a pinned step budget, and
//! the exact join must find as many solutions as an
//! independent backtracking counter — the planted one among them — on a
//! downsampled slice small enough to enumerate.

use mwsj::datagen::count_exact_solutions;
use mwsj::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const N_VARS: usize = 8;
const CARDINALITY: usize = 10_000;
const SEED: u64 = 204;

/// Pinned budgets: changing them is a benchmark-relevant event, not a
/// test tweak (they mirror the large-tier convergence contract).
const ILS_STEPS: u64 = 50_000;
const GILS_STEPS: u64 = 50_000;
const SEA_GENERATIONS: u64 = 400;

/// The large-tier planted workload (mirrors the bench suite's
/// `cycle-n8-hard` case).
fn planted_workload() -> (Workload, Solution) {
    let mut spec = WorkloadSpec::hard_region(QueryShape::Cycle, N_VARS, CARDINALITY, SEED);
    spec.plant = true;
    let w = spec.generate();
    let planted = w.planted.clone().expect("spec.plant = true");
    (w, planted)
}

fn planted_instance() -> (Instance, Solution) {
    let (w, planted) = planted_workload();
    let inst = Instance::new(w.graph, w.datasets).unwrap();
    assert_eq!(inst.violations(&planted), 0, "planted solution not exact");
    (inst, planted)
}

#[test]
fn ils_reaches_similarity_one_at_scale() {
    let (inst, _) = planted_instance();
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let outcome =
        Ils::new(IlsConfig::default()).run(&inst, &SearchBudget::iterations(ILS_STEPS), &mut rng);
    assert_eq!(
        outcome.best_violations, 0,
        "ILS stalled at similarity {}",
        outcome.best_similarity
    );
    assert_eq!(inst.violations(&outcome.best), 0);
}

#[test]
fn gils_reaches_similarity_one_at_scale() {
    let (inst, _) = planted_instance();
    let mut rng = StdRng::seed_from_u64(SEED + 2);
    let outcome = Gils::new(GilsConfig::default()).run(
        &inst,
        &SearchBudget::iterations(GILS_STEPS),
        &mut rng,
    );
    assert_eq!(
        outcome.best_violations, 0,
        "GILS stalled at similarity {}",
        outcome.best_similarity
    );
    assert_eq!(inst.violations(&outcome.best), 0);
}

#[test]
fn sea_reaches_similarity_one_at_scale() {
    let (inst, _) = planted_instance();
    let mut rng = StdRng::seed_from_u64(SEED + 3);
    let outcome = Sea::new(SeaConfig::default_for(&inst)).run(
        &inst,
        &SearchBudget::iterations(SEA_GENERATIONS),
        &mut rng,
    );
    assert_eq!(
        outcome.best_violations, 0,
        "SEA stalled at similarity {}",
        outcome.best_similarity
    );
    assert_eq!(inst.violations(&outcome.best), 0);
}

/// Downsamples each dataset of the large workload to `keep` objects —
/// always retaining the planted object — and returns the sliced instance
/// plus the planted solution remapped to slice indices.
fn downsampled_slice(keep: usize) -> (Instance, Solution) {
    let (w, planted) = planted_workload();
    let mut rng = StdRng::seed_from_u64(SEED + 10);
    let mut sliced: Vec<Vec<Rect>> = Vec::with_capacity(N_VARS);
    let mut remapped: Vec<usize> = Vec::with_capacity(N_VARS);
    for (v, dataset) in w.datasets.iter().enumerate() {
        let p = planted.get(v);
        // `keep − 1` distinct random survivors plus the planted object.
        let mut picked: Vec<usize> = vec![p];
        while picked.len() < keep {
            let i = rng.random_range(0..dataset.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        remapped.push(picked.iter().position(|&i| i == p).unwrap());
        sliced.push(picked.iter().map(|&i| dataset.rect(i)).collect());
    }
    let inst = Instance::new(w.graph, sliced).unwrap();
    let planted_slice = Solution::new(remapped);
    assert_eq!(inst.violations(&planted_slice), 0, "slice broke the plant");
    (inst, planted_slice)
}

/// Canonical form of an exact-join result: sorted assignment vectors.
fn canonical(outcome: &ExactJoinOutcome) -> Vec<Vec<usize>> {
    let mut sols: Vec<Vec<usize>> = outcome
        .solutions
        .iter()
        .map(|s| (0..N_VARS).map(|v| s.get(v)).collect())
        .collect();
    sols.sort();
    sols
}

#[test]
fn exact_algorithms_agree_on_the_downsampled_slice() {
    let (inst, planted) = downsampled_slice(150);
    let budget = SearchBudget::seconds(120.0);
    let limit = 10_000;

    let wr = WindowReduction::new().run(&inst, &budget, limit);
    assert!(wr.complete, "WR did not finish the slice");
    let wr_sols = canonical(&wr);
    let datasets: Vec<Dataset> = (0..N_VARS)
        .map(|v| (0..inst.cardinality(v)).map(|o| inst.rect(v, o)).collect())
        .map(Dataset::from_rects)
        .collect();
    let count = count_exact_solutions(&datasets, inst.graph(), limit as u64);
    assert_eq!(
        wr_sols.len() as u64,
        count,
        "WR and the backtracking counter disagree"
    );

    let planted_vec: Vec<usize> = (0..N_VARS).map(|v| planted.get(v)).collect();
    assert!(
        wr_sols.contains(&planted_vec),
        "planted solution missing from the exact result"
    );
}
