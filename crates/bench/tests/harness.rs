//! The figure harness from outside: the argument grammar of
//! `all_experiments`, and the two facts the move unit of every figure
//! budget rests on.

use mwsj_bench::{Algo, Scale};
use mwsj_core::{Instance, Sea, SeaConfig, SearchBudget};
use mwsj_datagen::{count_exact_solutions, Distribution, QueryShape, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

/// The uniform workload instance of a spec, and whether it holds an exact
/// solution.
fn instance(
    shape: QueryShape,
    n_vars: usize,
    cardinality: usize,
    target_solutions: f64,
    seed: u64,
) -> (Instance, bool) {
    let w = WorkloadSpec {
        shape,
        n_vars,
        cardinality,
        target_solutions,
        plant: false,
        distribution: Distribution::Uniform,
        seed,
    }
    .generate();
    let exact = count_exact_solutions(&w.datasets, &w.graph, 1) > 0;
    (
        Instance::new(w.graph, w.datasets).expect("valid workload"),
        exact,
    )
}

#[test]
fn unknown_arguments_and_values_exit_1_with_one_line_on_stderr() {
    let cases: [&[&str]; 8] = [
        &["--scale", "huge"],
        &["--scale=huge"],
        &["--fig", "nope"],
        &["--sacle", "paper"],
        &["stray.csv"],
        &["--fig"],
        &["--scale", "smoke", "--scale", "paper"],
        &["--fig", "fig11", "--threads", "2"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
            .args(args)
            .output()
            .expect("run all_experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a figure");
    }
}

/// A SEA generation is `population` moves: with `μm = 1` and no ILS
/// seeding, every generation that completes asks the index once per
/// member. The generation that spends the last step stops before its
/// mutations.
#[test]
fn a_sea_generation_asks_one_query_per_member() {
    let (instance, exact) = instance(QueryShape::Clique, 5, 300, 0.001, 11);
    assert!(!exact, "an exact solution would end SEA early");
    let config = SeaConfig {
        mutation_rate: 1.0,
        seed_with_ils: false,
        ..SeaConfig::default_for(&instance)
    };
    let p = config.population as u64;
    assert_eq!(Algo::Sea.moves_per_step(&instance), p);
    for generations in [1, 2, 7, 30] {
        let mut rng = StdRng::seed_from_u64(generations);
        let outcome = Sea::new(config.clone()).run(
            &instance,
            &SearchBudget::iterations(generations),
            &mut rng,
        );
        let queries = outcome.stats.cache.hits() + outcome.stats.cache.misses();
        assert_eq!(outcome.stats.steps, generations);
        assert_eq!(queries, p * (generations - 1), "{generations} generations");
    }
}

/// ILS on Fig. 10b's smoke-scale chain spends its whole budget at one move
/// a step and visits a pinned number of local maxima, the count the
/// calibration divides by.
#[test]
fn ils_visits_a_pinned_number_of_local_maxima_at_the_smoke_budget() {
    let scale = Scale::Smoke;
    let (instance, _) = instance(QueryShape::Chain, 5, scale.cardinality(), 1.0, 0xB0B + 5);
    let budget = scale.budget(Algo::Ils, &instance, 40.0);
    assert_eq!(budget, SearchBudget::iterations(scale.moves(40.0)));
    let outcome = Algo::Ils.run(&instance, &budget, 2000);
    assert_eq!(
        (outcome.stats.steps, outcome.stats.local_maxima),
        (880, 124)
    );
}
