//! Cross-algorithm observability audit: every index-driven algorithm must
//! account its R*-tree node accesses in [`mwsj_core::RunStats`] and report
//! its events and phases through an enabled handle.

mod common;

use common::{hard_instance, sinked_obs};
use mwsj_core::{
    Gils, Ibb, IbbConfig, Ils, ObsHandle, RunEvent, Sea, SeaConfig, SearchBudget, SearchContext,
    TwoStep, TwoStepConfig, WindowReduction,
};
use mwsj_core::{IlsConfig, Instance};
use mwsj_datagen::{hard_region_density, plant_solution, Dataset, QueryShape};
use mwsj_geom::Predicate;
use mwsj_query::QueryGraphBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn planted_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = hard_region_density(shape, n, cardinality, 1.0);
    let mut datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    let graph = shape.graph(n);
    plant_solution(&mut datasets, &graph, &mut rng);
    Instance::new(graph, datasets).unwrap()
}

#[test]
fn every_index_driven_algorithm_accounts_node_accesses() {
    let inst = planted_instance(201, QueryShape::Clique, 4, 150);
    let budget = SearchBudget::iterations(500);
    let mut rng = StdRng::seed_from_u64(202);

    let ils = Ils::default().run(&inst, &budget, &mut rng);
    assert!(ils.stats.node_accesses > 0, "ILS");

    let gils = Gils::default().run(&inst, &budget, &mut rng);
    assert!(gils.stats.node_accesses > 0, "GILS");

    let sea = Sea::new(SeaConfig::default_for(&inst)).run(&inst, &budget, &mut rng);
    assert!(sea.stats.node_accesses > 0, "SEA");

    let sea_seeded =
        Sea::new(SeaConfig::default_for(&inst).with_ils_seeding()).run(&inst, &budget, &mut rng);
    assert!(sea_seeded.stats.node_accesses > 0, "SEA (ILS seeding)");

    let ibb = Ibb::new(IbbConfig::new()).run(&inst, &SearchBudget::seconds(30.0));
    assert!(ibb.stats.node_accesses > 0, "IBB");

    let wr = WindowReduction::new().run(&inst, &SearchBudget::seconds(30.0), 5);
    assert!(wr.stats.node_accesses > 0, "WR");

    let two_step = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(200),
    ))
    .run(&inst, &SearchBudget::seconds(30.0), &mut rng);
    assert!(
        two_step.total_stats().node_accesses > 0,
        "two-step pipeline"
    );
    assert!(
        two_step.total_stats().node_accesses >= two_step.heuristic.stats.node_accesses,
        "total includes both steps"
    );
}

#[test]
fn wr_counts_accesses_on_both_of_its_openings() {
    // A 2-variable query: WR opens with the pairwise join of the two trees
    // under Intersects and scans the first variable, probing the second's
    // index, under NorthEast. Both must count their reads.
    let mut rng = StdRng::seed_from_u64(203);
    let datasets: Vec<Dataset> = (0..2)
        .map(|_| Dataset::uniform(200, 0.5, &mut rng))
        .collect();
    for pred in [Predicate::Intersects, Predicate::NorthEast] {
        let graph = QueryGraphBuilder::new(2)
            .edge_with(0, 1, pred)
            .build()
            .unwrap();
        let inst = Instance::new(graph, datasets.clone()).unwrap();
        let solutions = common::assert_wr_matches_the_counter(&inst, usize::MAX, "two variables");
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(30.0), usize::MAX);
        assert!(solutions > 0, "{pred}");
        assert!(outcome.stats.node_accesses > 0, "{pred}");
    }
}

#[test]
fn enabled_handle_receives_events_and_phases() {
    let inst = hard_instance(204, QueryShape::Chain, 4, 200);
    let (sink, obs) = sinked_obs();
    let ctx = SearchContext::local(SearchBudget::iterations(400)).with_obs(obs.clone());
    let mut rng = StdRng::seed_from_u64(205);
    let outcome = Ils::default().search(&inst, &ctx, &mut rng);

    let events = sink.events();
    let improvements = events
        .iter()
        .filter(|e| matches!(e, RunEvent::Improvement { .. }))
        .count() as u64;
    // One event per incumbent improvement plus one for the initial
    // incumbent of each restart.
    assert!(improvements > outcome.stats.improvements);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RunEvent::BudgetExhausted { .. })),
        "step-budgeted run must report budget exhaustion"
    );

    // Phase attribution: all steps land under the "ils" span.
    let phases = obs.timer.snapshot();
    let ils_phase = phases.iter().find(|p| p.path == "ils").expect("ils phase");
    assert_eq!(ils_phase.steps, outcome.stats.steps);
}

#[test]
fn disabled_handle_collects_nothing() {
    let inst = planted_instance(206, QueryShape::Chain, 3, 100);
    let obs = ObsHandle::disabled();
    let ctx = SearchContext::local(SearchBudget::iterations(100)).with_obs(obs.clone());
    let mut rng = StdRng::seed_from_u64(207);
    let _ = Ils::default().search(&inst, &ctx, &mut rng);
    assert!(obs.timer.snapshot().is_empty());
}
