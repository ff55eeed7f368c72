//! Event-stream contract of [`mwsj_core`]: a run emits what happens inside
//! it and nothing that frames it — no algorithm or composite emits
//! `run_start` or the end-of-run trio, which are the caller's
//! ([`mwsj_core::run_start`], [`mwsj_core::emit_run_end`]) —, every
//! driver-run emits at most one stop-reason event, and portfolio restarts —
//! including zero-step ones when `K` exceeds the step budget — always emit
//! their `restart_start`/`restart_end` pair.

mod common;

use common::{hard_instance, sinked_obs};
use mwsj_core::{
    emit_run_end, Gils, Ibb, IbbConfig, Ils, IlsConfig, NaiveGa, NaiveGaConfig, NaiveLocalSearch,
    ParallelPortfolio, PortfolioConfig, RunEvent, SaConfig, Sea, SeaConfig, SearchBudget,
    SearchContext, SimulatedAnnealing, TwoStep, TwoStepConfig,
};
use mwsj_datagen::QueryShape;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FRAME_KINDS: [&str; 4] = ["run_start", "explain_report", "resource_report", "run_end"];

fn count_stop_reasons(events: &[RunEvent]) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                RunEvent::BudgetExhausted { .. } | RunEvent::CutoffFired { .. }
            )
        })
        .count()
}

#[test]
fn no_algorithm_or_composite_frames_its_own_run() {
    let inst = hard_instance(301, QueryShape::Chain, 4, 150);
    let budget = SearchBudget::iterations(120);
    let two_step = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(100),
    ));
    let portfolio = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(3, 1));
    // (name, the run, how many driver-runs it may hold).
    type AlgoRun<'a> = Box<dyn Fn(&SearchContext, &mut StdRng) + 'a>;
    let algos: Vec<(&str, AlgoRun, usize)> = vec![
        (
            "ILS",
            Box::new(|ctx: &SearchContext, rng: &mut StdRng| {
                let _ = Ils::new(IlsConfig::default()).search(&inst, ctx, rng);
            }),
            1,
        ),
        (
            "GILS",
            Box::new(|ctx, rng| {
                let _ = Gils::default().search(&inst, ctx, rng);
            }),
            1,
        ),
        (
            "SEA",
            Box::new(|ctx, rng| {
                let _ = Sea::new(SeaConfig::default_for(&inst)).search(&inst, ctx, rng);
            }),
            1,
        ),
        (
            "naive-LS",
            Box::new(|ctx, rng| {
                let _ = NaiveLocalSearch::default().search(&inst, ctx, rng);
            }),
            1,
        ),
        (
            "naive-GA",
            Box::new(|ctx, rng| {
                let _ = NaiveGa::new(NaiveGaConfig::default()).search(&inst, ctx, rng);
            }),
            1,
        ),
        (
            "SA",
            Box::new(|ctx, rng| {
                let _ = SimulatedAnnealing::new(SaConfig::default()).search(&inst, ctx, rng);
            }),
            1,
        ),
        (
            "IBB",
            Box::new(|ctx, _| {
                let _ = Ibb::new(IbbConfig::new()).search(&inst, ctx);
            }),
            1,
        ),
        (
            "two-step",
            Box::new(|ctx, rng| {
                let _ = two_step.search(&inst, ctx, rng);
            }),
            2,
        ),
        (
            "portfolio",
            Box::new(|ctx, _| {
                let _ = portfolio.search(&inst, ctx, 302);
            }),
            3,
        ),
    ];
    for (name, run, driver_runs) in &algos {
        let (sink, obs) = sinked_obs();
        let ctx = SearchContext::local(budget).with_obs(obs);
        run(&ctx, &mut StdRng::seed_from_u64(302));
        let events = sink.events();
        assert!(!events.is_empty(), "{name}: the run reports what it does");
        for event in &events {
            assert!(!FRAME_KINDS.contains(&event.kind()), "{name}: {event:?}");
        }
        assert!(
            count_stop_reasons(&events) <= *driver_runs,
            "{name}: at most one stop-reason event per driver-run"
        );
    }
}

#[test]
fn emit_run_end_frames_a_two_step_run_with_the_counters_of_both_stages() {
    let inst = hard_instance(303, QueryShape::Clique, 5, 400);
    let (sink, obs) = sinked_obs();
    let pipeline = TwoStep::new(TwoStepConfig::Ils(
        IlsConfig::default(),
        SearchBudget::iterations(60),
    ));
    let ctx = SearchContext::local(SearchBudget::iterations(500)).with_obs(obs.clone());
    let outcome = pipeline.search(&inst, &ctx, &mut StdRng::seed_from_u64(304));
    assert!(outcome.ran_systematic(), "the hard instance needs IBB");
    let inside = sink.events().len();
    emit_run_end(&obs, &inst, &outcome.combined());

    let events = sink.events();
    let kinds: Vec<&str> = events[inside..].iter().map(RunEvent::kind).collect();
    assert_eq!(kinds, ["explain_report", "resource_report", "run_end"]);
    // `run_end` is the overall best over the block summed across stages.
    let total = outcome.total_stats();
    assert_eq!(
        total.steps,
        outcome.heuristic.stats.steps + outcome.systematic.as_ref().unwrap().stats.steps
    );
    let expected = total.run_end(
        outcome.best.best_violations,
        outcome.best.best_similarity,
        outcome.best.proven_optimal,
    );
    assert_eq!(events.last(), Some(&expected));
}

#[test]
fn portfolio_with_more_restarts_than_steps_emits_all_restart_pairs() {
    // K = 5 restarts sharing a 3-step budget: `SearchBudget::split` hands
    // the last two restarts zero steps. They must still run, emit their
    // `restart_start`/`restart_end` pair, and merge cleanly.
    let inst = hard_instance(308, QueryShape::Chain, 4, 120);
    let (sink, obs) = sinked_obs();
    let portfolio = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(5, 1));
    let ctx = SearchContext::local(SearchBudget::iterations(3)).with_obs(obs);
    let outcome = portfolio.search(&inst, &ctx, 309);

    let events = sink.events();
    let starts: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::RestartStart { restart, .. } => Some(*restart),
            _ => None,
        })
        .collect();
    let ends: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::RestartEnd { restart, steps, .. } => Some((*restart, *steps)),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 5, "every restart emits restart_start");
    assert_eq!(ends.len(), 5, "every restart emits restart_end");
    for i in 0..5u64 {
        assert!(starts.contains(&i), "restart_start for restart {i}");
    }
    let zero_step = ends.iter().filter(|(_, steps)| *steps == 0).count();
    assert_eq!(zero_step, 2, "split(3, 5) leaves two zero-step restarts");
    assert_eq!(
        ends.iter().map(|(_, steps)| steps).sum::<u64>(),
        3,
        "restart steps sum to the total budget"
    );

    assert_eq!(outcome.merged.stats.steps, 3);
    assert_eq!(outcome.restarts.len(), 5);
    // Zero-step restarts still produce a (random fallback) outcome.
    assert!(outcome
        .restarts
        .iter()
        .all(|r| r.outcome.best.len() == inst.n_vars()));
}
