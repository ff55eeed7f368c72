//! The portfolio's contract, held to ground truth: under a step budget a
//! `K`-restart portfolio is `K` plain `search` calls — restart `i` with
//! seed `derive_seed(master, i)` under budget share `i` — and the fold of
//! their outcomes written out below, and it leaves in the caller's handle
//! what those `K` runs would.

use mwsj::core::{ObsHandle, RunEvent, VecSink, DEFAULT_TOP_K};
use mwsj::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const K: usize = 4;
const MASTER: u64 = 4242;

fn hard_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = hard_region_density(shape, n, cardinality, 1.0);
    let datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, d, &mut rng))
        .collect();
    Instance::new(shape.graph(n), datasets).unwrap()
}

/// An uneven total, so that the shares differ.
const STEPS: u64 = 3_001;

/// A context of `budget` streaming to a fresh sink, with heartbeats.
fn streamed(budget: SearchBudget, obs: ObsHandle) -> SearchContext {
    SearchContext::local(budget)
        .with_obs(obs)
        .with_telemetry(TelemetryConfig {
            progress_every: Some(100),
            ..TelemetryConfig::default()
        })
}

fn steps_and_similarity(trace: &[TracePoint]) -> Vec<(u64, f64)> {
    trace.iter().map(|p| (p.step, p.similarity)).collect()
}

/// The counter block without its one measured field.
fn counters(stats: &RunStats) -> RunStats {
    RunStats {
        elapsed: Duration::ZERO,
        ..stats.clone()
    }
}

/// The deterministic fields of the improvements and heartbeats in a stream.
fn deterministic_events(events: &[RunEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            RunEvent::Improvement {
                restart,
                step,
                violations,
                ..
            } => Some(format!("improvement {restart:?} {step} {violations}")),
            RunEvent::Progress {
                restart,
                step,
                best_violations,
                best_similarity,
                node_accesses,
                cache_hits,
                cache_misses,
                resident_bytes,
                ..
            } => Some(format!(
                "progress {restart:?} {step} {best_violations:?} {:?} {node_accesses} \
                 {cache_hits} {cache_misses} {resident_bytes}",
                best_similarity.map(f64::to_bits)
            )),
            _ => None,
        })
        .collect()
}

/// A `K`-restart portfolio of `algo`, the `K` plain searches it should
/// equal, and the deterministic fields of what each streamed.
type Runs = (PortfolioOutcome, Vec<RunOutcome>, Vec<String>, Vec<String>);

fn run_both<A: AnytimeSearch + Clone>(algo: &A, inst: &Instance, budget: SearchBudget) -> Runs {
    let sink = Arc::new(VecSink::new());
    let ctx = streamed(budget, ObsHandle::disabled().with_sink(sink.clone()));
    let portfolio = Portfolio::new(algo.clone(), K).search(inst, &ctx, MASTER);

    let plain_sink = Arc::new(VecSink::new());
    let plain: Vec<RunOutcome> = (0..K)
        .map(|i| {
            let obs = ObsHandle::disabled().with_sink(plain_sink.clone());
            let ctx = streamed(budget.share(i, K), obs.for_restart(i as u64));
            let mut rng = StdRng::seed_from_u64(derive_seed(MASTER, i));
            algo.search(inst, &ctx, &mut rng)
        })
        .collect();
    let events = |sink: Arc<VecSink>| deterministic_events(&sink.events());
    (portfolio, plain, events(sink), events(plain_sink))
}

/// What the portfolio streams, asserted equal to what the plain searches do.
fn events_of<A: AnytimeSearch + Clone>(
    algo: A,
    inst: &Instance,
    budget: SearchBudget,
) -> Vec<String> {
    let (.., streamed, plain) = run_both(&algo, inst, budget);
    assert_eq!(streamed, plain, "{}", algo.name());
    streamed
}

fn assert_portfolio_is_plain_searches<A: AnytimeSearch + Clone>(
    algo: A,
    inst: &Instance,
    budget: SearchBudget,
) {
    let name = algo.name();
    let (portfolio, plain, ..) = run_both(&algo, inst, budget);

    assert_eq!(portfolio.restarts.len(), K, "{name}");
    for (i, (restart, run)) in portfolio.restarts.iter().zip(&plain).enumerate() {
        assert_eq!((restart.index, restart.seed), (i, derive_seed(MASTER, i)));
        let got = &restart.outcome;
        assert_eq!(got.best, run.best, "{name} restart {i}");
        assert_eq!(
            got.best_violations, run.best_violations,
            "{name} restart {i}"
        );
        assert_eq!(
            counters(&got.stats),
            counters(&run.stats),
            "{name} restart {i}"
        );
        assert_eq!(
            steps_and_similarity(&got.trace),
            steps_and_similarity(&run.trace),
            "{name} restart {i}"
        );
        assert_eq!(got.top_solutions, run.top_solutions, "{name} restart {i}");
    }

    // The fold. Best: fewest violations, ties to the lower restart.
    let merged = &portfolio.merged;
    let winner = (0..K)
        .min_by_key(|&i| (plain[i].best_violations, i))
        .unwrap();
    assert_eq!(merged.best, plain[winner].best, "{name}");
    assert_eq!(merged.best_violations, plain[winner].best_violations);
    let edges = inst.graph().edge_count() as f64;
    assert_eq!(
        merged.best_similarity,
        1.0 - merged.best_violations as f64 / edges
    );
    // Top list: every restart's list offered in restart order.
    let mut top = TopSolutions::new(DEFAULT_TOP_K);
    for run in &plain {
        for (sol, violations) in &run.top_solutions {
            top.insert(sol, *violations);
        }
    }
    assert_eq!(merged.top_solutions, top.into_vec(), "{name}");
    // Trace: every point in (step, restart) order, kept where it improves.
    let mut points: Vec<(u64, usize, f64)> = plain
        .iter()
        .enumerate()
        .flat_map(|(i, run)| run.trace.iter().map(move |p| (p.step, i, p.similarity)))
        .collect();
    points.sort_by_key(|&(step, i, _)| (step, i));
    let mut trace: Vec<(u64, f64)> = Vec::new();
    for (step, _, similarity) in points {
        if trace.last().is_none_or(|&(_, best)| similarity > best) {
            trace.push((step, similarity));
        }
    }
    assert_eq!(steps_and_similarity(&merged.trace), trace, "{name}");
    // Counters: the sum of the restarts' blocks.
    let mut sum = RunStats::default();
    for run in &plain {
        sum.absorb(&run.stats);
    }
    assert_eq!(counters(&merged.stats), counters(&sum), "{name}");
    assert_eq!(
        merged.proven_optimal,
        plain.iter().any(|run| run.proven_optimal)
    );
}

// The next two tests are named from when restarts ran on a thread pool;
// the contract now holds against the `K` plain searches on one thread.

#[test]
fn four_threads_match_one_thread_bit_for_bit() {
    let inst = hard_instance(700, QueryShape::Chain, 5, 400);
    let steps = SearchBudget::iterations(STEPS);
    assert_portfolio_is_plain_searches(Ils::new(IlsConfig::default()), &inst, steps);
    assert_portfolio_is_plain_searches(Gils::default(), &inst, steps);
    let sea = Sea::new(SeaConfig::default_for(&inst));
    assert_portfolio_is_plain_searches(sea, &inst, SearchBudget::iterations(61));
}

/// Wall-clock fields are exempt; the f64 similarity is compared as bits.
#[test]
fn progress_events_are_bit_identical_across_thread_counts() {
    let inst = hard_instance(702, QueryShape::Chain, 4, 400);
    let steps = SearchBudget::iterations(STEPS);
    for events in [
        events_of(Ils::new(IlsConfig::default()), &inst, steps),
        events_of(Gils::default(), &inst, steps),
    ] {
        assert!(events.iter().any(|e| e.starts_with("progress")));
    }
    // SEA's 61 generations stay under the cadence: improvements only.
    let sea = Sea::new(SeaConfig::default_for(&inst));
    let sea = events_of(sea, &inst, SearchBudget::iterations(61));
    assert!(sea.iter().any(|e| e.starts_with("improvement")));
}

#[test]
fn a_portfolio_leaves_the_sum_of_its_restarts_in_the_callers_handle() {
    let inst = hard_instance(702, QueryShape::Clique, 4, 300);
    let obs = ObsHandle::enabled();
    let ctx = SearchContext::local(SearchBudget::iterations(STEPS)).with_obs(obs.clone());
    let outcome = Portfolio::new(Ils::new(IlsConfig::default()), K).search(&inst, &ctx, MASTER);

    let phases: Vec<(String, u64, u64)> = obs
        .timer
        .snapshot()
        .into_iter()
        .map(|p| (p.path, p.calls, p.steps))
        .collect();
    let expected: Vec<(String, u64, u64)> = outcome
        .restarts
        .iter()
        .flat_map(|r| {
            let steps = r.outcome.stats.steps;
            [
                (format!("restart[{}]", r.index), 1, 0),
                (format!("restart[{}] > ils", r.index), 1, steps),
                // Built by the first restart; the others find the bits.
                (format!("restart[{}] > ils > support", r.index), 1, 0),
            ]
        })
        .collect();
    assert_eq!(phases, expected);
    let steps: u64 = phases.iter().map(|(_, _, steps)| steps).sum();
    assert_eq!(steps, outcome.merged.stats.steps);
}

#[test]
fn repeat_runs_are_bit_identical() {
    let inst = hard_instance(701, QueryShape::Clique, 4, 300);
    let budget = SearchBudget::iterations(STEPS);
    let run = || Portfolio::new(Ils::new(IlsConfig::default()), K).run(&inst, &budget, 9);
    let (a, b) = (run(), run());
    assert_eq!(a.merged.best, b.merged.best);
    assert_eq!(a.merged.top_solutions, b.merged.top_solutions);
    assert_eq!(a.merged.stats.steps, b.merged.stats.steps);
}

#[test]
fn different_master_seeds_derive_different_restart_seeds() {
    let a: Vec<u64> = (0..4).map(|i| derive_seed(1, i)).collect();
    let b: Vec<u64> = (0..4).map(|i| derive_seed(2, i)).collect();
    assert!(a.iter().all(|s| !b.contains(s)));
}
