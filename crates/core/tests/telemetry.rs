//! Live-telemetry contract of the search driver: `progress` heartbeats
//! follow a step-indexed cadence (deterministic counter fields, monotone
//! steps), the stall watchdog detects no-improvement windows and — with
//! `stall_abort` — stops the run through the cutoff machinery with the
//! distinct `stall_aborted` stop reason, GILS surfaces its stagnation
//! reseed as an event, and none of it perturbs search counters.

mod common;

use common::{hard_instance, sinked_obs};
use mwsj_core::{
    Gils, GilsConfig, Ils, IlsConfig, Instance, RunEvent, RunOutcome, SearchBudget, SearchContext,
    TelemetryConfig,
};
use mwsj_datagen::{Dataset, QueryShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A GILS that is structurally glued to its first local maximum: λ = 0
/// makes punishment weightless (no downhill moves ever) and
/// `stagnation_reseed: 0` disables the reseed safeguard — a deterministic
/// no-improvement run for exercising the stall watchdog.
fn glued_gils() -> Gils {
    Gils::new(GilsConfig {
        lambda: Some(0.0),
        stagnation_reseed: 0,
    })
}

fn run_ils(inst: &Instance, budget: u64, seed: u64, ctx: SearchContext) -> RunOutcome {
    let _ = budget;
    let mut rng = StdRng::seed_from_u64(seed);
    Ils::new(IlsConfig::default()).search(inst, &ctx, &mut rng)
}

#[test]
fn progress_events_follow_step_indexed_cadence() {
    let inst = hard_instance(901, QueryShape::Chain, 4, 150);
    let (sink, obs) = sinked_obs();
    let telemetry = TelemetryConfig {
        progress_every: Some(50),
        ..TelemetryConfig::default()
    };
    let ctx = SearchContext::local(SearchBudget::iterations(500))
        .with_obs(obs)
        .with_telemetry(telemetry);
    let outcome = run_ils(&inst, 500, 902, ctx);
    assert_eq!(outcome.stats.steps, 500);

    let mut last_step = 0;
    let mut last_accesses = 0;
    let mut count = 0;
    for event in sink.events() {
        if let RunEvent::Progress {
            restart,
            step,
            node_accesses,
            resident_bytes,
            best_similarity,
            ..
        } = event
        {
            count += 1;
            assert_eq!(restart, None, "standalone run is untagged");
            assert_eq!(step % 50, 0, "cadence is step-indexed");
            assert!(step > last_step, "heartbeat steps strictly increase");
            assert!(
                node_accesses >= last_accesses,
                "cumulative counters never decrease"
            );
            assert!(
                resident_bytes > 0,
                "instance index structures have nonzero footprint"
            );
            if let Some(sim) = best_similarity {
                assert!((0.0..=1.0).contains(&sim));
            }
            last_step = step;
            last_accesses = node_accesses;
        }
    }
    assert_eq!(count, 500 / 50, "one heartbeat per cadence slot");
}

#[test]
fn progress_requires_a_sink() {
    // Without a sink the watch state must not arm progress (it could not
    // emit anywhere); the run works normally.
    let inst = hard_instance(903, QueryShape::Chain, 4, 120);
    let telemetry = TelemetryConfig {
        progress_every: Some(10),
        ..TelemetryConfig::default()
    };
    let ctx = SearchContext::local(SearchBudget::iterations(100)).with_telemetry(telemetry);
    let outcome = run_ils(&inst, 100, 904, ctx);
    assert!(outcome.stats.steps > 0 && outcome.stats.steps <= 100);
}

#[test]
fn progress_emission_never_perturbs_search_counters() {
    let inst = hard_instance(905, QueryShape::Chain, 4, 200);
    let budget = SearchBudget::iterations(400);

    let plain = {
        let ctx = SearchContext::local(budget);
        run_ils(&inst, 400, 906, ctx)
    };
    let telemetered = {
        let (_sink, obs) = sinked_obs();
        let telemetry = TelemetryConfig {
            progress_every: Some(7),
            stall_window_steps: Some(50),
            ..TelemetryConfig::default()
        };
        let ctx = SearchContext::local(budget)
            .with_obs(obs)
            .with_telemetry(telemetry);
        run_ils(&inst, 400, 906, ctx)
    };

    assert_eq!(plain.best, telemetered.best);
    assert_eq!(plain.best_violations, telemetered.best_violations);
    assert_eq!(plain.stats.steps, telemetered.stats.steps);
    assert_eq!(plain.stats.restarts, telemetered.stats.restarts);
    assert_eq!(plain.stats.local_maxima, telemetered.stats.local_maxima);
    assert_eq!(plain.stats.node_accesses, telemetered.stats.node_accesses);
    assert_eq!(plain.stats.improvements, telemetered.stats.improvements);
    assert_eq!(plain.stats.cache, telemetered.stats.cache);
    let key = |o: &RunOutcome| -> Vec<(u64, u64)> {
        o.trace
            .iter()
            .map(|p| (p.step, p.similarity.to_bits()))
            .collect()
    };
    assert_eq!(key(&plain), key(&telemetered));
}

#[test]
fn stalled_run_emits_one_stall_detected_per_episode() {
    let inst = hard_instance(907, QueryShape::Chain, 4, 150);
    let (sink, obs) = sinked_obs();
    let telemetry = TelemetryConfig {
        stall_window_steps: Some(100),
        ..TelemetryConfig::default()
    };
    let ctx = SearchContext::local(SearchBudget::iterations(600))
        .with_obs(obs)
        .with_telemetry(telemetry);
    let mut rng = StdRng::seed_from_u64(908);
    let outcome = glued_gils().search(&inst, &ctx, &mut rng);
    assert_eq!(outcome.stats.steps, 600, "detection alone must not stop it");

    let events = sink.events();
    let stalls: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::StallDetected {
                step,
                steps_since_improvement,
                ..
            } => Some((*step, *steps_since_improvement)),
            _ => None,
        })
        .collect();
    assert_eq!(
        stalls.len(),
        1,
        "glued GILS never improves again: exactly one stall episode"
    );
    assert!(stalls[0].1 >= 100, "the window was actually exceeded");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RunEvent::BudgetExhausted { .. })),
        "without stall_abort the budget is the stop reason"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, RunEvent::StallAborted { .. })),
        "no abort was requested"
    );
}

#[test]
fn stall_abort_stops_the_run_with_a_distinct_stop_reason() {
    let inst = hard_instance(907, QueryShape::Chain, 4, 150);
    let (sink, obs) = sinked_obs();
    let telemetry = TelemetryConfig {
        stall_window_steps: Some(100),
        stall_abort: true,
        ..TelemetryConfig::default()
    };
    let ctx = SearchContext::local(SearchBudget::iterations(100_000))
        .with_obs(obs)
        .with_telemetry(telemetry);
    let mut rng = StdRng::seed_from_u64(908);
    let outcome = glued_gils().search(&inst, &ctx, &mut rng);
    assert!(
        outcome.stats.steps < 100_000,
        "the watchdog must stop a hopeless run long before the budget"
    );
    assert_eq!(inst.violations(&outcome.best), outcome.best_violations);

    let events = sink.events();
    let aborts = events
        .iter()
        .filter(|e| matches!(e, RunEvent::StallAborted { .. }))
        .count();
    assert_eq!(aborts, 1, "exactly one stall_aborted stop reason");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, RunEvent::BudgetExhausted { .. })),
        "stall_aborted replaces budget_exhausted"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RunEvent::StallDetected { .. })),
        "the abort is preceded by its detection event"
    );
}

#[test]
fn a_step_that_improves_is_not_a_stalled_step() {
    // Dense data: the first step of the climb already reaches an exact
    // solution. A window of one step must not fire on it — the watchdog
    // counts completed steps without improvement, not the step under way.
    let mut rng = StdRng::seed_from_u64(915);
    let datasets: Vec<Dataset> = (0..2)
        .map(|_| Dataset::uniform(2_000, 0.3, &mut rng))
        .collect();
    let inst = Instance::new(QueryShape::Chain.graph(2), datasets).unwrap();
    let (sink, obs) = sinked_obs();
    let telemetry = TelemetryConfig {
        stall_window_steps: Some(1),
        stall_abort: true,
        ..TelemetryConfig::default()
    };
    let ctx = SearchContext::local(SearchBudget::iterations(100))
        .with_obs(obs)
        .with_telemetry(telemetry);
    let outcome = run_ils(&inst, 100, 916, ctx);
    assert!(outcome.is_exact());
    assert!(outcome.stats.steps > 0, "the seed was not exact already");
    let events = sink.events();
    assert_eq!(
        events.last().map(RunEvent::kind),
        Some("improvement"),
        "the run ends on the improving step: {events:?}"
    );
    for event in &events {
        assert!(
            !matches!(
                event,
                RunEvent::StallDetected { .. } | RunEvent::StallAborted { .. }
            ),
            "{event:?}"
        );
    }
}

#[test]
fn stall_abort_works_without_a_sink() {
    let inst = hard_instance(909, QueryShape::Chain, 4, 150);
    let telemetry = TelemetryConfig {
        stall_window_steps: Some(100),
        stall_abort: true,
        ..TelemetryConfig::default()
    };
    let ctx = SearchContext::local(SearchBudget::iterations(100_000)).with_telemetry(telemetry);
    let mut rng = StdRng::seed_from_u64(910);
    let outcome = glued_gils().search(&inst, &ctx, &mut rng);
    assert!(
        outcome.stats.steps < 100_000,
        "robustness does not depend on anyone listening"
    );
}

#[test]
fn gils_stagnation_reseed_is_surfaced_as_an_event() {
    let inst = hard_instance(911, QueryShape::Chain, 4, 150);
    let (sink, obs) = sinked_obs();
    let ctx = SearchContext::local(SearchBudget::iterations(2_000)).with_obs(obs);
    let mut rng = StdRng::seed_from_u64(912);
    // λ = 0 stagnates immediately; a tiny reseed threshold fires often.
    let gils = Gils::new(GilsConfig {
        lambda: Some(0.0),
        stagnation_reseed: 3,
    });
    let outcome = gils.search(&inst, &ctx, &mut rng);

    let reseeds: Vec<u64> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            RunEvent::StagnationReseed { rounds, .. } => Some(*rounds),
            _ => None,
        })
        .collect();
    assert!(
        !reseeds.is_empty(),
        "a stagnating GILS must surface its reseeds"
    );
    assert!(
        reseeds.iter().all(|&r| r >= 3),
        "each firing reports at least the configured round threshold"
    );
    assert!(
        outcome.stats.restarts as usize > reseeds.len(),
        "the initial seed plus degenerate reseeds outnumber stagnation firings"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Progress heartbeats are monotone in steps, hit exactly the
    /// step-indexed cadence slots, and their cumulative counter fields
    /// never decrease — for arbitrary budgets and cadences.
    #[test]
    fn progress_is_monotone_and_cadence_exact(
        budget in 20u64..300,
        every in 1u64..40,
        seed in 0u64..1_000,
    ) {
        let inst = hard_instance(913, QueryShape::Chain, 3, 80);
        let (sink, obs) = sinked_obs();
        let telemetry = TelemetryConfig {
            progress_every: Some(every),
            ..TelemetryConfig::default()
        };
        let ctx = SearchContext::local(SearchBudget::iterations(budget))
            .with_obs(obs)
            .with_telemetry(telemetry);
        let outcome = run_ils(&inst, budget, seed, ctx);
        prop_assert_eq!(outcome.stats.steps, budget);

        let steps: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::Progress { step, .. } => Some(*step),
                _ => None,
            })
            .collect();
        prop_assert_eq!(steps.len() as u64, budget / every);
        for window in steps.windows(2) {
            prop_assert!(window[0] < window[1], "strictly increasing steps");
        }
        for (i, step) in steps.iter().enumerate() {
            prop_assert_eq!(*step, (i as u64 + 1) * every, "exact cadence slots");
        }
    }
}
