//! The portfolio's determinism contract: for a step-limited budget, a
//! fixed master seed and a fixed restart count, results are bit-identical
//! run-to-run and **independent of the thread count** — 4 worker threads
//! return exactly what 1 thread returns on the same 4 derived seeds.

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

fn run(inst: &Instance, threads: usize, master_seed: u64) -> PortfolioOutcome {
    ParallelPortfolio::new(
        Ils::new(IlsConfig::default()),
        PortfolioConfig::new(4, threads),
    )
    .run(inst, &SearchBudget::iterations(3_000), master_seed)
}

#[test]
fn four_threads_match_one_thread_bit_for_bit() {
    let inst = hard_instance(700, QueryShape::Chain, 4, 400);
    let sequential = run(&inst, 1, 4242);
    let parallel = run(&inst, 4, 4242);
    assert_eq!(sequential.threads_used, 1);
    assert_eq!(parallel.threads_used, 4);

    // Best solution and its quality.
    assert_eq!(sequential.merged.best, parallel.merged.best);
    assert_eq!(
        sequential.merged.best_violations,
        parallel.merged.best_violations
    );
    assert_eq!(
        sequential.merged.best_similarity,
        parallel.merged.best_similarity
    );

    // TopSolutions: same solutions in the same order.
    assert_eq!(
        sequential.merged.top_solutions,
        parallel.merged.top_solutions
    );

    // Deterministic counters and the (step, similarity) trace.
    assert_eq!(sequential.merged.stats.steps, parallel.merged.stats.steps);
    assert_eq!(
        sequential.merged.stats.restarts,
        parallel.merged.stats.restarts
    );
    let key = |o: &PortfolioOutcome| -> Vec<(u64, f64)> {
        o.merged
            .trace
            .iter()
            .map(|p| (p.step, p.similarity))
            .collect()
    };
    assert_eq!(key(&sequential), key(&parallel));

    // Per-restart: same seeds, same per-restart results either way.
    for (s, p) in sequential.restarts.iter().zip(&parallel.restarts) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.seed, p.seed);
        assert_eq!(s.seed, derive_seed(4242, s.index));
        assert_eq!(s.outcome.best, p.outcome.best);
        assert_eq!(s.outcome.best_violations, p.outcome.best_violations);
        assert_eq!(s.outcome.stats.steps, p.outcome.stats.steps);
    }
}

/// Deterministic fields of every restart-tagged `progress` heartbeat are
/// bit-identical at 1 vs 4 threads under a step budget. Wall-clock fields
/// (`steps_per_sec`, `elapsed_secs`) are measured and exempt; everything
/// else — including the f64 `best_similarity`, compared bit-for-bit — is
/// part of the determinism contract.
#[test]
fn progress_events_are_bit_identical_across_thread_counts() {
    use mwsj::core::{ObsHandle, RunEvent, VecSink};
    use std::sync::Arc;

    /// One heartbeat's deterministic fields: (restart, step, best
    /// violations, best-similarity bits, node accesses, cache hits, cache
    /// misses, resident bytes).
    type ProgressRow = (u64, u64, Option<u64>, Option<u64>, u64, u64, u64, u64);

    let inst = hard_instance(702, QueryShape::Chain, 4, 400);
    let telemetered_run = |threads: usize| {
        let sink = Arc::new(VecSink::new());
        let obs = ObsHandle::enabled().with_sink(sink.clone());
        let ctx = SearchContext::local(SearchBudget::iterations(3_000))
            .with_obs(obs)
            .with_telemetry(TelemetryConfig {
                progress_every: Some(100),
                ..TelemetryConfig::default()
            });
        let config = PortfolioConfig::new(4, threads);
        ParallelPortfolio::new(Ils::new(IlsConfig::default()), config).search(&inst, &ctx, 4242);
        // Canonical order: threads interleave arbitrarily in the sink, so
        // sort by (restart, step); within a restart steps are unique.
        let mut rows: Vec<ProgressRow> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
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
                } => Some((
                    restart.expect("portfolio progress is restart-tagged"),
                    *step,
                    *best_violations,
                    best_similarity.map(f64::to_bits),
                    *node_accesses,
                    *cache_hits,
                    *cache_misses,
                    *resident_bytes,
                )),
                _ => None,
            })
            .collect();
        rows.sort_unstable();
        rows
    };

    let sequential = telemetered_run(1);
    let parallel = telemetered_run(4);
    assert!(
        !sequential.is_empty(),
        "a 3000-step portfolio at cadence 100 must emit heartbeats"
    );
    assert_eq!(sequential, parallel);
}

#[test]
fn repeat_runs_are_bit_identical() {
    let inst = hard_instance(701, QueryShape::Clique, 4, 300);
    let a = run(&inst, 4, 9);
    let b = run(&inst, 4, 9);
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
