//! Parallel multi-restart portfolio for the anytime heuristics.
//!
//! The paper's heuristics are *anytime* searches whose quality-per-second
//! is the headline metric (Figs. 10a–c), yet each run is inherently
//! sequential. A [`ParallelPortfolio`] recovers hardware parallelism the
//! way portfolio solvers do: it fans out `K` **independently seeded
//! restarts** of one algorithm across a scoped thread pool, lets them
//! share the best-known violation count through an atomic bound
//! (mirroring how the two-step scheme of §6 feeds a heuristic bound into
//! IBB), and merges the per-restart results with a
//! **deterministic, seed-ordered reduction**.
//!
//! # Determinism guarantee
//!
//! For a **step-limited** budget the portfolio's solution-valued outputs —
//! best solution, violation count, similarity, the merged
//! [`TopSolutions`] ordering, the merged trace's `(step, similarity)`
//! pairs, and the summed step/restart counters — are a pure function of
//! `(algorithm, instance, master_seed, restarts)`. They are bit-identical
//! run-to-run **and independent of the thread count**, because:
//!
//! * restart `i` always receives seed [`derive_seed`]`(master_seed, i)`
//!   and the `i`-th share of [`SearchBudget::split`], regardless of which
//!   thread executes it;
//! * the reduction folds per-restart results in restart order, never
//!   completion order;
//! * the cross-restart cutoff (stop when the shared bound proves
//!   similarity 1 was reached) is armed iff the budget has a **time
//!   limit**, because whether a racing restart gets
//!   cut off mid-climb depends on scheduling. Time-limited runs are
//!   already non-reproducible — the paper's own setting — so there the
//!   cutoff is pure win: late restarts stop burning CPU the moment any
//!   restart publishes an exact (zero-violation) solution, which is the
//!   only *sound* cutoff for a heuristic (nothing beats similarity 1).
//!
//! Wall-clock fields ([`RunStats::elapsed`], [`TracePoint::elapsed`]) are
//! measured and therefore exempt from the guarantee.

use crate::budget::{SearchBudget, SearchContext, SharedSearchState};
use crate::instance::Instance;
use crate::result::{RunOutcome, RunStats, TopSolutions, TracePoint, DEFAULT_TOP_K};
use mwsj_obs::{merge_phase_snapshots, MetricsSnapshot, PhaseSnapshot, RunEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// An anytime search that can run under a [`SearchContext`] — the
/// interface [`ParallelPortfolio`] fans out. Every `DriveSearch`
/// implementor — the paper's heuristics ([`crate::Ils`],
/// [`crate::Gils`], [`crate::Sea`]) and the ablation baselines — gets
/// this for free via the blanket impl in the (crate-private) driver
/// module.
pub trait AnytimeSearch: Sync {
    /// Display name (matches the paper's figures).
    fn name(&self) -> &'static str;

    /// Runs one search to budget exhaustion under `ctx`, reporting what
    /// happens inside the run through the context's handle; `run_start`
    /// and [`crate::emit_run_end`] are the caller's.
    fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome;
}

/// Configuration of a [`ParallelPortfolio`].
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Number of independently seeded restarts `K` (≥ 1).
    pub restarts: usize,
    /// Worker threads; `0` uses the machine's available parallelism.
    /// Never more threads than restarts are spawned. The thread count
    /// affects wall-clock only, never results (see the module docs).
    pub threads: usize,
}

impl PortfolioConfig {
    /// `restarts` restarts on `threads` threads.
    pub fn new(restarts: usize, threads: usize) -> Self {
        PortfolioConfig { restarts, threads }
    }
}

/// The result of one seeded restart, tagged with its position in the
/// portfolio (reduction order) and the seed that produced it.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// Restart index in `0..restarts` (the reduction order).
    pub index: usize,
    /// The derived RNG seed this restart ran with.
    pub seed: u64,
    /// The restart's own search outcome.
    pub outcome: RunOutcome,
    /// Snapshot of the restart's private metrics registry (empty when the
    /// portfolio ran without observability).
    pub metrics: MetricsSnapshot,
    /// Snapshot of the restart's phase timings (empty when disabled).
    pub phases: Vec<PhaseSnapshot>,
}

/// The merged result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The deterministic seed-ordered reduction of all restarts. Its
    /// `stats` sums the per-restart counters; `stats.elapsed` is the
    /// portfolio's wall-clock time.
    pub merged: RunOutcome,
    /// Per-restart outcomes in restart (seed) order.
    pub restarts: Vec<RestartOutcome>,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Final value of the shared bound: the best violation count any
    /// restart published. `None` if no restart got far enough to publish
    /// (zero-step budgets). Feed this into [`crate::Ibb`] via
    /// [`crate::IbbConfig`] to mirror the two-step scheme with a
    /// parallel first step.
    pub bound_violations: Option<usize>,
    /// Seed-ordered merge of the per-restart metrics snapshots: counters
    /// sum, gauges take the maximum, histograms add bucket-wise. Under a
    /// step budget this is bit-identical across thread counts, exactly
    /// like the solution-valued outputs (see the module docs).
    pub metrics: MetricsSnapshot,
    /// Merge of the per-restart phase timings (wall-clock fields are
    /// measured and exempt from the determinism guarantee).
    pub phases: Vec<PhaseSnapshot>,
}

/// Derives the RNG seed of restart `index` from the portfolio's master
/// seed: a SplitMix64 mix of `master ^ (index + 1)·φ64`. Stable across
/// releases — recorded seeds in results files stay replayable.
pub fn derive_seed(master: u64, index: usize) -> u64 {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut z = master ^ (index as u64 + 1).wrapping_mul(PHI);
    z = z.wrapping_add(PHI);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `K` independently seeded restarts of one anytime algorithm across
/// a scoped thread pool and reduces their results deterministically. See
/// the module docs for the full contract.
#[derive(Debug, Clone)]
pub struct ParallelPortfolio<A> {
    algo: A,
    config: PortfolioConfig,
}

impl<A: AnytimeSearch> ParallelPortfolio<A> {
    /// Creates the portfolio runner.
    ///
    /// # Panics
    /// Panics if `config.restarts == 0`.
    pub fn new(algo: A, config: PortfolioConfig) -> Self {
        assert!(config.restarts >= 1, "a portfolio needs at least 1 restart");
        ParallelPortfolio { algo, config }
    }

    /// Runs the portfolio: `budget` is the **total** budget (steps are
    /// split across restarts; the time limit becomes one shared absolute
    /// deadline), `master_seed` determines every restart's seed.
    pub fn run(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        master_seed: u64,
    ) -> PortfolioOutcome {
        self.search(instance, &SearchContext::local(*budget), master_seed)
    }

    /// Runs the portfolio under an explicit [`SearchContext`] whose budget
    /// is the total one. Every restart reports through a private registry
    /// and timer (mirroring the handle's enabledness) via
    /// [`mwsj_obs::ObsHandle::for_restart`] and runs the context's
    /// telemetry itself (restart-tagged `progress` / `stall_detected`
    /// events; the stall watchdog stops restarts individually); restart
    /// lifecycle events go to the shared sink, and the per-restart
    /// snapshots are merged seed-ordered into [`PortfolioOutcome::metrics`]
    /// / [`PortfolioOutcome::phases`].
    pub fn search(
        &self,
        instance: &Instance,
        ctx: &SearchContext,
        master_seed: u64,
    ) -> PortfolioOutcome {
        let start = Instant::now();
        let k = self.config.restarts;
        let budget = ctx.budget();
        let shares = budget.split(k);
        let shared = SharedSearchState::new();
        // Whether a racing restart gets cut off mid-climb depends on
        // scheduling, so only budgets that read the clock anyway arm it.
        let cutoff = budget.time_limit.is_some();
        let deadline = budget.time_limit.and_then(|limit| start.checked_add(limit));
        let restart = |i: usize| {
            let ctx = ctx
                .stage(shares[i])
                .with_deadline(deadline)
                .with_shared(shared.clone(), cutoff);
            self.run_restart(instance, ctx, derive_seed(master_seed, i), i)
        };

        let threads_used = self.effective_threads();
        let mut outcomes: Vec<RestartOutcome> = if threads_used <= 1 {
            // In-thread execution: identical results by construction (the
            // parallel path differs only in which thread runs a restart).
            (0..k).map(restart).collect()
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<RestartOutcome>> = Mutex::new(Vec::with_capacity(k));
            std::thread::scope(|scope| {
                for _ in 0..threads_used {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= k {
                            break;
                        }
                        let result = restart(i);
                        collected.lock().expect("collector poisoned").push(result);
                    });
                }
            });
            collected.into_inner().expect("collector poisoned")
        };
        // Seed order, not completion order: the reduction below must not
        // depend on thread scheduling.
        outcomes.sort_unstable_by_key(|r| r.index);

        let mut merged = merge_outcomes(&outcomes, instance.graph().edge_count());
        merged.stats.elapsed = start.elapsed();

        // Seed-ordered reduction of the per-restart snapshots: the fold
        // visits restarts in index order, so the merged values are
        // independent of which thread ran which restart.
        let mut metrics = MetricsSnapshot::default();
        for restart in &outcomes {
            metrics.merge(&restart.metrics);
        }
        let phases = merge_phase_snapshots(outcomes.iter().map(|r| r.phases.clone()));

        PortfolioOutcome {
            merged,
            restarts: outcomes,
            threads_used,
            bound_violations: shared.bound_violations(),
            metrics,
            phases,
        }
    }

    /// Restart `index` under `ctx` (its budget share and the portfolio's
    /// coordination state), reporting through a restart-scoped handle.
    fn run_restart(
        &self,
        instance: &Instance,
        ctx: SearchContext,
        seed: u64,
        index: usize,
    ) -> RestartOutcome {
        let robs = ctx.obs().for_restart(index as u64);
        robs.emit(RunEvent::RestartStart {
            restart: index as u64,
            seed,
        });
        let ctx = ctx.with_obs(robs.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = {
            let _span = robs.timer.span(&format!("restart[{index}]"));
            self.algo.search(instance, &ctx, &mut rng)
        };
        robs.emit(RunEvent::RestartEnd {
            restart: index as u64,
            best_violations: outcome.best_violations as u64,
            steps: outcome.stats.steps,
            elapsed_secs: outcome.stats.elapsed.as_secs_f64(),
        });
        RestartOutcome {
            index,
            seed,
            metrics: robs.metrics.snapshot(),
            phases: robs.timer.snapshot(),
            outcome,
        }
    }

    fn effective_threads(&self) -> usize {
        let requested = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        requested.clamp(1, self.config.restarts)
    }
}

/// Folds per-restart outcomes in restart order into one [`RunOutcome`].
fn merge_outcomes(outcomes: &[RestartOutcome], edges: usize) -> RunOutcome {
    assert!(!outcomes.is_empty());

    // Best solution: fewest violations, ties to the lowest restart index.
    let winner = outcomes
        .iter()
        .min_by_key(|r| (r.outcome.best_violations, r.index))
        .expect("non-empty");

    // Top list: offer every restart's list in restart order; TopSolutions
    // dedups and breaks violation ties by arrival (= restart) order.
    let mut top = TopSolutions::new(DEFAULT_TOP_K);
    for restart in outcomes {
        for (sol, violations) in &restart.outcome.top_solutions {
            top.insert(sol, *violations);
        }
    }

    // Trace: all points ordered by (step, restart index), thinned to the
    // strictly improving prefix — "the best similarity known once every
    // restart has spent ≤ s steps". Deterministic for step budgets; the
    // recorded `elapsed` values are kept as measured.
    let mut points: Vec<(u64, usize, TracePoint)> = outcomes
        .iter()
        .flat_map(|r| r.outcome.trace.iter().map(move |p| (p.step, r.index, *p)))
        .collect();
    points.sort_by_key(|a| (a.0, a.1));
    let mut trace: Vec<TracePoint> = Vec::new();
    for (_, _, p) in points {
        if trace
            .last()
            .is_none_or(|last| p.similarity > last.similarity)
        {
            trace.push(p);
        }
    }

    // Counters: sums over restarts (elapsed is overwritten by the caller
    // with the portfolio's wall-clock).
    let mut stats = RunStats::default();
    for restart in outcomes {
        stats.absorb(&restart.outcome.stats);
    }

    RunOutcome {
        best: winner.outcome.best.clone(),
        best_violations: winner.outcome.best_violations,
        best_similarity: 1.0 - winner.outcome.best_violations as f64 / edges as f64,
        stats,
        trace,
        proven_optimal: outcomes.iter().any(|r| r.outcome.proven_optimal),
        top_solutions: top.into_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gils::Gils;
    use crate::ils::Ils;
    use crate::sea::Sea;
    use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
    use mwsj_obs::ObsHandle;

    fn hard_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = hard_region_density(shape, n, cardinality, 1.0);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        Instance::new(shape.graph(n), datasets).unwrap()
    }

    fn assert_same_results(a: &PortfolioOutcome, b: &PortfolioOutcome) {
        assert_eq!(a.merged.best, b.merged.best);
        assert_eq!(a.merged.best_violations, b.merged.best_violations);
        assert_eq!(a.merged.top_solutions, b.merged.top_solutions);
        assert_eq!(a.merged.stats.steps, b.merged.stats.steps);
        assert_eq!(a.merged.stats.restarts, b.merged.stats.restarts);
        let steps_sim = |o: &PortfolioOutcome| -> Vec<(u64, f64)> {
            o.merged
                .trace
                .iter()
                .map(|p| (p.step, p.similarity))
                .collect()
        };
        assert_eq!(steps_sim(a), steps_sim(b));
        for (ra, rb) in a.restarts.iter().zip(&b.restarts) {
            assert_eq!(ra.index, rb.index);
            assert_eq!(ra.seed, rb.seed);
            assert_eq!(ra.outcome.best, rb.outcome.best);
            assert_eq!(ra.outcome.best_violations, rb.outcome.best_violations);
            assert_eq!(ra.outcome.stats.steps, rb.outcome.stats.steps);
        }
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| derive_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seed collision");
        // Pinned so recorded seeds stay replayable across releases.
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let inst = hard_instance(90, QueryShape::Chain, 4, 300);
        let budget = SearchBudget::iterations(2_000);
        let run = |threads: usize| {
            ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(4, threads))
                .run(&inst, &budget, 1234)
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential.threads_used, 1);
        assert_eq!(parallel.threads_used, 4);
        assert_same_results(&sequential, &parallel);
        // Repeat runs are bit-identical too.
        assert_same_results(&parallel, &run(4));
    }

    #[test]
    fn portfolio_metrics_are_bit_identical_across_thread_counts() {
        let inst = hard_instance(90, QueryShape::Chain, 4, 300);
        let budget = SearchBudget::iterations(2_000);
        let run = |threads: usize| {
            let ctx = SearchContext::local(budget).with_obs(ObsHandle::enabled());
            ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(4, threads))
                .search(&inst, &ctx, 1234)
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential.threads_used, 1);
        assert_eq!(parallel.threads_used, 4);
        assert_eq!(sequential.metrics, parallel.metrics);
        for (a, b) in sequential.restarts.iter().zip(&parallel.restarts) {
            assert_eq!(a.metrics, b.metrics, "restart {} metrics differ", a.index);
        }
        // Phase paths, call counts and step attribution are deterministic;
        // wall-clock is measured and exempt.
        let shape = |phases: &[PhaseSnapshot]| -> Vec<(String, u64, u64)> {
            phases
                .iter()
                .map(|p| (p.path.clone(), p.calls, p.steps))
                .collect()
        };
        assert_eq!(shape(&sequential.phases), shape(&parallel.phases));
        // The merged counters agree with the merged RunStats.
        assert_eq!(
            sequential.metrics.counter(crate::observe::metric::STEPS),
            Some(sequential.merged.stats.steps)
        );
        assert!(sequential
            .metrics
            .counter(crate::observe::metric::NODE_ACCESSES)
            .is_some_and(|n| n > 0));
        // Cache-efficiency telemetry obeys the same determinism contract:
        // counters are present, meaningful, and independent of threads.
        for name in [
            crate::observe::metric::CACHE_HITS,
            crate::observe::metric::CACHE_MISSES,
            crate::observe::metric::CACHE_BYTES,
        ] {
            assert_eq!(
                sequential.metrics.counter(name),
                parallel.metrics.counter(name),
                "{name} differs across thread counts"
            );
            assert!(
                sequential.metrics.counter(name).is_some_and(|n| n > 0),
                "{name} missing or zero"
            );
        }
        assert_eq!(
            sequential
                .metrics
                .counter(crate::observe::metric::CACHE_HITS),
            Some(sequential.merged.stats.cache.hits())
        );
        assert_eq!(
            sequential
                .metrics
                .counter(crate::observe::metric::CACHE_MISSES),
            Some(sequential.merged.stats.cache.misses())
        );
        assert_eq!(sequential.merged.stats.cache, parallel.merged.stats.cache);
    }

    #[test]
    fn disabled_obs_leaves_snapshots_empty() {
        let inst = hard_instance(95, QueryShape::Chain, 3, 150);
        let outcome = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(2, 2)).run(
            &inst,
            &SearchBudget::iterations(200),
            3,
        );
        assert_eq!(outcome.metrics, MetricsSnapshot::default());
        assert!(outcome.phases.is_empty());
    }

    #[test]
    fn portfolio_consumes_exactly_the_step_budget() {
        let inst = hard_instance(91, QueryShape::Clique, 4, 200);
        let outcome = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(3, 3)).run(
            &inst,
            &SearchBudget::iterations(1_000),
            7,
        );
        // A restart may stop early on an exact solution; otherwise the
        // shares together consume exactly the total budget.
        if outcome.restarts.iter().all(|r| !r.outcome.is_exact()) {
            assert_eq!(outcome.merged.stats.steps, 1_000);
        }
        assert!(outcome.merged.stats.steps <= 1_000);
        let per_restart: u64 = outcome.restarts.iter().map(|r| r.outcome.stats.steps).sum();
        assert_eq!(per_restart, outcome.merged.stats.steps);
    }

    #[test]
    fn merged_best_is_no_worse_than_any_restart() {
        let inst = hard_instance(92, QueryShape::Chain, 4, 300);
        let outcome = ParallelPortfolio::new(Gils::default(), PortfolioConfig::new(4, 2)).run(
            &inst,
            &SearchBudget::iterations(2_000),
            99,
        );
        for r in &outcome.restarts {
            assert!(outcome.merged.best_violations <= r.outcome.best_violations);
        }
        assert!(outcome
            .bound_violations
            .is_some_and(|b| b == outcome.merged.best_violations));
        // The winner's solution verifies against the instance.
        assert_eq!(
            inst.violations(&outcome.merged.best),
            outcome.merged.best_violations
        );
    }

    #[test]
    fn merged_trace_is_strictly_improving() {
        let inst = hard_instance(93, QueryShape::Clique, 4, 300);
        let outcome = ParallelPortfolio::new(
            Sea::new(crate::sea::SeaConfig::default()),
            PortfolioConfig::new(4, 4),
        )
        .run(&inst, &SearchBudget::iterations(400), 5);
        for w in outcome.merged.trace.windows(2) {
            assert!(w[0].similarity < w[1].similarity);
        }
        assert_eq!(
            outcome.merged.trace.last().unwrap().similarity,
            outcome.merged.best_similarity
        );
    }

    #[test]
    fn any_restart_that_finds_an_exact_solution_publishes_the_bound() {
        // One pair in 250 overlaps: no restart is seeded with an exact
        // solution, every restart's generations soon draw one.
        let mut rng = StdRng::seed_from_u64(96);
        let datasets: Vec<Dataset> = (0..2)
            .map(|_| Dataset::uniform(100, 0.1, &mut rng))
            .collect();
        let inst = Instance::new(QueryShape::Chain.graph(2), datasets).unwrap();
        let naive_ga = crate::NaiveGa::new(crate::NaiveGaConfig::default());
        let outcome = ParallelPortfolio::new(naive_ga, PortfolioConfig::new(2, 1)).run(
            &inst,
            &SearchBudget::iterations(200),
            13,
        );
        assert!(outcome.merged.is_exact());
        assert!(outcome.merged.stats.improvements > 0, "found, not given");
        assert_eq!(outcome.bound_violations, Some(0));
    }

    #[test]
    fn more_restarts_than_threads_all_run() {
        let inst = hard_instance(94, QueryShape::Chain, 3, 150);
        let outcome = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(7, 2)).run(
            &inst,
            &SearchBudget::iterations(700),
            11,
        );
        assert_eq!(outcome.restarts.len(), 7);
        assert_eq!(outcome.threads_used, 2);
        let indices: Vec<usize> = outcome.restarts.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least 1 restart")]
    fn zero_restarts_rejected() {
        let _ = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(0, 1));
    }
}
