//! The search driver: shared run bookkeeping for every algorithm.
//!
//! Historically each algorithm (ILS, GILS, SEA, the naive baselines, SA,
//! IBB, the two-step pipeline) carried its own copy of the run scaffolding:
//! stepping the [`BudgetClock`], tracking the incumbent and
//! [`TopSolutions`], recording `(step, similarity)` trace points, flushing
//! counters and emitting stop-reason events. [`SearchDriver`] owns all of
//! that; the algorithms reduce to *drive* functions ([`DriveSearch`]) that
//! only encode their search moves.
//!
//! Counter-compatibility contract (DESIGN.md §5e): the driver reproduces
//! the pre-refactor bookkeeping **bit-exactly** — steps, improvements,
//! restarts, local maxima and the `(step, similarity)` trace of every
//! algorithm are unchanged; `node_accesses` may only decrease (via
//! [`WindowCache`] hits and the instance's support
//! bits).
//!
//! The driver emits what happens *inside* a run (improvements, progress,
//! stalls, the stop reason). What *frames* a run — `run_start` and the
//! end-of-run trio of [`crate::emit_run_end`] — is the caller's to emit.

use crate::budget::{BudgetClock, SearchContext, TelemetryConfig};
use crate::instance::Instance;
use crate::portfolio::AnytimeSearch;
use crate::result::{Incumbent, RunOutcome, RunStats, TopSolutions, DEFAULT_TOP_K};
use crate::window_cache::WindowCache;
use mwsj_obs::{MemoryFootprint, ObsHandle, RunEvent};
use mwsj_query::Solution;
use rand::rngs::StdRng;
use std::time::Instant;

/// Live-telemetry state of one run: the progress-heartbeat cadence and the
/// stall watchdog. Present only when the context's [`TelemetryConfig`]
/// asked for something this run can deliver, so the per-step cost of the
/// disabled path stays one `Option` check.
#[derive(Debug)]
struct WatchState {
    /// Progress cadence in steps (`None` = no heartbeats; requires a sink).
    progress_every: Option<u64>,
    /// Stall window in steps.
    stall_window_steps: Option<u64>,
    /// Stall window in wall-clock seconds (opt-in: costs an
    /// `Instant::now()` per step while armed).
    stall_window_secs: Option<f64>,
    /// Stop the run (via [`BudgetClock::trip_stall`]) when a stall fires.
    stall_abort: bool,
    /// Instance index-structure bytes, computed once (deterministic).
    instance_bytes: u64,
    /// Step count at the last incumbent improvement (or run start).
    last_improvement_step: u64,
    /// Wall clock at the last incumbent improvement (or run start).
    last_improvement_time: Instant,
    /// `true` while a declared stall episode is open (re-armed by the next
    /// improvement), so each episode emits one `stall_detected`.
    stalled: bool,
    /// Latest deterministic window-cache sample (see
    /// [`SearchDriver::sample_cache`]).
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: u64,
}

impl WatchState {
    /// Builds the watch state for `telemetry`, or `None` when nothing is
    /// asked for (or nothing can be delivered: progress and stall
    /// *reporting* need a sink; stall-*abort* works sinkless).
    fn new(telemetry: &TelemetryConfig, instance: &Instance, obs: &ObsHandle) -> Option<Self> {
        let progress_every = if obs.has_sink() {
            telemetry.progress_every.filter(|&n| n > 0)
        } else {
            None
        };
        let watches_stalls =
            telemetry.watches_stalls() && (obs.has_sink() || telemetry.stall_abort);
        if progress_every.is_none() && !watches_stalls {
            return None;
        }
        Some(WatchState {
            progress_every,
            stall_window_steps: telemetry.stall_window_steps.filter(|_| watches_stalls),
            stall_window_secs: telemetry.stall_window_secs.filter(|_| watches_stalls),
            stall_abort: telemetry.stall_abort,
            instance_bytes: if progress_every.is_some() {
                instance.memory_bytes()
            } else {
                0
            },
            last_improvement_step: 0,
            last_improvement_time: Instant::now(),
            stalled: false,
            cache_hits: 0,
            cache_misses: 0,
            cache_bytes: 0,
        })
    }
}

/// Owns the run-wide state of one search invocation: budget clock, counter
/// block, incumbent (best solution + trace + top list) and the
/// end-of-run observability duties.
#[derive(Debug)]
pub(crate) struct SearchDriver {
    clock: BudgetClock,
    stats: RunStats,
    incumbent: Option<Incumbent>,
    edges: usize,
    /// Live-telemetry state; `None` keeps the hot path at one check.
    watch: Option<WatchState>,
}

impl SearchDriver {
    /// Starts the clock for one run of `instance` under `ctx`, with no
    /// per-level profile rows (see [`SearchDriver::with_access_profile`]).
    pub(crate) fn new(instance: &Instance, ctx: &SearchContext) -> Self {
        let clock = BudgetClock::from_context(ctx);
        let watch = WatchState::new(ctx.telemetry(), instance, ctx.obs());
        SearchDriver {
            clock,
            stats: RunStats::default(),
            incumbent: None,
            edges: instance.graph().edge_count(),
            watch,
        }
    }

    /// Sizes the per-level profile: one row per variable, one slot per
    /// tree level. Only the runs that report the rows (the anytime drives
    /// and IBB) pay for them; an exact join's tallies go to empty rows.
    pub(crate) fn with_access_profile(mut self, instance: &Instance) -> Self {
        self.stats.access_profile = (0..instance.n_vars())
            .map(|v| vec![0; instance.tree(v).height() as usize])
            .collect();
        self
    }

    /// Records one budget step (see [`BudgetClock::step`]).
    #[inline]
    pub(crate) fn step(&mut self) {
        self.clock.step();
        if self.watch.is_some() {
            self.watch_step();
        }
    }

    /// Per-step live-telemetry work, outlined so the telemetry-off path
    /// costs only the `is_some` check above.
    fn watch_step(&mut self) {
        let step = self.clock.steps();
        let (do_progress, stall) = {
            let watch = self
                .watch
                .as_mut()
                .expect("watch_step requires watch state");
            let do_progress = watch
                .progress_every
                .is_some_and(|every| step.is_multiple_of(every));
            let mut stall = None;
            if !watch.stalled
                && (watch.stall_window_steps.is_some() || watch.stall_window_secs.is_some())
            {
                // Completed steps without an improvement: the step that is
                // starting has not offered its result yet.
                let steps_since = step - 1 - watch.last_improvement_step;
                let step_stall = watch.stall_window_steps.is_some_and(|w| steps_since >= w);
                // Only pay an Instant::now() per step when a wall window
                // was explicitly configured.
                let secs_since = watch
                    .stall_window_secs
                    .map(|_| watch.last_improvement_time.elapsed().as_secs_f64());
                let wall_stall = watch
                    .stall_window_secs
                    .zip(secs_since)
                    .is_some_and(|(w, s)| s >= w);
                if step_stall || wall_stall {
                    watch.stalled = true;
                    stall = Some((steps_since, secs_since, watch.stall_abort));
                }
            }
            (do_progress, stall)
        };
        if do_progress {
            self.emit_progress(step);
        }
        if let Some((steps_since, secs_since, abort)) = stall {
            let obs = self.clock.obs();
            if obs.has_sink() {
                let secs_since = secs_since.unwrap_or_else(|| {
                    self.watch
                        .as_ref()
                        .expect("watch state")
                        .last_improvement_time
                        .elapsed()
                        .as_secs_f64()
                });
                obs.emit(RunEvent::StallDetected {
                    restart: obs.restart(),
                    step,
                    steps_since_improvement: steps_since,
                    secs_since_improvement: secs_since,
                    elapsed_secs: self.clock.elapsed().as_secs_f64(),
                });
            }
            if abort {
                self.clock.trip_stall();
            }
        }
    }

    /// Emits one `progress` heartbeat. Every counter-valued field is a
    /// pure function of algorithmic state (the cadence is step-indexed and
    /// the cache sample points are algorithm-chosen), so heartbeats are
    /// deterministic under step budgets; the two wall fields are measured.
    fn emit_progress(&self, step: u64) {
        let watch = self.watch.as_ref().expect("progress requires watch state");
        let obs = self.clock.obs();
        let elapsed = self.clock.elapsed().as_secs_f64();
        let steps_per_sec = if elapsed > 0.0 {
            step as f64 / elapsed
        } else {
            0.0
        };
        obs.emit(RunEvent::Progress {
            restart: obs.restart(),
            step,
            steps_per_sec,
            elapsed_secs: elapsed,
            best_violations: self.best_violations().map(|v| v as u64),
            best_similarity: self
                .best_violations()
                .map(|v| 1.0 - v as f64 / self.edges as f64),
            node_accesses: self.stats.node_accesses,
            cache_hits: watch.cache_hits,
            cache_misses: watch.cache_misses,
            resident_bytes: watch.instance_bytes + watch.cache_bytes,
        });
    }

    /// Notes an incumbent improvement for the stall watchdog: re-arms the
    /// stall episode and resets both windows.
    fn note_improvement(&mut self) {
        if let Some(watch) = &mut self.watch {
            watch.last_improvement_step = self.clock.steps();
            watch.last_improvement_time = Instant::now();
            watch.stalled = false;
        }
    }

    /// Records a deterministic window-cache sample for subsequent
    /// `progress` heartbeats. Drives call this at algorithm-chosen
    /// boundaries (ILS restarts/local maxima, GILS punishment rounds, SEA
    /// generations), so the sampled values are themselves deterministic
    /// and reading them never perturbs the search. No-op unless progress
    /// heartbeats are active.
    pub(crate) fn sample_cache(&mut self, cache: &WindowCache) {
        if let Some(watch) = &mut self.watch {
            if watch.progress_every.is_some() {
                let (hits, misses, bytes) = cache.sample_totals();
                watch.cache_hits = hits;
                watch.cache_misses = misses;
                watch.cache_bytes = bytes;
            }
        }
    }

    /// Emits GILS's `stagnation_reseed` trace event (no-op without a sink).
    pub(crate) fn emit_stagnation_reseed(&self, rounds: u64) {
        let obs = self.clock.obs();
        if !obs.has_sink() {
            return;
        }
        obs.emit(RunEvent::StagnationReseed {
            restart: obs.restart(),
            step: self.clock.steps(),
            rounds,
            elapsed_secs: self.clock.elapsed().as_secs_f64(),
        });
    }

    /// `true` once the budget (or the stall watchdog) stops the run.
    #[inline]
    pub(crate) fn exhausted(&self) -> bool {
        self.clock.exhausted()
    }

    /// Fraction of the budget consumed (see
    /// [`BudgetClock::fraction_consumed`]).
    #[inline]
    pub(crate) fn fraction_consumed(&self) -> f64 {
        self.clock.fraction_consumed()
    }

    /// The run's observability handle.
    #[inline]
    pub(crate) fn obs(&self) -> &ObsHandle {
        self.clock.obs()
    }

    /// The run's budget clock.
    pub(crate) fn clock(&self) -> &BudgetClock {
        &self.clock
    }

    /// Mutable access to the counter block (restarts, local maxima, …).
    #[inline]
    pub(crate) fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Split borrow of the node-access counter and the per-level
    /// attribution row of `var`, in the shape the leveled traversal
    /// kernels increment (an empty row when the profile is not sized;
    /// the kernels skip a level the row has no slot for). The two live in
    /// disjoint `RunStats` fields, so both can be handed out mutably at
    /// once.
    #[inline]
    pub(crate) fn tally(&mut self, var: mwsj_query::VarId) -> (&mut u64, &mut [u64]) {
        let row = self.stats.access_profile.get_mut(var);
        (
            &mut self.stats.node_accesses,
            row.map_or(&mut [], Vec::as_mut_slice),
        )
    }

    /// Violations of the incumbent, if one exists yet.
    #[inline]
    pub(crate) fn best_violations(&self) -> Option<usize> {
        self.incumbent.as_ref().map(|inc| inc.best_violations)
    }

    /// The branch-and-bound pruning bound: the incumbent's violations, or
    /// one more than the worst possible so any full solution beats it.
    #[inline]
    pub(crate) fn bound(&self) -> usize {
        self.best_violations().unwrap_or(self.edges + 1)
    }

    /// Offers `sol` to the incumbent (the shared move of the anytime
    /// heuristics): creations and strict improvements update the trace and
    /// top list and emit an improvement event. Returns `true` when the incumbent was created or improved.
    pub(crate) fn offer(&mut self, sol: &Solution, violations: usize) -> bool {
        let improved = match &mut self.incumbent {
            None => {
                self.incumbent = Some(Incumbent::new(
                    sol.clone(),
                    violations,
                    self.edges,
                    self.clock.elapsed(),
                    self.clock.steps(),
                ));
                crate::observe::emit_improvement(&self.clock, violations, self.edges);
                true
            }
            Some(inc) => {
                if inc.offer(
                    sol,
                    violations,
                    self.edges,
                    || self.clock.elapsed(),
                    self.clock.steps(),
                ) {
                    crate::observe::emit_improvement(&self.clock, violations, self.edges);
                    true
                } else {
                    false
                }
            }
        };
        if improved {
            self.note_improvement();
        }
        improved
    }

    /// Installs an initial incumbent **silently**: trace point and top-list
    /// entry, but no improvement event. Used for
    /// seeds that are given, not found (IBB's heuristic bound, naive-GA's
    /// first population member).
    pub(crate) fn seed_incumbent(&mut self, sol: &Solution, violations: usize) {
        debug_assert!(self.incumbent.is_none(), "incumbent already seeded");
        self.incumbent = Some(Incumbent::new(
            sol.clone(),
            violations,
            self.edges,
            self.clock.elapsed(),
            self.clock.steps(),
        ));
    }

    /// Records a full solution found by systematic search (IBB): strictly
    /// better than the bound by construction, counted as an improvement and
    /// emitted as one.
    pub(crate) fn record_best(&mut self, sol: &Solution, violations: usize) {
        match &mut self.incumbent {
            None => {
                let mut inc = Incumbent::new(
                    sol.clone(),
                    violations,
                    self.edges,
                    self.clock.elapsed(),
                    self.clock.steps(),
                );
                // The first *found* solution counts as an improvement
                // (unlike a given seed, which Incumbent::new records as 0).
                inc.improvements = 1;
                self.incumbent = Some(inc);
            }
            Some(inc) => {
                let improved = inc.offer(
                    sol,
                    violations,
                    self.edges,
                    || self.clock.elapsed(),
                    self.clock.steps(),
                );
                debug_assert!(improved, "record_best requires a bound-beating solution");
            }
        }
        crate::observe::emit_improvement(&self.clock, violations, self.edges);
        self.note_improvement();
    }

    /// Finishes an anytime run: falls back to a random solution when the
    /// budget expired before any incumbent existed, freezes the counters,
    /// emits the stop reason and assembles the outcome.
    pub(crate) fn finish(self, instance: &Instance, rng: &mut StdRng) -> RunOutcome {
        let fallback = |clock: &BudgetClock, rng: &mut StdRng| {
            let sol = instance.random_solution(rng);
            let v = instance.violations(&sol);
            Incumbent::new(
                sol,
                v,
                instance.graph().edge_count(),
                clock.elapsed(),
                clock.steps(),
            )
        };
        let incumbent = match self.incumbent {
            Some(inc) => inc,
            None => fallback(&self.clock, rng),
        };
        Self::into_outcome(self.clock, self.stats, incumbent, self.edges, false)
    }

    /// Finishes a systematic (IBB) run: `proven_optimal` is the caller's
    /// exhaustiveness verdict, and the no-incumbent fallback is the
    /// arbitrary all-zero assignment with an **empty** trace/top list (the
    /// run provably never found anything).
    pub(crate) fn finish_systematic(self, instance: &Instance, proven_optimal: bool) -> RunOutcome {
        let incumbent = self.incumbent.unwrap_or_else(|| {
            let sol = Solution::new(vec![0; instance.n_vars()]);
            let best_violations = instance.violations(&sol);
            Incumbent {
                best: sol,
                best_violations,
                improvements: 0,
                trace: Vec::new(),
                top: TopSolutions::new(DEFAULT_TOP_K),
            }
        });
        Self::into_outcome(
            self.clock,
            self.stats,
            incumbent,
            self.edges,
            proven_optimal,
        )
    }

    /// Finishes an exact join: its counters. Its driver has no per-level
    /// profile, which the opening join's reads have no place in.
    pub(crate) fn finish_exact(mut self) -> RunStats {
        self.clock.finish(&mut self.stats);
        self.stats
    }

    fn into_outcome(
        clock: BudgetClock,
        mut stats: RunStats,
        incumbent: Incumbent,
        edges: usize,
        proven_optimal: bool,
    ) -> RunOutcome {
        stats.improvements = incumbent.improvements;
        clock.finish(&mut stats);
        RunOutcome {
            best_similarity: 1.0 - incumbent.best_violations as f64 / edges as f64,
            best: incumbent.best,
            best_violations: incumbent.best_violations,
            stats,
            trace: incumbent.trace,
            proven_optimal,
            top_solutions: incumbent.top.into_vec(),
        }
    }
}

/// An algorithm expressed as a *drive* function over a [`SearchDriver`]:
/// the driver owns the run-wide bookkeeping, the implementation encodes
/// only the search moves. Every implementor is an [`AnytimeSearch`] via
/// the blanket impl below.
pub(crate) trait DriveSearch {
    /// Display name (matches the paper's figures).
    const NAME: &'static str;
    /// Phase-timer span label of one run.
    const PHASE: &'static str;
    /// Whether the drive asks *find best value* questions, whose walks the
    /// instance's support bits can spare (they are built before the first
    /// step if so).
    const ASKS_BEST_VALUES: bool = false;

    /// Runs the search moves until the driver reports exhaustion (or the
    /// algorithm decides to stop early).
    fn drive(&self, instance: &Instance, driver: &mut SearchDriver, rng: &mut StdRng);
}

/// Runs a [`DriveSearch`] under `ctx`: phase span, the support bits (built
/// once per instance, under their own `support` span, before the driver
/// starts the clock and samples the instance's bytes — so neither the first
/// step nor the budget is charged with them, and every run of an instance
/// reports the same bytes), driver construction, drive, finish.
pub(crate) fn run_driven<T: DriveSearch + ?Sized>(
    algo: &T,
    instance: &Instance,
    ctx: &SearchContext,
    rng: &mut StdRng,
) -> RunOutcome {
    let _phase = ctx.obs().timer.span(T::PHASE);
    if T::ASKS_BEST_VALUES {
        let _support = ctx.obs().timer.span("support");
        instance.support();
    }
    let mut driver = SearchDriver::new(instance, ctx).with_access_profile(instance);
    algo.drive(instance, &mut driver, rng);
    driver.finish(instance, rng)
}

impl<T: DriveSearch> AnytimeSearch for T {
    fn name(&self) -> &'static str {
        T::NAME
    }

    fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        run_driven(self, instance, ctx, rng)
    }
}
