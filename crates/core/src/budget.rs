//! Search budgets: wall-clock and/or step limits, plus the cross-thread
//! state that lets a portfolio of restarts share one budget.
//!
//! The paper frames approximate processing as retrieval of the best
//! solution *within a time threshold* (its experiments use `10·n` seconds).
//! Wall-clock budgets are inherently non-deterministic, so every algorithm
//! here also accepts a *step* budget — one step is one `find best value`
//! call (ILS/GILS), one generation (SEA) or one expanded node (IBB) — which
//! makes tests and CI runs reproducible.
//!
//! For parallel portfolios ([`crate::ParallelPortfolio`]) a single budget
//! is shared by `K` concurrent restarts: the wall-clock limit becomes one
//! **absolute deadline** (every restart stops at the same instant, instead
//! of each measuring its own start), the step limit is **split
//! deterministically** across restarts, and the restarts share the
//! best-known violation count.

use mwsj_obs::{ObsHandle, RunEvent};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A budget limiting a search run. Both limits may be set; the run stops at
/// whichever is hit first. At least one limit must be set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum wall-clock time.
    pub time_limit: Option<Duration>,
    /// Maximum number of algorithm steps.
    pub max_steps: Option<u64>,
}

impl SearchBudget {
    /// Budget limited by wall-clock time only (the paper's setting).
    pub fn time(limit: Duration) -> Self {
        SearchBudget {
            time_limit: Some(limit),
            max_steps: None,
        }
    }

    /// Budget limited by wall-clock seconds. Never panics: a value no
    /// [`Duration`] can hold **saturates** — negative or NaN to a zero
    /// budget (the run stops at its first budget check), `+∞` or anything
    /// above `Duration::MAX` to `Duration::MAX` (the time limit never
    /// fires). Front ends that want to reject such input do so before
    /// calling this (the CLI's `--seconds` does).
    pub fn seconds(secs: f64) -> Self {
        Self::time(Duration::try_from_secs_f64(secs).unwrap_or(if secs > 0.0 {
            Duration::MAX
        } else {
            Duration::ZERO
        }))
    }

    /// Budget limited by a deterministic step count only.
    pub fn iterations(steps: u64) -> Self {
        SearchBudget {
            time_limit: None,
            max_steps: Some(steps),
        }
    }

    /// Budget limited by both time and steps.
    pub fn time_and_iterations(limit: Duration, steps: u64) -> Self {
        SearchBudget {
            time_limit: Some(limit),
            max_steps: Some(steps),
        }
    }

    /// Splits this budget across `k` parallel restarts.
    ///
    /// The step limit is divided evenly — the first `max_steps % k`
    /// restarts receive one extra step — so the restarts together consume
    /// exactly `max_steps` and the split depends only on `(max_steps, k)`.
    /// The time limit is copied verbatim into every share: a portfolio
    /// converts it into one absolute deadline common to all restarts.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn split(&self, k: usize) -> Vec<SearchBudget> {
        assert!(k > 0, "cannot split a budget across zero restarts");
        let k64 = k as u64;
        (0..k64)
            .map(|i| SearchBudget {
                time_limit: self.time_limit,
                max_steps: self.max_steps.map(|total| {
                    let base = total / k64;
                    let extra = u64::from(i < total % k64);
                    base + extra
                }),
            })
            .collect()
    }

    /// Panics if neither limit is set (a run would never terminate).
    pub(crate) fn validate(&self) {
        assert!(
            self.time_limit.is_some() || self.max_steps.is_some(),
            "a search budget must set a time limit, a step limit, or both"
        );
    }
}

/// Live-telemetry configuration threaded through a [`SearchContext`]:
/// progress-heartbeat cadence and the stall watchdog.
///
/// The default is fully off, so existing call sites pay nothing. Progress
/// emission is **step-indexed** (`steps % progress_every == 0`), which
/// keeps every counter-valued field of the emitted `progress` events
/// deterministic under step budgets; wall-clock fields are measured and
/// exempt, like bench-snapshot wall columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Emit a `progress` event every this many steps (requires a sink).
    pub progress_every: Option<u64>,
    /// Declare a stall after this many steps without incumbent improvement.
    pub stall_window_steps: Option<u64>,
    /// Declare a stall after this many wall-clock seconds without
    /// incumbent improvement (non-deterministic; opt-in).
    pub stall_window_secs: Option<f64>,
    /// When a stall is declared, stop the run through the cutoff machinery
    /// (stop reason `stall_aborted`) instead of only reporting it.
    pub stall_abort: bool,
}

impl TelemetryConfig {
    /// `true` when any stall window is configured.
    pub fn watches_stalls(&self) -> bool {
        self.stall_window_steps.is_some() || self.stall_window_secs.is_some()
    }
}

/// Coordination state shared by every restart of a parallel portfolio:
/// the best-known violation count (the portfolio's *bound*, mirroring how
/// the two-step scheme of §6 feeds a heuristic bound into IBB).
///
/// Cloning shares the underlying atomic.
#[derive(Debug, Clone)]
pub(crate) struct SharedSearchState {
    /// Best-known violations across all restarts; `u32::MAX` = none yet.
    bound: Arc<AtomicU32>,
}

impl SharedSearchState {
    /// Fresh state with no published bound.
    pub(crate) fn new() -> Self {
        SharedSearchState {
            bound: Arc::new(AtomicU32::new(u32::MAX)),
        }
    }

    /// The best-known violation count published by any restart, if any.
    pub(crate) fn bound_violations(&self) -> Option<usize> {
        match self.bound.load(Ordering::Relaxed) {
            u32::MAX => None,
            v => Some(v as usize),
        }
    }

    /// Lowers the shared bound to `violations` if it improves on it.
    pub(crate) fn publish(&self, violations: usize) {
        let v = u32::try_from(violations).unwrap_or(u32::MAX - 1);
        self.bound.fetch_min(v, Ordering::Relaxed);
    }

    /// `true` once a zero-violation (similarity 1) solution was published:
    /// nothing can improve on it, so cooperating restarts may stop.
    pub(crate) fn optimum_reached(&self) -> bool {
        self.bound.load(Ordering::Relaxed) == 0
    }
}

/// What one run is given: the [`SearchBudget`] that stops it, the
/// [`ObsHandle`] it reports through and the [`TelemetryConfig`] of its
/// heartbeats and stall watchdog. Built with [`SearchContext::local`],
/// [`SearchContext::with_obs`] and [`SearchContext::with_telemetry`];
/// `run(instance, &budget, …)` of every algorithm and composite is
/// `search(instance, &SearchContext::local(budget), …)`.
///
/// The handle and the telemetry travel **only** here: a composite
/// ([`crate::TwoStep`], [`crate::ParallelPortfolio`]) copies both into the
/// contexts of its stages and restarts. A run emits what happens inside it
/// (improvements, progress, stalls, stop reasons, restart lifecycle); the
/// caller frames it with [`crate::run_start`] and [`crate::emit_run_end`].
#[derive(Debug, Clone)]
pub struct SearchContext {
    budget: SearchBudget,
    /// Absolute deadline overriding the budget's relative time limit.
    deadline: Option<Instant>,
    shared: Option<SharedSearchState>,
    cutoff: bool,
    obs: ObsHandle,
    telemetry: TelemetryConfig,
}

impl SearchContext {
    /// A run of `budget` reporting nowhere: the deadline is measured from
    /// the moment the search starts.
    pub fn local(budget: SearchBudget) -> Self {
        budget.validate();
        SearchContext {
            budget,
            deadline: None,
            shared: None,
            cutoff: false,
            obs: ObsHandle::disabled(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The context of one component of this run (a pipeline stage, a
    /// portfolio restart) under its own `budget`: same handle, same
    /// telemetry, no coordination state.
    pub(crate) fn stage(&self, budget: SearchBudget) -> Self {
        SearchContext::local(budget)
            .with_obs(self.obs.clone())
            .with_telemetry(self.telemetry)
    }

    /// Replaces the budget's relative time limit with an absolute deadline
    /// (shared by every restart of a portfolio).
    pub(crate) fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches portfolio coordination state. With `cutoff` set, the run
    /// additionally stops as soon as the shared bound reaches zero
    /// violations (a similarity-1 certificate another restart published —
    /// the only *sound* cross-restart cutoff for heuristics, since nothing
    /// can beat an exact solution). Cutoff trades bit-reproducibility of
    /// secondary results for wall-clock, so portfolios arm it only for
    /// time-limited budgets.
    pub(crate) fn with_shared(mut self, shared: SharedSearchState, cutoff: bool) -> Self {
        self.shared = Some(shared);
        self.cutoff = cutoff;
        self
    }

    /// Attaches an observability handle: the run flushes its counters into
    /// the handle's metrics registry, attributes steps to the handle's
    /// phase timer, and emits improvement / stop-reason events to its sink.
    /// Defaults to a fully disabled handle.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Attaches a live-telemetry configuration (progress heartbeats and
    /// the stall watchdog). Defaults to fully off.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached live-telemetry configuration.
    pub fn telemetry(&self) -> &TelemetryConfig {
        &self.telemetry
    }

    /// The per-run budget.
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }
}

/// Running clock for one search invocation.
#[derive(Debug)]
pub(crate) struct BudgetClock {
    start: Instant,
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    steps: u64,
    shared: Option<SharedSearchState>,
    cutoff: bool,
    obs: ObsHandle,
    /// Set by the stall watchdog (`--stall-abort`): the run stops through
    /// the same exhaustion check as budget/cutoff, with its own distinct
    /// stop reason.
    stall_tripped: bool,
}

impl BudgetClock {
    #[cfg(test)]
    pub(crate) fn start(budget: &SearchBudget) -> Self {
        Self::from_context(&SearchContext::local(*budget))
    }

    pub(crate) fn from_context(ctx: &SearchContext) -> Self {
        let start = Instant::now();
        // The budget was validated by `SearchContext::local`. A limit too
        // long for `Instant` to represent never fires.
        let deadline = ctx
            .deadline
            .or_else(|| ctx.budget.time_limit.and_then(|d| start.checked_add(d)));
        BudgetClock {
            start,
            deadline,
            max_steps: ctx.budget.max_steps,
            steps: 0,
            shared: ctx.shared.clone(),
            cutoff: ctx.cutoff,
            obs: ctx.obs.clone(),
            stall_tripped: false,
        }
    }

    /// Trips the stall watchdog: from now on [`BudgetClock::exhausted`]
    /// returns `true` and the stop reason is `stall_aborted` (which takes
    /// precedence over budget/cutoff reasons — the watchdog stopped the
    /// run before either fired).
    pub(crate) fn trip_stall(&mut self) {
        self.stall_tripped = true;
    }

    /// Records one step (locally and against the innermost open phase
    /// span).
    #[inline]
    pub(crate) fn step(&mut self) {
        self.steps += 1;
        self.obs.timer.add_steps(1);
    }

    /// The observability handle this run reports through.
    #[inline]
    pub(crate) fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Ends the run, the one way every algorithm does: freezes the wall
    /// time and the step count into `stats`, hands the block to the
    /// handle's metrics registry and emits the stop reason.
    pub(crate) fn finish(&self, stats: &mut crate::RunStats) {
        stats.elapsed = self.elapsed();
        stats.steps = self.steps;
        crate::observe::flush_stats(&self.obs, stats);
        self.emit_stop_reason();
    }

    /// Emits the stop-reason event for a finished run: `budget_exhausted`
    /// when either limit was hit, `cutoff_fired` when a cooperating restart
    /// stopped on another restart's similarity-1 certificate. Runs that end
    /// for algorithmic reasons (exact solution found, space exhausted) emit
    /// neither. Called once at finish time so the hot `exhausted()` check
    /// stays branch-free.
    fn emit_stop_reason(&self) {
        if !self.obs.has_sink() {
            return;
        }
        if self.stall_tripped {
            self.obs.emit(RunEvent::StallAborted {
                restart: self.obs.restart(),
                steps: self.steps,
                elapsed_secs: self.elapsed().as_secs_f64(),
            });
            return;
        }
        let steps_out = self.max_steps.is_some_and(|max| self.steps >= max);
        let time_out = self.deadline.is_some_and(|d| Instant::now() >= d);
        let cut = self.cutoff
            && self
                .shared
                .as_ref()
                .is_some_and(|shared| shared.optimum_reached());
        if steps_out || time_out {
            self.obs.emit(RunEvent::BudgetExhausted {
                restart: self.obs.restart(),
                steps: self.steps,
                elapsed_secs: self.elapsed().as_secs_f64(),
            });
        } else if cut {
            self.obs.emit(RunEvent::CutoffFired {
                restart: self.obs.restart(),
                steps: self.steps,
                elapsed_secs: self.elapsed().as_secs_f64(),
            });
        }
    }

    /// Steps recorded so far by this run.
    #[inline]
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Time since the run started.
    #[inline]
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Publishes an improved violation count to the portfolio bound
    /// (no-op for standalone runs).
    #[inline]
    pub(crate) fn publish_bound(&self, violations: usize) {
        if let Some(shared) = &self.shared {
            shared.publish(violations);
        }
    }

    /// Fraction of the budget consumed, in `[0, 1]`: the maximum of the
    /// step fraction and the time fraction (whichever limit is closer).
    /// Used by SEA's budget-aware crossover-point annealing.
    pub(crate) fn fraction_consumed(&self) -> f64 {
        let mut fraction: f64 = 0.0;
        if let Some(max) = self.max_steps {
            if max > 0 {
                fraction = fraction.max(self.steps as f64 / max as f64);
            }
        }
        if let Some(deadline) = self.deadline {
            let total = deadline.saturating_duration_since(self.start);
            if !total.is_zero() {
                fraction = fraction.max(self.start.elapsed().as_secs_f64() / total.as_secs_f64());
            }
        }
        fraction.min(1.0)
    }

    /// Returns `true` once either limit is reached — or, for cooperating
    /// portfolio restarts with cutoff enabled, once any restart has
    /// published a similarity-1 solution.
    #[inline]
    pub(crate) fn exhausted(&self) -> bool {
        if self.stall_tripped {
            return true;
        }
        if let Some(max) = self.max_steps {
            if self.steps >= max {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        if self.cutoff {
            if let Some(shared) = &self.shared {
                if shared.optimum_reached() {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_exhausts_deterministically() {
        let mut clock = BudgetClock::start(&SearchBudget::iterations(3));
        assert!(!clock.exhausted());
        clock.step();
        clock.step();
        assert!(!clock.exhausted());
        clock.step();
        assert!(clock.exhausted());
        assert_eq!(clock.steps(), 3);
    }

    #[test]
    fn time_budget_exhausts() {
        let clock = BudgetClock::start(&SearchBudget::time(Duration::from_millis(1)));
        assert!(!clock.exhausted() || clock.elapsed() >= Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.exhausted());
    }

    #[test]
    fn combined_budget_stops_at_first_limit() {
        let budget = SearchBudget::time_and_iterations(Duration::from_secs(3600), 1);
        let mut clock = BudgetClock::start(&budget);
        clock.step();
        assert!(clock.exhausted());
    }

    #[test]
    #[should_panic(expected = "must set a time limit")]
    fn empty_budget_is_rejected() {
        let budget = SearchBudget {
            time_limit: None,
            max_steps: None,
        };
        let _ = BudgetClock::start(&budget);
    }

    #[test]
    fn fraction_consumed_tracks_steps() {
        let mut clock = BudgetClock::start(&SearchBudget::iterations(4));
        assert_eq!(clock.fraction_consumed(), 0.0);
        clock.step();
        assert_eq!(clock.fraction_consumed(), 0.25);
        clock.step();
        clock.step();
        clock.step();
        assert_eq!(clock.fraction_consumed(), 1.0);
    }

    #[test]
    fn seconds_constructor() {
        let b = SearchBudget::seconds(1.5);
        assert_eq!(b.time_limit, Some(Duration::from_millis(1500)));
        // Hostile floats saturate instead of panicking, and a limit no
        // `Instant` can reach is a deadline that never fires.
        for (secs, limit) in [
            (f64::NAN, Duration::ZERO),
            (-3.0, Duration::ZERO),
            (f64::INFINITY, Duration::MAX),
            (1e20, Duration::MAX),
        ] {
            assert_eq!(
                SearchBudget::seconds(secs).time_limit,
                Some(limit),
                "{secs}"
            );
        }
        assert!(!BudgetClock::start(&SearchBudget::seconds(f64::INFINITY)).exhausted());
        assert!(BudgetClock::start(&SearchBudget::seconds(f64::NAN)).exhausted());
    }

    #[test]
    fn split_divides_steps_exactly() {
        let shares = SearchBudget::iterations(10).split(4);
        let steps: Vec<u64> = shares.iter().map(|b| b.max_steps.unwrap()).collect();
        assert_eq!(steps, vec![3, 3, 2, 2]);
        assert_eq!(steps.iter().sum::<u64>(), 10);

        let shares = SearchBudget::iterations(3).split(4);
        let steps: Vec<u64> = shares.iter().map(|b| b.max_steps.unwrap()).collect();
        assert_eq!(steps, vec![1, 1, 1, 0]);

        let timed = SearchBudget::seconds(2.0).split(3);
        assert!(timed
            .iter()
            .all(|b| b.time_limit == Some(Duration::from_secs(2))));
        assert!(timed.iter().all(|b| b.max_steps.is_none()));
    }

    #[test]
    fn split_with_more_restarts_than_steps_yields_zero_step_shares() {
        // K > total_steps: the surplus restarts get zero-step budgets,
        // which are still valid (`validate` passes — `Some(0)` is a set
        // limit) and exhaust immediately.
        let shares = SearchBudget::iterations(3).split(5);
        let steps: Vec<u64> = shares.iter().map(|b| b.max_steps.unwrap()).collect();
        assert_eq!(steps, vec![1, 1, 1, 0, 0]);
        for share in &shares {
            share.validate();
            let clock = BudgetClock::start(share);
            assert_eq!(
                clock.exhausted(),
                share.max_steps == Some(0),
                "zero-step shares are born exhausted, the rest are not"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero restarts")]
    fn split_zero_panics() {
        let _ = SearchBudget::iterations(1).split(0);
    }

    #[test]
    fn shared_state_keeps_the_lowest_published_bound() {
        let shared = SharedSearchState::new();
        assert_eq!(shared.bound_violations(), None);
        assert!(!shared.optimum_reached());

        let ctx =
            SearchContext::local(SearchBudget::iterations(5)).with_shared(shared.clone(), false);
        let a = BudgetClock::from_context(&ctx);
        let b = BudgetClock::from_context(&ctx);

        a.publish_bound(7);
        b.publish_bound(9); // worse: ignored
        assert_eq!(shared.bound_violations(), Some(7));
        b.publish_bound(0);
        assert!(shared.optimum_reached());
    }

    #[test]
    fn cutoff_stops_cooperating_clocks() {
        let shared = SharedSearchState::new();
        let ctx = SearchContext::local(SearchBudget::iterations(1_000_000))
            .with_shared(shared.clone(), true);
        let clock = BudgetClock::from_context(&ctx);
        assert!(!clock.exhausted());
        shared.publish(0);
        assert!(clock.exhausted(), "similarity-1 certificate stops the run");

        // Without cutoff the same certificate does not stop the run.
        let ctx =
            SearchContext::local(SearchBudget::iterations(1_000_000)).with_shared(shared, false);
        let clock = BudgetClock::from_context(&ctx);
        assert!(!clock.exhausted());
    }

    #[test]
    fn absolute_deadline_is_respected() {
        let ctx = SearchContext::local(SearchBudget::seconds(3600.0))
            .with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let clock = BudgetClock::from_context(&ctx);
        assert!(clock.exhausted(), "deadline already passed");
    }
}
