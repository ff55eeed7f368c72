//! Search budgets: wall-clock and/or step limits, and the context a run is
//! given.
//!
//! The paper frames approximate processing as retrieval of the best
//! solution *within a time threshold* (its experiments use `10·n` seconds).
//! Wall-clock budgets are inherently non-deterministic, so every algorithm
//! here also accepts a *step* budget — one step is one `find best value`
//! call (ILS/GILS), one generation (SEA) or one expanded node (IBB) — which
//! makes tests and CI runs reproducible.
//!
//! A [`crate::Portfolio`] of `K` restarts divides one budget into `K`
//! shares ([`SearchBudget::share`]) and runs them one after another.

use mwsj_obs::{ObsHandle, RunEvent};
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

    /// Restart `i`'s share of this budget when `k` restarts divide it.
    ///
    /// The step limit is divided evenly — the first `max_steps % k`
    /// restarts receive one extra step — so the `k` shares together hold
    /// exactly `max_steps` and each depends only on `(max_steps, k, i)`.
    /// The time limit is divided into `k` equal shares, each measured from
    /// the moment its restart starts.
    ///
    /// # Panics
    /// Panics unless `i < k`.
    pub fn share(&self, i: usize, k: usize) -> SearchBudget {
        assert!(i < k, "restart {i} is not one of {k}");
        let (i, k64) = (i as u64, k as u64);
        SearchBudget {
            time_limit: self
                .time_limit
                .map(|limit| limit / u32::try_from(k).unwrap_or(u32::MAX)),
            max_steps: self
                .max_steps
                .map(|total| total / k64 + u64::from(i < total % k64)),
        }
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
    /// When a stall is declared, stop the run through the budget check
    /// (stop reason `stall_aborted`) instead of only reporting it.
    pub stall_abort: bool,
}

impl TelemetryConfig {
    /// `true` when any stall window is configured.
    pub fn watches_stalls(&self) -> bool {
        self.stall_window_steps.is_some() || self.stall_window_secs.is_some()
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
/// ([`crate::TwoStep`], [`crate::Portfolio`]) copies both into the
/// contexts of its stages and restarts. A run emits what happens inside it
/// (improvements, progress, stalls, stop reasons, restart lifecycle); the
/// caller frames it with [`crate::run_start`] and [`crate::emit_run_end`].
#[derive(Debug, Clone)]
pub struct SearchContext {
    budget: SearchBudget,
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
            obs: ObsHandle::disabled(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The context of one component of this run (a pipeline stage, a
    /// portfolio restart) under its own `budget`: same handle, same
    /// telemetry.
    pub(crate) fn stage(&self, budget: SearchBudget) -> Self {
        SearchContext::local(budget)
            .with_obs(self.obs.clone())
            .with_telemetry(self.telemetry)
    }

    /// Attaches an observability handle: the run attributes steps to the
    /// handle's phase timer and emits improvement / stop-reason events to
    /// its sink.
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
    obs: ObsHandle,
    /// Set by the stall watchdog (`--stall-abort`): the run stops through
    /// the same exhaustion check as the budget, with its own distinct
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
        BudgetClock {
            start,
            deadline: ctx.budget.time_limit.and_then(|d| start.checked_add(d)),
            max_steps: ctx.budget.max_steps,
            steps: 0,
            obs: ctx.obs.clone(),
            stall_tripped: false,
        }
    }

    /// Trips the stall watchdog: from now on [`BudgetClock::exhausted`]
    /// returns `true` and the stop reason is `stall_aborted` (which takes
    /// precedence over the budget — the watchdog stopped the run before
    /// it ran out).
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
    /// time and the step count into `stats` and emits the stop reason.
    pub(crate) fn finish(&self, stats: &mut crate::RunStats) {
        stats.elapsed = self.elapsed();
        stats.steps = self.steps;
        self.emit_stop_reason();
    }

    /// Emits the stop-reason event for a finished run: `budget_exhausted`
    /// when either limit was hit. Runs that end for algorithmic reasons
    /// (exact solution found, space exhausted) emit none. Called once at
    /// finish time so the hot `exhausted()` check stays branch-free.
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
        if steps_out || time_out {
            self.obs.emit(RunEvent::BudgetExhausted {
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

    /// Returns `true` once either limit is reached (or the stall watchdog
    /// tripped).
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
    fn shares_divide_steps_exactly() {
        let steps = |total: u64, k: usize| -> Vec<u64> {
            (0..k)
                .map(|i| {
                    SearchBudget::iterations(total)
                        .share(i, k)
                        .max_steps
                        .unwrap()
                })
                .collect()
        };
        assert_eq!(steps(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(steps(3, 4), vec![1, 1, 1, 0]);

        let timed = SearchBudget::seconds(2.0);
        for i in 0..4 {
            assert_eq!(
                timed.share(i, 4),
                SearchBudget::time(Duration::from_millis(500))
            );
        }
        // A limit no `Instant` can reach stays one in every share.
        let endless = SearchBudget::seconds(f64::INFINITY).share(2, 3);
        assert!(!BudgetClock::start(&endless).exhausted());
    }

    #[test]
    fn more_restarts_than_steps_yield_zero_step_shares() {
        // K > total_steps: the surplus restarts get zero-step budgets,
        // which are still valid (`validate` passes — `Some(0)` is a set
        // limit) and exhaust immediately.
        for i in 0..5 {
            let share = SearchBudget::iterations(3).share(i, 5);
            assert_eq!(share.max_steps, Some(u64::from(i < 3)));
            share.validate();
            assert_eq!(
                BudgetClock::start(&share).exhausted(),
                i >= 3,
                "zero-step shares are born exhausted, the rest are not"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not one of")]
    fn a_share_outside_the_restarts_panics() {
        let _ = SearchBudget::iterations(1).share(0, 0);
    }
}
