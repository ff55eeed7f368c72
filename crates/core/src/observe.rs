//! Glue between the search layer and `mwsj-obs`.
//!
//! The hot loops keep their plain `u64` counters in [`RunStats`] — an
//! enabled-or-not check per `find best value` call would be pure overhead —
//! and hand them to the handle's registry **once per run**, as one
//! [`RunStats::metrics`] snapshot, when the run finishes. Event emission (incumbent improvements, stop reasons) happens
//! at the same already-cold points, so a disabled [`ObsHandle`] costs one
//! branch per run, not per step.

use crate::budget::{BudgetClock, SearchBudget};
use crate::instance::Instance;
use crate::result::{RunOutcome, RunStats};
use mwsj_obs::{ObsHandle, ResourceReport, RunEvent};

/// Canonical metric names every search algorithm reports under. The
/// `search.*` counters are the rows of [`RunStats::counters`] under that
/// prefix.
pub mod metric {
    /// Counter: algorithm steps consumed (budget units).
    pub const STEPS: &str = "search.steps";
    /// Counter: ILS restarts / SEA generations.
    pub const RESTARTS: &str = "search.restarts";
    /// Counter: local maxima reached.
    pub const LOCAL_MAXIMA: &str = "search.local_maxima";
    /// Counter: R*-tree nodes visited by index-driven traversals.
    pub const NODE_ACCESSES: &str = "search.node_accesses";
    /// Counter: incumbent improvements.
    pub const IMPROVEMENTS: &str = "search.improvements";
    /// Histogram: steps per run (one record per finished run).
    pub const STEPS_PER_RUN: &str = "search.steps_per_run";
    /// Counter: window-cache queries answered without a traversal.
    pub const CACHE_HITS: &str = "cache.hits";
    /// Counter: window-cache queries that ran the index traversal.
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Counter: cached results invalidated by a neighbour reassignment.
    pub const CACHE_INVALIDATIONS_REASSIGN: &str = "cache.invalidations.reassign";
    /// Counter: cached results invalidated by a penalty-version bump.
    pub const CACHE_INVALIDATIONS_PENALTY: &str = "cache.invalidations.penalty";
    /// Counter: questions the support bits' bound answered before the
    /// window cache was consulted (ILS, SEA).
    pub const CACHE_SKIPPED: &str = "cache.skipped";
    /// Counter: index nodes the exact joins' arc-consistency pass read
    /// (once per instance; no run's `search.node_accesses` counts them).
    pub const CORE_NODE_ACCESSES: &str = "core.node_accesses";
    /// Counter: window-cache resident bytes at run end (sums across
    /// merged restarts — the aggregate cache working set).
    pub const CACHE_BYTES: &str = "cache.bytes";

    /// Per-variable counter name, e.g. `cache.var003.hits`. `kind` is one
    /// of `hits` / `misses` / `invalidations.reassign` /
    /// `invalidations.penalty` / `skipped`.
    pub fn cache_var(var: usize, kind: &str) -> String {
        format!("cache.var{var:03}.{kind}")
    }
}

/// Hands a finished run's counters to the handle's registry (no-op when
/// the registry is disabled).
pub(crate) fn flush_stats(obs: &ObsHandle, stats: &RunStats) {
    if obs.metrics.is_enabled() {
        obs.metrics.absorb(&stats.metrics());
    }
}

/// The `run_start` event of one run of `algo` on `instance` under `budget`
/// (`restarts` = 1 for anything but a portfolio).
pub fn run_start(
    algo: &str,
    instance: &Instance,
    budget: &SearchBudget,
    restarts: usize,
    seed: u64,
) -> RunEvent {
    RunEvent::RunStart {
        algo: algo.to_string(),
        n_vars: instance.n_vars() as u64,
        edges: instance.graph().edge_count() as u64,
        restarts: restarts as u64,
        seed,
        budget_steps: budget.max_steps,
        budget_secs: budget.time_limit.map(|d| d.as_secs_f64()),
    }
}

/// Emits an incumbent-improvement event (no-op without a sink).
pub(crate) fn emit_improvement(clock: &BudgetClock, violations: usize, edges: usize) {
    let obs = clock.obs();
    if !obs.has_sink() {
        return;
    }
    obs.emit(RunEvent::Improvement {
        restart: obs.restart(),
        step: clock.steps(),
        violations: violations as u64,
        similarity: 1.0 - violations as f64 / edges as f64,
        elapsed_secs: clock.elapsed().as_secs_f64(),
    });
}

/// Ends a run's event stream (no-op without a sink): the `explain_report`
/// estimate-vs-actual audit, the `resource_report` memory table — the
/// instance's index structures (unique datasets only: self-joins share
/// one), the window cache(s), the retained top solutions — and `run_end`,
/// in that order. With [`run_start`] this is the frame of a run, and the
/// caller's to emit: no algorithm or composite emits either. For a
/// composite, `outcome` is its merged one
/// ([`crate::TwoStepOutcome::combined`], [`crate::PortfolioOutcome::merged`]).
pub fn emit_run_end(obs: &ObsHandle, instance: &Instance, outcome: &RunOutcome) {
    if !obs.has_sink() {
        return;
    }
    let report = crate::explain::explain_report_for_run(instance, &outcome.stats);
    obs.emit(RunEvent::ExplainReport { report });

    let mut report = ResourceReport::new();
    instance.fill_resource_report(&mut report);
    if outcome.stats.cache.bytes > 0 {
        report.record("window_cache", outcome.stats.cache.bytes);
    }
    report.record(
        "top_solutions",
        crate::result::solutions_bytes(&outcome.top_solutions),
    );
    obs.emit(RunEvent::ResourceReport { report });

    obs.emit(outcome.run_end());
}
