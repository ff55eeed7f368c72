//! Glue between the search layer and `mwsj-obs`.
//!
//! The hot loops keep their plain `u64` counters in [`RunStats`] — an
//! enabled-or-not check per `find best value` call would be pure overhead —
//! and flush them into the metrics registry **once per run** when the run
//! finishes. Event emission (incumbent improvements, stop reasons) happens
//! at the same already-cold points, so a disabled [`ObsHandle`] costs one
//! branch per run, not per step.

use crate::budget::BudgetClock;
use crate::instance::Instance;
use crate::result::{RunOutcome, RunStats};
use mwsj_obs::{ObsHandle, ResourceReport, RunEvent};

/// Canonical metric names every search algorithm reports under.
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
    /// Counter: window-cache resident bytes at run end (sums across
    /// merged restarts — the aggregate cache working set).
    pub const CACHE_BYTES: &str = "cache.bytes";

    /// Per-variable counter name, e.g. `cache.var003.hits`. `kind` is one
    /// of `hits` / `misses` / `invalidations.reassign` /
    /// `invalidations.penalty`.
    pub fn cache_var(var: usize, kind: &str) -> String {
        format!("cache.var{var:03}.{kind}")
    }
}

/// Flushes a finished run's counters into the registry (no-op when the
/// registry is disabled).
pub(crate) fn flush_stats(obs: &ObsHandle, stats: &RunStats) {
    if !obs.metrics.is_enabled() {
        return;
    }
    let m = &obs.metrics;
    m.counter(metric::STEPS).add(stats.steps);
    m.counter(metric::RESTARTS).add(stats.restarts);
    m.counter(metric::LOCAL_MAXIMA).add(stats.local_maxima);
    m.counter(metric::NODE_ACCESSES).add(stats.node_accesses);
    m.counter(metric::IMPROVEMENTS).add(stats.improvements);
    m.histogram(metric::STEPS_PER_RUN).record(stats.steps);
    let cache = &stats.cache;
    if !cache.per_var.is_empty() {
        m.counter(metric::CACHE_HITS).add(cache.hits());
        m.counter(metric::CACHE_MISSES).add(cache.misses());
        m.counter(metric::CACHE_INVALIDATIONS_REASSIGN)
            .add(cache.invalidations_reassign());
        m.counter(metric::CACHE_INVALIDATIONS_PENALTY)
            .add(cache.invalidations_penalty());
        m.counter(metric::CACHE_BYTES).add(cache.bytes);
        for (var, v) in cache.per_var.iter().enumerate() {
            m.counter(&metric::cache_var(var, "hits")).add(v.hits);
            m.counter(&metric::cache_var(var, "misses")).add(v.misses);
            m.counter(&metric::cache_var(var, "invalidations.reassign"))
                .add(v.invalidations_reassign);
            m.counter(&metric::cache_var(var, "invalidations.penalty"))
                .add(v.invalidations_penalty);
        }
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

/// Emits the `explain_report` estimate-vs-actual audit for a finished run
/// (no-op without a sink). Follows the `run_end` ownership rule: one
/// report per top-level run, emitted just before its `resource_report`.
pub(crate) fn emit_explain_report(obs: &ObsHandle, instance: &Instance, outcome: &RunOutcome) {
    if !obs.has_sink() {
        return;
    }
    let report = crate::explain::explain_report_for_run(instance, &outcome.stats);
    obs.emit(RunEvent::ExplainReport { report });
}

/// Emits the `resource_report` memory table for a finished run (no-op
/// without a sink). Follows the `run_end` ownership rule: one report per
/// top-level run, emitted just before its `run_end`. Components: the
/// instance's index structures (unique datasets only — self-joins share
/// one), the window cache(s) and the retained top solutions.
pub(crate) fn emit_resource_report(obs: &ObsHandle, instance: &Instance, outcome: &RunOutcome) {
    if !obs.has_sink() {
        return;
    }
    let mut report = ResourceReport::new();
    instance.fill_resource_report(&mut report);
    if outcome.stats.cache.bytes > 0 {
        report.record("window_cache", outcome.stats.cache.bytes);
    }
    report.record(
        "top_solutions",
        crate::result::solutions_bytes(&outcome.top_solutions),
    );
    // The observability layer accounts for itself: a retaining sink (the
    // flight recorder) reports its ring bytes here.
    obs.fill_sink_resources(&mut report);
    obs.emit(RunEvent::ResourceReport { report });
}

/// Emits the `run_end` summary event for a finished outcome (no-op without
/// a sink). Ownership rule: exactly **one** `run_end` per top-level run —
/// the search driver emits it for standalone runs, composites
/// ([`crate::TwoStep`], [`crate::ParallelPortfolio`]) emit one merged event
/// and mark their component runs nested instead.
pub(crate) fn emit_run_end(obs: &ObsHandle, outcome: &RunOutcome) {
    if !obs.has_sink() {
        return;
    }
    obs.emit(RunEvent::RunEnd {
        best_violations: outcome.best_violations as u64,
        best_similarity: outcome.best_similarity,
        steps: outcome.stats.steps,
        node_accesses: outcome.stats.node_accesses,
        local_maxima: outcome.stats.local_maxima,
        improvements: outcome.stats.improvements,
        restarts: outcome.stats.restarts,
        elapsed_secs: outcome.stats.elapsed.as_secs_f64(),
        proven_optimal: outcome.proven_optimal,
    });
}
