//! Hierarchical phase timers: RAII wall-clock spans with per-phase call
//! counts and step attribution.
//!
//! A [`PhaseTimer`] aggregates time per *phase path* — nested span names
//! joined with `" > "`, e.g. `solve > restart[3] > find_best_value`. Spans
//! are opened with [`PhaseTimer::span`] and closed on drop (LIFO order).
//! [`PhaseTimer::add_steps`] attributes algorithm steps to the innermost
//! open span, so per-phase step throughput can be derived offline.
//!
//! Disabled timers (the default) never call [`Instant::now`]; every
//! operation is a single `Option` check.
//!
//! Wall-clock readings are inherently non-deterministic, so phase
//! snapshots are kept **out** of the deterministic metric reduction (see
//! [`crate::MetricsSnapshot`]); their `calls` and `steps` fields are
//! nevertheless exact counters.

use crate::record::record;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct PhaseAgg {
    calls: u64,
    steps: u64,
    wall: Duration,
}

#[derive(Debug, Default)]
struct TimerState {
    /// Full paths of the currently open spans, outermost first.
    stack: Vec<String>,
    phases: BTreeMap<String, PhaseAgg>,
}

/// A hierarchical phase timer. Cloning shares the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer {
    inner: Option<Arc<Mutex<TimerState>>>,
}

impl PhaseTimer {
    /// Creates an enabled timer.
    pub fn new() -> Self {
        PhaseTimer {
            inner: Some(Arc::new(Mutex::new(TimerState::default()))),
        }
    }

    /// Creates a disabled timer: spans and step attribution are no-ops.
    pub fn disabled() -> Self {
        PhaseTimer { inner: None }
    }

    /// `true` when timings are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name` nested under the currently open span (if
    /// any). The span closes when the returned guard drops; guards must be
    /// dropped in LIFO order.
    #[must_use = "the span is measured until the returned guard drops"]
    pub fn span(&self, name: &str) -> PhaseSpan {
        let Some(inner) = &self.inner else {
            return PhaseSpan { inner: None };
        };
        let mut state = inner.lock().expect("timer mutex");
        let path = match state.stack.last() {
            Some(parent) => format!("{parent} > {name}"),
            None => name.to_string(),
        };
        state.stack.push(path.clone());
        PhaseSpan {
            inner: Some(SpanInner {
                timer: Arc::clone(inner),
                path,
                start: Instant::now(),
            }),
        }
    }

    /// Attributes `n` algorithm steps to the innermost open span (or to
    /// the pseudo-phase `(no-phase)` when no span is open).
    ///
    /// The disabled fast path is one branch; the enabled body is outlined
    /// and `#[cold]` so callers' hot loops stay small.
    #[inline]
    pub fn add_steps(&self, n: u64) {
        if let Some(inner) = &self.inner {
            Self::add_steps_enabled(inner, n);
        }
    }

    #[cold]
    fn add_steps_enabled(inner: &Arc<Mutex<TimerState>>, n: u64) {
        let mut state = inner.lock().expect("timer mutex");
        let path = state
            .stack
            .last()
            .cloned()
            .unwrap_or_else(|| "(no-phase)".to_string());
        state.phases.entry(path).or_default().steps += n;
    }

    /// Freezes the per-phase aggregates, sorted by path. Open spans are
    /// not included until their guards drop.
    pub fn snapshot(&self) -> Vec<PhaseSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let state = inner.lock().expect("timer mutex");
        state
            .phases
            .iter()
            .map(|(path, agg)| PhaseSnapshot {
                path: path.clone(),
                calls: agg.calls,
                steps: agg.steps,
                wall: agg.wall,
            })
            .collect()
    }
}

#[derive(Debug)]
struct SpanInner {
    timer: Arc<Mutex<TimerState>>,
    path: String,
    start: Instant,
}

/// RAII guard for one open phase span (see [`PhaseTimer::span`]).
#[derive(Debug)]
pub struct PhaseSpan {
    inner: Option<SpanInner>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(span) = self.inner.take() {
            let elapsed = span.start.elapsed();
            let mut state = span.timer.lock().expect("timer mutex");
            debug_assert_eq!(
                state.stack.last(),
                Some(&span.path),
                "phase spans must close in LIFO order"
            );
            state.stack.pop();
            let agg = state.phases.entry(span.path).or_default();
            agg.calls += 1;
            agg.wall += elapsed;
        }
    }
}

record! {
    /// Frozen aggregate for one phase path.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhaseSnapshot {
        /// `" > "`-joined span names, outermost first.
        pub path: String,
        /// Number of times the span closed.
        pub calls: u64,
        /// Steps attributed while this span was innermost.
        pub steps: u64,
        /// Total wall-clock time spent inside the span.
        pub wall: Duration as "wall_secs" [measured],
    }
}

/// Merges several phase-snapshot lists (e.g. one per portfolio restart)
/// into one, summing `calls`, `steps` and `wall` per path; the result is
/// sorted by path.
pub fn merge_phase_snapshots<I>(lists: I) -> Vec<PhaseSnapshot>
where
    I: IntoIterator<Item = Vec<PhaseSnapshot>>,
{
    let mut merged: BTreeMap<String, PhaseSnapshot> = BTreeMap::new();
    for list in lists {
        for snap in list {
            merged
                .entry(snap.path.clone())
                .and_modify(|agg| {
                    agg.calls += snap.calls;
                    agg.steps += snap.steps;
                    agg.wall += snap.wall;
                })
                .or_insert(snap);
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_is_a_no_op() {
        let timer = PhaseTimer::disabled();
        assert!(!timer.is_enabled());
        let span = timer.span("solve");
        timer.add_steps(10);
        drop(span);
        assert!(timer.snapshot().is_empty());
    }

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let timer = PhaseTimer::new();
        {
            let _solve = timer.span("solve");
            {
                let _r = timer.span("restart[0]");
                timer.add_steps(3);
            }
            {
                let _r = timer.span("restart[1]");
                timer.add_steps(4);
            }
        }
        let snaps = timer.snapshot();
        let paths: Vec<&str> = snaps.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["solve", "solve > restart[0]", "solve > restart[1]"]
        );
        assert_eq!(snaps[1].calls, 1);
        assert_eq!(snaps[1].steps, 3);
        assert_eq!(snaps[2].steps, 4);
        assert_eq!(snaps[0].calls, 1);
        assert!(snaps[0].wall >= snaps[1].wall);
    }

    #[test]
    fn steps_without_open_span_go_to_no_phase() {
        let timer = PhaseTimer::new();
        timer.add_steps(7);
        let snaps = timer.snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].path, "(no-phase)");
        assert_eq!(snaps[0].steps, 7);
        assert_eq!(snaps[0].calls, 0);
    }

    #[test]
    fn repeated_spans_aggregate() {
        let timer = PhaseTimer::new();
        for _ in 0..5 {
            let _s = timer.span("fbv");
        }
        let snaps = timer.snapshot();
        assert_eq!(snaps[0].calls, 5);
    }

    #[test]
    fn merge_sums_per_path() {
        let make = |steps| {
            vec![PhaseSnapshot {
                path: "solve".into(),
                calls: 1,
                steps,
                wall: Duration::from_millis(steps),
            }]
        };
        let merged = merge_phase_snapshots([make(2), make(3)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].calls, 2);
        assert_eq!(merged[0].steps, 5);
        assert_eq!(merged[0].wall, Duration::from_millis(5));
    }
}
