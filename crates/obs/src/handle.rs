//! [`ObsHandle`]: the bundle of registry, timer and event sink that the
//! search layer threads through its contexts.

use crate::events::{EventSink, RunEvent};
use crate::registry::MetricsRegistry;
use crate::timer::PhaseTimer;
use std::sync::Arc;

/// One observability attachment point: a metrics registry, a phase timer,
/// an optional event sink and (inside a portfolio) the restart index.
///
/// The default handle is fully disabled, so instrumented code can hold one
/// unconditionally. Cloning shares the registry/timer storage and the
/// sink.
#[derive(Clone, Default)]
pub struct ObsHandle {
    /// The metrics registry (possibly disabled).
    pub metrics: MetricsRegistry,
    /// The phase timer (possibly disabled).
    pub timer: PhaseTimer,
    sink: Option<Arc<dyn EventSink>>,
    restart: Option<u64>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("metrics", &self.metrics.is_enabled())
            .field("timer", &self.timer.is_enabled())
            .field("sink", &self.sink.is_some())
            .field("restart", &self.restart)
            .finish()
    }
}

impl ObsHandle {
    /// A fully disabled handle (the default).
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// A handle with a fresh enabled registry and timer and no sink.
    pub fn enabled() -> Self {
        ObsHandle {
            metrics: MetricsRegistry::new(),
            timer: PhaseTimer::new(),
            sink: None,
            restart: None,
        }
    }

    /// A handle with only the phase timer enabled — for callers that want
    /// a phase profile without paying for metrics or an event stream
    /// (e.g. `mwsj solve --profile-out` alone).
    pub fn timer_only() -> Self {
        ObsHandle {
            metrics: MetricsRegistry::disabled(),
            timer: PhaseTimer::new(),
            sink: None,
            restart: None,
        }
    }

    /// Attaches an event sink.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Derives the handle for portfolio restart `index`: a **fresh**
    /// registry and timer (mirroring this handle's enabledness, so each
    /// restart's metrics can be reduced deterministically in seed order)
    /// sharing the same event sink.
    pub fn for_restart(&self, index: u64) -> Self {
        ObsHandle {
            metrics: if self.metrics.is_enabled() {
                MetricsRegistry::new()
            } else {
                MetricsRegistry::disabled()
            },
            timer: if self.timer.is_enabled() {
                PhaseTimer::new()
            } else {
                PhaseTimer::disabled()
            },
            sink: self.sink.clone(),
            restart: Some(index),
        }
    }

    /// The restart index this handle is scoped to, if any.
    pub fn restart(&self) -> Option<u64> {
        self.restart
    }

    /// Emits an event to the sink, if one is attached.
    #[inline]
    pub fn emit(&self, event: RunEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// `true` when an event sink is attached. Instrumented code can use
    /// this to skip computing event fields (timestamps in particular) when
    /// nobody is listening.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// `true` when any of the three components is active.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.timer.is_enabled() || self.sink.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::VecSink;

    #[test]
    fn default_handle_is_disabled() {
        let obs = ObsHandle::default();
        assert!(!obs.is_enabled());
        assert!(obs.restart().is_none());
        // Emitting without a sink is a no-op, not a panic.
        obs.emit(RunEvent::TracePoint {
            step: 0,
            similarity: 0.0,
            elapsed_secs: 0.0,
        });
    }

    #[test]
    fn for_restart_isolates_metrics_but_shares_sink() {
        let sink = Arc::new(VecSink::new());
        let obs = ObsHandle::enabled().with_sink(sink.clone());
        let child = obs.for_restart(3);
        assert_eq!(child.restart(), Some(3));
        child.metrics.absorb(&crate::MetricsSnapshot {
            counters: vec![("c".into(), 1)],
            ..Default::default()
        });
        assert_eq!(child.metrics.snapshot().counter("c"), Some(1));
        assert_eq!(obs.metrics.snapshot().counter("c"), None);
        child.emit(RunEvent::RestartStart {
            restart: 3,
            seed: 9,
        });
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn for_restart_of_disabled_handle_stays_disabled() {
        let child = ObsHandle::disabled().for_restart(0);
        assert!(!child.metrics.is_enabled());
        assert!(!child.timer.is_enabled());
        assert_eq!(child.restart(), Some(0));
    }
}
