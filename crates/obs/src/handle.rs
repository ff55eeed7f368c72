//! [`ObsHandle`]: the bundle of phase timer and event sink that the
//! search layer threads through its contexts.

use crate::events::{EventSink, RunEvent};
use crate::timer::PhaseTimer;
use std::sync::Arc;

/// One observability attachment point: a phase timer, an optional event
/// sink and (inside a portfolio) the restart index.
///
/// The default handle is fully disabled, so instrumented code can hold one
/// unconditionally. Cloning shares the timer storage and the sink.
#[derive(Clone, Default)]
pub struct ObsHandle {
    /// The phase timer (possibly disabled).
    pub timer: PhaseTimer,
    sink: Option<Arc<dyn EventSink>>,
    restart: Option<u64>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
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

    /// A handle with a fresh enabled timer and no sink.
    pub fn enabled() -> Self {
        ObsHandle {
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

    /// Derives the handle for portfolio restart `index`: this handle's
    /// timer and sink, with its events tagged `restart: index`.
    pub fn for_restart(&self, index: u64) -> Self {
        ObsHandle {
            restart: Some(index),
            ..self.clone()
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

    /// `true` when the timer or a sink is active.
    pub fn is_enabled(&self) -> bool {
        self.timer.is_enabled() || self.sink.is_some()
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
    fn for_restart_tags_the_index_and_shares_everything_else() {
        let sink = Arc::new(VecSink::new());
        let obs = ObsHandle::enabled().with_sink(sink.clone());
        let child = obs.for_restart(3);
        assert_eq!(child.restart(), Some(3));
        drop(child.timer.span("restart[3]"));
        assert_eq!(obs.timer.snapshot()[0].path, "restart[3]");
        child.emit(RunEvent::RestartStart {
            restart: 3,
            seed: 9,
        });
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn for_restart_of_disabled_handle_stays_disabled() {
        let child = ObsHandle::disabled().for_restart(0);
        assert!(!child.timer.is_enabled());
        assert_eq!(child.restart(), Some(0));
    }
}
