//! Streaming metrics recorder for the experiment harness.
//!
//! Every experiment `main` records its individual algorithm runs to
//! `results/<experiment>.metrics.jsonl` in the same JSONL run-event schema
//! the CLI's `--metrics-out` produces (see `DESIGN.md` "Observability"),
//! so figure runs can be post-processed with `mwsj report` or any JSONL
//! tool. The library entry points (`run`/`run_shape`) used by tests take a
//! disabled recorder and write nothing.

use crate::Algo;
use mwsj_core::{Instance, JsonlSink, ObsHandle, RunOutcome, SearchBudget, SearchContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Records experiment runs as JSONL run events plus one aggregate
/// metrics/phases snapshot per experiment.
#[derive(Debug)]
pub struct Recorder {
    obs: ObsHandle,
    path: Option<PathBuf>,
}

impl Recorder {
    /// A recorder streaming to `results/<experiment>.metrics.jsonl`. Falls
    /// back to a disabled recorder (with a warning) when the file cannot
    /// be created — observability must never fail an experiment.
    pub fn create(experiment: &str) -> Recorder {
        let name = format!("{experiment}.metrics.jsonl");
        match crate::io::results_file(&name).and_then(|path| {
            let sink = JsonlSink::create(&path)?;
            Ok((path, sink))
        }) {
            Ok((path, sink)) => Recorder {
                obs: ObsHandle::enabled().with_sink(Arc::new(sink)),
                path: Some(path),
            },
            Err(e) => {
                eprintln!("warning: cannot record {name}: {e}");
                Recorder::disabled()
            }
        }
    }

    /// A recorder that collects and writes nothing (used by the library
    /// entry points exercised in tests).
    pub fn disabled() -> Recorder {
        Recorder {
            obs: ObsHandle::disabled(),
            path: None,
        }
    }

    /// The observability handle to thread into algorithm runs.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Emits a `run_start` event for one upcoming algorithm run.
    pub fn start(&self, algo: &str, instance: &Instance, budget: &SearchBudget, seed: u64) {
        self.obs
            .emit(mwsj_core::run_start(algo, instance, budget, 1, 1, seed));
    }

    /// Emits the matching `run_end` event.
    pub fn end(&self, outcome: &RunOutcome) {
        self.obs.emit(outcome.run_end());
    }

    /// Runs `algo` with run-start/end events and full instrumentation.
    pub fn run(
        &self,
        algo: Algo,
        instance: &Instance,
        budget: &SearchBudget,
        seed: u64,
    ) -> RunOutcome {
        self.start(algo.name(), instance, budget, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        // Nested: the recorder owns the `run_start`/`run_end` pair, so the
        // driver must not emit its own `run_end`.
        let ctx = SearchContext::local(*budget)
            .with_obs(self.obs.clone())
            .nested();
        let outcome = algo.search(instance, &ctx, &mut rng);
        self.end(&outcome);
        outcome
    }

    /// Freezes the experiment-wide metrics/phase aggregates into the file
    /// and returns its path (when recording was active).
    pub fn finish(self) -> Option<PathBuf> {
        self.obs.emit(mwsj_core::RunEvent::Metrics {
            snapshot: self.obs.metrics.snapshot(),
        });
        self.obs.emit(mwsj_core::RunEvent::Phases {
            phases: self.obs.timer.snapshot(),
        });
        self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.obs().is_enabled());
        assert!(rec.finish().is_none());
    }
}
