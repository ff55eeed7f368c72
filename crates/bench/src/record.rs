//! Streaming metrics recorder for the experiment harness.
//!
//! `all_experiments` records every figure's individual algorithm runs to
//! `results/<figure>.metrics.jsonl` in the same JSONL run-event schema
//! the CLI's `--metrics-out` produces (see `DESIGN.md` "Observability"),
//! so figure runs can be post-processed with `mwsj report` or any JSONL
//! tool. Tests pass [`Recorder::disabled`], which writes nothing.

use crate::Algo;
use mwsj_core::{
    Instance, JsonlSink, ObsHandle, RunOutcome, RunStats, SearchBudget, SearchContext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;

/// Records experiment runs as JSONL run events plus one aggregate
/// metrics/phases snapshot per experiment.
#[derive(Debug)]
pub struct Recorder {
    obs: ObsHandle,
    /// The counters of every outcome framed so far, summed.
    total: RefCell<RunStats>,
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
                total: RefCell::default(),
                path: Some(path),
            },
            Err(e) => {
                eprintln!("warning: cannot record {name}: {e}");
                Recorder::disabled()
            }
        }
    }

    /// A recorder that collects and writes nothing (what tests pass).
    pub fn disabled() -> Recorder {
        Recorder {
            obs: ObsHandle::disabled(),
            total: RefCell::default(),
            path: None,
        }
    }

    /// Frames one run: `run_start`, then `search` under a context of
    /// `budget` reporting through this recorder, then `run_end` for the
    /// outcome it returns, whose counters join the experiment's sum.
    pub fn framed(
        &self,
        algo: &str,
        instance: &Instance,
        budget: &SearchBudget,
        seed: u64,
        search: impl FnOnce(&SearchContext) -> RunOutcome,
    ) -> RunOutcome {
        self.obs
            .emit(mwsj_core::run_start(algo, instance, budget, 1, seed));
        let outcome = search(&SearchContext::local(*budget).with_obs(self.obs.clone()));
        self.obs.emit(outcome.run_end());
        self.total.borrow_mut().absorb(&outcome.stats);
        outcome
    }

    /// Runs `algo` from `seed`, framed.
    pub fn run(
        &self,
        algo: Algo,
        instance: &Instance,
        budget: &SearchBudget,
        seed: u64,
    ) -> RunOutcome {
        self.framed(algo.name(), instance, budget, seed, |ctx| {
            algo.search(instance, ctx, &mut StdRng::seed_from_u64(seed))
        })
    }

    /// Writes the experiment-wide counter sum and phase aggregates into the
    /// file and returns its path (when recording was active).
    pub fn finish(self) -> Option<PathBuf> {
        self.obs.emit(mwsj_core::RunEvent::Metrics {
            snapshot: self.total.into_inner().metrics(),
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
        assert!(!rec.obs.is_enabled());
        assert!(rec.finish().is_none());
    }
}
