//! Structured run events and JSONL sinks.
//!
//! Every event serialises to one JSON object per line with a
//! discriminating `"event"` field. The `events!` declaration below is the
//! schema: the enum, its writer, its validating reader
//! ([`RunEvent::parse_line`]) and the table in `DESIGN.md`
//! ("Observability") are all derived from it (see [`crate::record`]).
//! Producers emit through the object-safe [`EventSink`] trait: a run
//! streams to a file ([`JsonlSink`]), a test captures in memory
//! ([`VecSink`]).

use crate::record::{events, record};
use crate::timer::PhaseSnapshot;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

record! {
    /// A run's work counters as the `metrics` event carries them:
    /// `(name, value)` pairs, ascending by name. The search layer's
    /// counter block builds it from a finished outcome and owns the names.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MetricsSnapshot {
        /// `(name, value)` pairs, ascending by name.
        pub counters: Vec<(String, u64)>,
    }
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }
}

events! {
    /// One structured run event.
    ///
    /// `restart` fields are `Some` when the event was produced inside a
    /// portfolio restart (carrying the restart's seed-order index) and `None`
    /// for standalone runs.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RunEvent {
        /// A run (one CLI `solve`/`join` invocation or one bench run) begins.
        RunStart = "run_start" {
            /// Algorithm name (e.g. `"ILS"`, `"SEA"`, `"WR"`).
            algo: String,
            /// Number of query variables.
            n_vars: u64,
            /// Number of join edges.
            edges: u64,
            /// Portfolio restarts requested (1 for single runs).
            restarts: u64,
            /// Master RNG seed.
            seed: u64,
            /// Step budget, when one was set.
            budget_steps: Option<u64> [opt],
            /// Time budget in seconds, when one was set.
            budget_secs: Option<f64> [opt],
        },
        /// A portfolio restart begins.
        RestartStart = "restart_start" {
            /// Seed-order index of the restart.
            restart: u64,
            /// Derived RNG seed of the restart.
            seed: u64,
        },
        /// The incumbent best solution improved.
        Improvement = "improvement" {
            /// Restart index, when inside a portfolio.
            restart: Option<u64> [opt],
            /// Steps consumed when the improvement happened.
            step: u64,
            /// Violations of the new incumbent.
            violations: u64,
            /// Similarity of the new incumbent.
            similarity: f64,
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
        },
        /// A portfolio restart finished.
        RestartEnd = "restart_end" {
            /// Seed-order index of the restart.
            restart: u64,
            /// Violations of the restart's best solution.
            best_violations: u64,
            /// Steps the restart consumed.
            steps: u64,
            /// Seconds the restart ran.
            elapsed_secs: f64 [measured],
        },
        /// The step or time budget ran out.
        BudgetExhausted = "budget_exhausted" {
            /// Restart index, when inside a portfolio.
            restart: Option<u64> [opt],
            /// Steps consumed at exhaustion.
            steps: u64,
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
        },
        /// One convergence-trace point (used by `--trace-out`).
        TracePoint = "trace_point" {
            /// Steps consumed at this point.
            step: u64,
            /// Best similarity at this point.
            similarity: f64,
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
        },
        /// Periodic live-telemetry heartbeat, emitted by the search driver
        /// every `progress_every` steps. The cadence is **step-indexed**, so
        /// every counter-valued field (step, best violations/similarity,
        /// node accesses, cache counters, resident bytes) is deterministic
        /// under a step budget; `steps_per_sec` and `elapsed_secs` are
        /// measured wall-clock and exempt, like bench-snapshot wall fields.
        Progress = "progress" {
            /// Restart index, when inside a portfolio.
            restart: Option<u64> [opt],
            /// Steps consumed at this heartbeat.
            step: u64,
            /// Measured step throughput since the run started.
            steps_per_sec: f64 [measured],
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
            /// Violations of the incumbent, once one exists.
            best_violations: Option<u64> [opt],
            /// Similarity of the incumbent, once one exists.
            best_similarity: Option<f64> [opt],
            /// R*-tree node accesses so far.
            node_accesses: u64,
            /// Window-cache hits at the last deterministic sample point.
            cache_hits: u64,
            /// Window-cache misses at the last deterministic sample point.
            cache_misses: u64,
            /// Resident bytes (instance index structures + window cache).
            resident_bytes: u64,
        },
        /// The stall watchdog observed no incumbent improvement for the
        /// configured step and/or wall window. Emitted once per stall episode
        /// (re-armed by the next improvement).
        StallDetected = "stall_detected" {
            /// Restart index, when inside a portfolio.
            restart: Option<u64> [opt],
            /// Steps consumed when the stall was detected.
            step: u64,
            /// Steps since the last incumbent improvement (or run start).
            steps_since_improvement: u64,
            /// Seconds since the last incumbent improvement (measured).
            secs_since_improvement: f64 [measured],
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
        },
        /// The stall watchdog aborted the run (`--stall-abort`): a distinct
        /// stop reason, stopping the run through the budget check.
        StallAborted = "stall_aborted" {
            /// Restart index, when inside a portfolio.
            restart: Option<u64> [opt],
            /// Steps consumed when the abort fired.
            steps: u64,
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
        },
        /// GILS reseeded from a fresh random solution after
        /// `stagnation_reseed` punishment rounds without improvement.
        StagnationReseed = "stagnation_reseed" {
            /// Restart index, when inside a portfolio.
            restart: Option<u64> [opt],
            /// Steps consumed when the reseed fired.
            step: u64,
            /// Punishment rounds without improvement that triggered it.
            rounds: u64,
            /// Seconds since the run started.
            elapsed_secs: f64 [measured],
        },
        /// The work counters of the run's outcome (for a composite, its
        /// merged outcome).
        Metrics = "metrics" {
            /// The snapshot.
            snapshot: MetricsSnapshot [flat],
        },
        /// Frozen phase-timer aggregates of the run.
        Phases = "phases" {
            /// Per-phase aggregates, sorted by path.
            phases: Vec<PhaseSnapshot>,
        },
        /// Estimated-vs-observed cost audit of the run (see
        /// [`crate::explain::ExplainReport`]). Emitted once per top-level run
        /// just before `resource_report`; `mwsj explain` emits the pre-run
        /// estimate-only form.
        ExplainReport = "explain_report" {
            /// The report.
            report: crate::explain::ExplainReport [flat],
        },
        /// Deterministic memory footprint of the run's resident structures
        /// (see [`crate::resource::MemoryFootprint`]).
        ResourceReport = "resource_report" {
            /// The component → bytes table.
            report: crate::resource::ResourceReport [flat],
        },
        /// The run finished.
        RunEnd = "run_end" {
            /// Violations of the best solution found.
            best_violations: u64,
            /// Similarity of the best solution found.
            best_similarity: f64,
            /// Total steps consumed.
            steps: u64,
            /// Total R*-tree node accesses.
            node_accesses: u64,
            /// Local maxima reached.
            local_maxima: u64,
            /// Incumbent improvements.
            improvements: u64,
            /// Restarts (portfolio restarts, or ILS internal restarts for a
            /// single run).
            restarts: u64,
            /// Total wall-clock seconds.
            elapsed_secs: f64 [measured],
            /// Whether the result was proven optimal.
            proven_optimal: bool,
        },
    }

}

/// Receives run events. One sink is shared (`Arc`) by every handle derived
/// from the one it was attached to, so `emit` takes `&self`.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &RunEvent);
}

/// Streams events to a writer as JSON Lines, flushing every line as it is
/// written: the file on disk always holds exactly the complete lines
/// emitted so far, so `mwsj watch` can tail any `--metrics-out` file live.
/// I/O errors are swallowed (observability must never fail the search).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates a sink writing to `writer`.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(writer),
        }
    }

    /// Creates (truncating) the file at `path` and streams events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(io::BufWriter::new(file))))
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &RunEvent) {
        let mut line = event.to_json();
        line.push('\n');
        // One write of the whole line, then a flush: a reader never sees a
        // line the writer has not finished.
        let mut out = self.out.lock().expect("sink mutex");
        let _ = out.write_all(line.as_bytes()).and_then(|()| out.flush());
    }
}

/// Captures events in memory (for tests and the bench harness).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<RunEvent>>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// A copy of the captured events, in emission order.
    pub fn events(&self) -> Vec<RunEvent> {
        self.events.lock().expect("sink mutex").clone()
    }

    /// Drains the captured events.
    pub fn take(&self) -> Vec<RunEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink mutex"))
    }
}

impl EventSink for VecSink {
    fn emit(&self, event: &RunEvent) {
        self.events.lock().expect("sink mutex").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn every_event_serialises_to_parseable_json() {
        let snapshot = MetricsSnapshot {
            counters: vec![("search.steps".into(), 3)],
        };
        let events = vec![
            RunEvent::RunStart {
                algo: "ILS".into(),
                n_vars: 5,
                edges: 4,
                restarts: 4,
                seed: 42,
                budget_steps: Some(1000),
                budget_secs: None,
            },
            RunEvent::RestartStart {
                restart: 0,
                seed: 7,
            },
            RunEvent::Improvement {
                restart: Some(0),
                step: 12,
                violations: 2,
                similarity: 0.5,
                elapsed_secs: 0.001,
            },
            RunEvent::RestartEnd {
                restart: 0,
                best_violations: 2,
                steps: 250,
                elapsed_secs: 0.1,
            },
            RunEvent::BudgetExhausted {
                restart: None,
                steps: 1000,
                elapsed_secs: 0.2,
            },
            RunEvent::TracePoint {
                step: 10,
                similarity: 0.75,
                elapsed_secs: 0.01,
            },
            RunEvent::Progress {
                restart: Some(1),
                step: 200,
                steps_per_sec: 15000.0,
                elapsed_secs: 0.013,
                best_violations: Some(1),
                best_similarity: Some(0.75),
                node_accesses: 512,
                cache_hits: 40,
                cache_misses: 12,
                resident_bytes: 65536,
            },
            RunEvent::Progress {
                restart: None,
                step: 50,
                steps_per_sec: 0.0,
                elapsed_secs: 0.0,
                best_violations: None,
                best_similarity: None,
                node_accesses: 0,
                cache_hits: 0,
                cache_misses: 0,
                resident_bytes: 1024,
            },
            RunEvent::StallDetected {
                restart: Some(0),
                step: 900,
                steps_since_improvement: 500,
                secs_since_improvement: 0.2,
                elapsed_secs: 0.3,
            },
            RunEvent::StallAborted {
                restart: None,
                steps: 950,
                elapsed_secs: 0.31,
            },
            RunEvent::StagnationReseed {
                restart: None,
                step: 430,
                rounds: 1000,
                elapsed_secs: 0.1,
            },
            RunEvent::Metrics { snapshot },
            RunEvent::Phases {
                phases: vec![PhaseSnapshot {
                    path: "solve > restart[0]".into(),
                    calls: 1,
                    steps: 5,
                    wall: Duration::from_millis(2),
                }],
            },
            RunEvent::ResourceReport {
                report: {
                    let mut r = crate::resource::ResourceReport::new();
                    r.record("rtree.var000", 1024);
                    r.record("window_cache", 96);
                    r
                },
            },
            RunEvent::RunEnd {
                best_violations: 0,
                best_similarity: 1.0,
                steps: 1000,
                node_accesses: 345,
                local_maxima: 3,
                improvements: 4,
                restarts: 4,
                elapsed_secs: 0.2,
                proven_optimal: false,
            },
        ];
        for event in &events {
            let line = event.to_json();
            let parsed = Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed.get("event").unwrap().as_str(), Some(event.kind()));
        }
    }

    /// `null` reads as NaN in a measured member (or an estimate), never in
    /// a similarity: the run_end line with a `null` wall time parses, the
    /// one with a `null` similarity is refused by name.
    #[test]
    fn a_null_wall_time_reads_and_a_null_similarity_is_refused() {
        let line = |similarity: &str, secs: &str| {
            format!(
                r#"{{"event":"run_end","best_violations":0,"best_similarity":{similarity},"steps":1,"node_accesses":1,"local_maxima":0,"improvements":0,"restarts":0,"elapsed_secs":{secs},"proven_optimal":false}}"#
            )
        };
        match RunEvent::parse_line(&line("1", "null")) {
            Ok(RunEvent::RunEnd { elapsed_secs, .. }) => assert!(elapsed_secs.is_nan()),
            other => panic!("{other:?}"),
        }
        let err = RunEvent::parse_line(&line("null", "0.5")).unwrap_err();
        assert!(
            err.to_string()
                .contains("best_similarity: expected finite number"),
            "{err}"
        );
    }

    #[test]
    fn metrics_event_embeds_snapshot_values() {
        let snapshot = MetricsSnapshot {
            counters: vec![("steps".into(), 17)],
        };
        let line = RunEvent::Metrics { snapshot }.to_json();
        assert_eq!(line, r#"{"event":"metrics","counters":{"steps":17}}"#);
    }

    #[test]
    fn every_emitted_line_is_on_disk_before_the_next_emit() {
        let dir = std::env::temp_dir().join("mwsj-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("live-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        let mut emitted = String::new();
        for step in 1..=3 {
            let event = RunEvent::TracePoint {
                step,
                similarity: 0.5,
                elapsed_secs: 0.0,
            };
            sink.emit(&event);
            emitted.push_str(&event.to_json());
            emitted.push('\n');
            // The sink is still live: nothing has been dropped or flushed
            // by the caller.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), emitted);
        }
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vec_sink_captures_in_order() {
        let sink = VecSink::new();
        sink.emit(&RunEvent::RestartStart {
            restart: 0,
            seed: 1,
        });
        sink.emit(&RunEvent::RestartStart {
            restart: 1,
            seed: 2,
        });
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(sink.events().is_empty());
        assert_eq!(events[0].kind(), "restart_start");
    }
}
