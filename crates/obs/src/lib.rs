//! Dependency-free observability layer for the multiway-spatial-join
//! workspace.
//!
//! The paper's whole evaluation (Figs. 10a–c, 11 of *Papadias &
//! Arkoumanis, EDBT 2002*) is instrumentation: similarity-over-time
//! convergence, node accesses and step counts. This crate centralises that
//! bookkeeping behind three cooperating pieces:
//!
//! * [`MetricsRegistry`] — an accumulator of per-run
//!   [`MetricsSnapshot`]s (named counters and log₂-bucketed histograms;
//!   the search layer's counter block owns the names). A registry handle
//!   is either *enabled* (one shared snapshot, touched once per run) or
//!   *disabled* (every operation is a single `Option` check), so
//!   instrumented code pays near-zero cost when observability is off.
//! * [`PhaseTimer`] — hierarchical wall-clock spans
//!   (`solve > restart[3] > find_best_value`) with per-phase call counts
//!   and step attribution.
//!   Disabled timers never call [`std::time::Instant::now`].
//! * [`RunEvent`] / [`EventSink`] — a structured run-event stream (run
//!   start/end, incumbent improvements, restart lifecycle, budget
//!   exhaustion, stalls) serialised as JSON Lines. Each kind is
//!   declared once ([`record`]); the writer, the validating reader
//!   [`RunEvent::parse_line`] (behind `mwsj report` and `mwsj watch`) and
//!   the `DESIGN.md` schema table derive from it.
//!
//! [`ObsHandle`] bundles the three for threading through search contexts.
//!
//! On top of the raw streams sit the performance-trajectory tools:
//! [`AnytimeCurve`] folds a run's trace of [`TracePoint`]s into the
//! paper's similarity-vs-steps convergence curves (with quality-AUC and
//! steps-to-τ summaries), [`BenchSnapshot`] is the schema-validated,
//! clock-free `BENCH_<label>.json` format produced by `mwsj bench
//! snapshot`, [`compare`](mod@compare) is the regression gate behind
//! `mwsj bench compare` (a diff of two snapshot documents), and
//! [`profile::to_folded`] exports phase timers as folded stacks.
//!
//! **Determinism contract.** Metric *values* flushed by the search layer
//! are pure counters of algorithmic work (steps, node accesses, …) and are
//! bit-identical run to run under a step budget; wall-clock lives only in
//! timers and events, which are exempt. Runs sharing a registry sum
//! ([`MetricsSnapshot::merge`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod curve;
pub mod events;
pub mod explain;
pub mod handle;
pub mod json;
pub mod profile;
pub mod record;
pub mod registry;
pub mod resource;
pub mod schema;
pub mod snapshot;
pub mod timer;

pub use compare::{compare, CompareReport};
pub use curve::{AnytimeCurve, TracePoint};
pub use events::{EventSink, JsonlSink, RunEvent, VecSink};
pub use explain::{EdgeExplain, ExplainReport, GridQuality, TreeQuality, VarExplain};
pub use handle::ObsHandle;
pub use json::{Json, JsonWriter};
pub use profile::to_folded;
pub use record::{Field, FieldDoc, FieldError, Record};
pub use registry::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use resource::{MemoryFootprint, ResourceReport};
pub use snapshot::{
    snapshot_sections, AlgoRecord, BenchSnapshot, CacheRecord, ExplainRecord, InstanceRecord,
    MemoryRecord, SnapshotError, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
pub use timer::{PhaseSnapshot, PhaseSpan, PhaseTimer};
