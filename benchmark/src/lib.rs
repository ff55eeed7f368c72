//! The repository's benchmark: a full-budget pipeline benchmark of the mwsj
//! engine. See `README.md` next to this crate and `BENCHMARK.json` at the
//! repository root.
//!
//! * [`workloads`] — the five pinned workloads;
//! * [`pipeline`] — seeded inputs → CSV → setup → the pinned op list, with
//!   every output checked by the harness;
//! * [`probes`] — per-layer probes of the traced run;
//! * [`trace`] — harness-side spans;
//! * [`run`] — one run (`--workload … --trace 0|1`) and its report;
//! * [`suite`] — all workloads, `--self-check`, and the printed documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod pipeline;
pub mod probes;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
