//! Multiway spatial join algorithms — the core contribution of
//! *Papadias & Arkoumanis, "Approximate Processing of Multiway Spatial
//! Joins in Very Large Databases" (EDBT 2002)*.
//!
//! Given `n` R*-tree-indexed datasets and a query graph of binary spatial
//! predicates, these algorithms retrieve the best (exact or approximate)
//! solutions within a budget:
//!
//! | Algorithm | Paper | Kind |
//! |---|---|---|
//! | [`Ils`] — indexed local search | §3, Fig. 3 | anytime heuristic |
//! | [`Gils`] — guided indexed local search | §4, Fig. 7 | anytime heuristic |
//! | [`Sea`] — spatial evolutionary algorithm | §5, Fig. 9 | anytime heuristic |
//! | [`Ibb`] — indexed branch and bound | §6 | systematic, optimal |
//! | [`TwoStep`] — heuristic then `Ibb` with its bound | §6, Fig. 11 | systematic, optimal |
//! | [`WindowReduction`] | \[PMT99\] | exact baseline |
//! | [`SynchronousTraversal`] | \[PMT99\] | exact baseline |
//! | [`Pjm`] (pairwise join method) | \[MP99\] | exact baseline |
//! | [`NaiveLocalSearch`], [`NaiveGa`], [`SimulatedAnnealing`] | \[PMK+99\] | ablation baselines |
//!
//! The shared primitive is [`find_best_value`] (§3, Fig. 5): a
//! branch-and-bound *multi-window* query that retrieves, for one query
//! variable, the object intersecting the most windows — the current
//! assignments of the variable's query-graph neighbours.
//!
//! Every randomized algorithm takes a seeded [`rand::rngs::StdRng`] and a
//! [`SearchBudget`] (wall-clock and/or step limits), making runs
//! reproducible under iteration budgets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod driver;
pub mod explain;
mod find_best_value;
mod gils;
mod ibb;
mod ils;
mod index;
mod individual;
mod instance;
#[doc(hidden)]
pub mod legacy;
mod naive;
mod observe;
mod order;
mod pairwise;
mod pjm;
mod portfolio;
mod result;
mod sea;
mod st;
mod support;
mod two_step;
mod window_cache;
mod wr;

pub use budget::{SearchBudget, SearchContext, TelemetryConfig};
pub use explain::{build_explain_report, explain_report_for_run, observed_edge_selectivity};
pub use find_best_value::{find_best_value, BestValue};
pub use gils::{Gils, GilsConfig};
pub use ibb::{Ibb, IbbConfig};
pub use ils::{Ils, IlsConfig};
pub use instance::{BackendKind, Instance, InstanceError};
pub use naive::{NaiveGa, NaiveGaConfig, NaiveLocalSearch, SaConfig, SimulatedAnnealing};
pub use observe::{emit_run_end, metric, run_start};
pub use pairwise::PairwiseJoin;
pub use pjm::Pjm;
// The benchmark's names for `Portfolio`.
#[doc(hidden)]
pub use legacy::*;
pub use portfolio::{derive_seed, AnytimeSearch, Portfolio, PortfolioOutcome, RestartOutcome};
pub use result::{RunOutcome, RunStats, TopSolutions, TracePoint, DEFAULT_TOP_K};
pub use sea::{Sea, SeaConfig};
pub use st::SynchronousTraversal;
pub use two_step::{TwoStep, TwoStepConfig, TwoStepOutcome};
pub use window_cache::{CacheStats, VarCacheStats, WindowCache};
pub use wr::{ExactJoinOutcome, WindowReduction};

// Observability building blocks, re-exported so downstream crates can wire
// search runs to sinks without depending on `mwsj-obs` directly.
pub use mwsj_obs as obs;
pub use mwsj_obs::{
    EventSink, JsonlSink, MemoryFootprint, MetricsRegistry, MetricsSnapshot, ObsHandle,
    PhaseSnapshot, PhaseTimer, ResourceReport, RunEvent, VecSink,
};
