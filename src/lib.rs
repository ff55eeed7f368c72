//! # mwsj — multiway spatial joins with approximate processing
//!
//! Facade crate for the reproduction of *Papadias & Arkoumanis, "Approximate
//! Processing of Multiway Spatial Joins in Very Large Databases" (EDBT 2002)*.
//!
//! It re-exports the public API of every workspace crate so downstream users
//! need a single dependency:
//!
//! * [`geom`] — rectangles, points, spatial predicates,
//! * [`rtree`] — the R*-tree index,
//! * [`query`] — query graphs (constraint networks) and solutions,
//! * [`datagen`] — synthetic datasets and the analytic hard-region models,
//! * [`core`] — the join algorithms: ILS, GILS, SEA, IBB and the exact
//!   join WR, which opens with a pairwise join.
//!
//! ## Quickstart
//!
//! ```
//! use mwsj::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Three synthetic datasets in the hard region of a 3-variable chain query.
//! let mut rng = StdRng::seed_from_u64(7);
//! let n_vars = 3;
//! let cardinality = 2_000;
//! let density = hard_region_density(QueryShape::Chain, n_vars, cardinality, 1.0);
//! let datasets: Vec<_> = (0..n_vars)
//!     .map(|_| Dataset::uniform(cardinality, density, &mut rng))
//!     .collect();
//!
//! // "city crossed by river which crosses an industrial area"
//! let graph = QueryGraph::chain(n_vars);
//! let instance = Instance::new(graph, datasets).unwrap();
//!
//! // Retrieve the best solution found within 2000 local-search iterations.
//! let outcome = Ils::new(IlsConfig::default())
//!     .run(&instance, &SearchBudget::iterations(2_000), &mut rng);
//! assert!(outcome.best_similarity > 0.0);
//! ```

pub use mwsj_core as core;
pub use mwsj_datagen as datagen;
pub use mwsj_geom as geom;
pub use mwsj_query as query;
pub use mwsj_rtree as rtree;

/// Convenient glob-import surface: `use mwsj::prelude::*;`.
pub mod prelude {
    pub use mwsj_core::{
        derive_seed, find_best_value, AnytimeSearch, BestValue, ExactJoinOutcome, Gils, GilsConfig,
        Ibb, IbbConfig, Ils, IlsConfig, Instance, InstanceError, NaiveGa, NaiveGaConfig,
        NaiveLocalSearch, PairwiseJoin, Portfolio, PortfolioOutcome, RestartOutcome, RunOutcome,
        RunStats, Sea, SeaConfig, SearchBudget, SearchContext, TelemetryConfig, TopSolutions,
        TracePoint, TwoStep, TwoStepConfig, TwoStepOutcome, WindowReduction,
    };
    pub use mwsj_datagen::{
        hard_region_density, Dataset, DatasetSpec, Distribution, QueryShape, Workload, WorkloadSpec,
    };
    pub use mwsj_geom::{Interval, Point, Predicate, Rect};
    pub use mwsj_query::{QueryGraph, Solution, VarId};
    pub use mwsj_rtree::{RTree, RTreeParams};
}
