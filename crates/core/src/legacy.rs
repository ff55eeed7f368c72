//! Names that only the repository benchmark's probes
//! (`benchmark/src/probes.rs`, `benchmark/src/pipeline.rs`,
//! `benchmark/src/workloads.rs`) still call, each a shim over the path the
//! engine runs.
//!
//! The engine has one spatial index, the R*-tree. [`BackendKind`] keeps
//! the uniform grid's name, and [`Instance::with_backend`] returns the
//! instance unchanged, so the benchmark's grid rows and grid ops run on
//! the tree. [`Instance::grid`] is a stand-in tree over the same objects
//! (`mwsj_rtree::UniformGrid`), built on first call and reporting no
//! bytes, so `rtree.grid.find_best` times the tree's best-first kernel.
//! Nothing has a thread count: a *find best value* call runs on the
//! calling thread and a portfolio's restarts run one after another, so
//! `rtree.grid.pjm_speedup_t2` and `core.portfolio.speedup_t2` read ≈ 1 by
//! construction.
//!
//! The engine has one exact join, [`WindowReduction`], which opens with
//! the pairwise join that was PJM's first step. [`Pjm`] and
//! [`SynchronousTraversal`] are that join under their old names, so the
//! benchmark's `st`, `pjm` and `pjm-grid` ops, its draw check and its grid
//! PJM probe all time WR.

use crate::budget::SearchBudget;
use crate::instance::Instance;
use crate::portfolio::{AnytimeSearch, Portfolio, PortfolioOutcome};
use crate::wr::{ExactJoinOutcome, WindowReduction};
use mwsj_query::VarId;
use mwsj_rtree::UniformGrid;
use std::sync::OnceLock;

/// Where a dataset keeps its grid stand-in once [`Instance::grid`] built it.
pub(crate) type GridSlot = OnceLock<UniformGrid<u32>>;

/// The retired choice of spatial index; both name the R*-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The R*-tree.
    #[default]
    RTree,
    /// The retired uniform grid: the R*-tree too.
    Grid,
}

impl Instance {
    /// Returns the instance unchanged: every backend is the R*-tree.
    pub fn with_backend(self, _backend: BackendKind) -> Self {
        self
    }

    /// The stand-in grid of variable `v`: an R*-tree over its objects,
    /// built on first call, shared by `Arc`-aliased self-join variables,
    /// and left out of every byte count.
    pub fn grid(&self, v: VarId) -> &UniformGrid<u32> {
        self.legacy_grid(v).get_or_init(|| {
            let items: Vec<_> = (self.rects(v).iter().copied())
                .zip(self.objects(v).iter().copied())
                .collect();
            UniformGrid::build(&items)
        })
    }

    /// Returns the instance unchanged; the thread count is ignored.
    pub fn with_grid_threads(self, _threads: usize) -> Self {
        self
    }

    /// Always 1.
    pub fn grid_threads(&self) -> usize {
        1
    }
}

/// A restart count; the thread count is ignored.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioConfig {
    restarts: usize,
}

impl PortfolioConfig {
    /// `restarts` restarts; `threads` is ignored.
    pub fn new(restarts: usize, _threads: usize) -> Self {
        PortfolioConfig { restarts }
    }
}

/// [`Portfolio`] under its old name and constructor.
#[derive(Debug, Clone)]
pub struct ParallelPortfolio<A>(Portfolio<A>);

impl<A: AnytimeSearch> ParallelPortfolio<A> {
    /// `Portfolio::new(algo, config.restarts)`.
    pub fn new(algo: A, config: PortfolioConfig) -> Self {
        ParallelPortfolio(Portfolio::new(algo, config.restarts))
    }

    /// [`Portfolio::run`].
    pub fn run(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        master_seed: u64,
    ) -> PortfolioOutcome {
        self.0.run(instance, budget, master_seed)
    }
}

/// [`WindowReduction`] under the pairwise join method's name.
#[derive(Debug, Clone, Default)]
pub struct Pjm;

impl Pjm {
    /// [`WindowReduction::run`].
    pub fn run(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
    ) -> ExactJoinOutcome {
        WindowReduction::new().run(instance, budget, limit)
    }
}

/// [`WindowReduction`] under the synchronous traversal's name.
#[derive(Debug, Clone, Default)]
pub struct SynchronousTraversal;

impl SynchronousTraversal {
    /// Creates the join.
    pub fn new() -> Self {
        SynchronousTraversal
    }

    /// [`WindowReduction::run`].
    pub fn run(
        &self,
        instance: &Instance,
        budget: &SearchBudget,
        limit: usize,
    ) -> ExactJoinOutcome {
        WindowReduction::new().run(instance, budget, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::{BackendKind, ParallelPortfolio, Pjm, PortfolioConfig, SynchronousTraversal};
    use crate::{
        find_best_value, BestValue, Gils, GilsConfig, Ibb, IbbConfig, Ils, Instance, Portfolio,
        RunOutcome, Sea, SeaConfig, SearchBudget, WindowReduction,
    };
    use mwsj_datagen::Dataset;
    use mwsj_obs::{MemoryFootprint, ResourceReport};
    use mwsj_query::{PenaltyTable, QueryGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(best: Option<BestValue>) -> Option<(usize, u32, u64)> {
        best.map(|b| (b.object, b.satisfied, b.effective.to_bits()))
    }

    fn drawn(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..4)
            .map(|_| Dataset::uniform(600, 0.5, &mut rng))
            .collect();
        Instance::new(QueryGraph::clique(4), datasets).unwrap()
    }

    /// Everything a run's caller can read but the wall clock.
    fn summary(o: &RunOutcome) -> impl PartialEq + std::fmt::Debug {
        let trace: Vec<_> = o.trace.iter().map(|p| (p.step, p.similarity)).collect();
        let s = &o.stats;
        let cache = (
            s.cache.hits(),
            s.cache.misses(),
            s.cache.skipped(),
            s.cache.bytes,
        );
        let found = (o.best.clone(), o.best_violations, o.top_solutions.clone());
        (found, trace, s.counters(), s.access_profile.clone(), cache)
    }

    fn report(inst: &Instance) -> (Vec<(String, u64)>, u64) {
        let mut report = ResourceReport::new();
        inst.fill_resource_report(&mut report);
        (report.components().to_vec(), report.total_bytes())
    }

    /// Selecting the grid changes nothing: ILS, GILS, SEA, IBB and WR run
    /// on it as on the plain instance — outcome, counters, trajectory —,
    /// and its resource report is the plain one. The grid stand-in counts
    /// every object once and reports no bytes.
    #[test]
    fn the_grid_backend_is_the_plain_instance() {
        let budget = SearchBudget::iterations(400);
        let runs = |inst: &Instance| {
            let rng = || StdRng::seed_from_u64(5);
            let sea = Sea::new(SeaConfig::default_for(inst));
            [
                Ils::default().run(inst, &budget, &mut rng()),
                Gils::new(GilsConfig::default()).run(inst, &budget, &mut rng()),
                sea.run(inst, &SearchBudget::iterations(20), &mut rng()),
                Ibb::new(IbbConfig::new()).run(inst, &budget),
            ]
            .map(|o| summary(&o))
        };
        let (plain, grid) = (drawn(27), drawn(27).with_backend(BackendKind::Grid));
        assert_eq!(runs(&grid), runs(&plain));
        let wr = |inst: &Instance| {
            let o = WindowReduction::new().run(inst, &SearchBudget::iterations(5_000), 50);
            (o.solutions, o.stats.counters(), o.complete)
        };
        assert_eq!(wr(&grid), wr(&plain));
        assert_eq!(grid.memory_bytes(), plain.memory_bytes());
        for v in 0..grid.n_vars() {
            let stats = grid.grid(v).stats();
            assert_eq!(
                [stats.entries, stats.unique],
                [grid.cardinality(v) as u64; 2]
            );
            assert_eq!(grid.grid(v).memory_bytes(), 0);
        }
        let (components, total) = report(&grid);
        assert!(components
            .iter()
            .all(|(name, _)| !name.starts_with("grid.")));
        assert_eq!((components, total), report(&plain));
    }

    #[test]
    fn grid_threads_change_nothing() {
        let inst = drawn(27);
        let threaded = inst.clone().with_grid_threads(4);
        assert_eq!((inst.grid_threads(), threaded.grid_threads()), (1, 1));
        let mut rng = StdRng::seed_from_u64(28);
        let mut table = PenaltyTable::new();
        table.penalize(0, 3);
        for _ in 0..20 {
            let sol = inst.random_solution(&mut rng);
            for var in 0..inst.n_vars() {
                for penalties in [None, Some((&table, 0.25))] {
                    let (mut acc, mut threaded_acc) = (0, 0);
                    let one = find_best_value(&inst, &sol, var, penalties, &mut acc);
                    let four = find_best_value(&threaded, &sol, var, penalties, &mut threaded_acc);
                    assert_eq!((bits(four), threaded_acc), (bits(one), acc), "var {var}");
                }
            }
        }
    }
    #[test]
    fn the_parallel_portfolio_is_the_sequential_one() {
        let mut rng = StdRng::seed_from_u64(29);
        let datasets: Vec<Dataset> = (0..3)
            .map(|_| Dataset::uniform(300, 0.05, &mut rng))
            .collect();
        let inst = Instance::new(QueryGraph::chain(3), datasets).unwrap();
        let budget = SearchBudget::iterations(600);
        let shim = ParallelPortfolio::new(Ils::default(), PortfolioConfig::new(3, 2))
            .run(&inst, &budget, 5)
            .merged;
        let engine = Portfolio::new(Ils::default(), 3)
            .run(&inst, &budget, 5)
            .merged;
        assert_eq!(
            (shim.best, shim.top_solutions, shim.stats.steps),
            (engine.best, engine.top_solutions, engine.stats.steps)
        );
    }

    #[test]
    fn the_old_exact_joins_are_window_reduction() {
        let mut rng = StdRng::seed_from_u64(41);
        let datasets: Vec<Dataset> = (0..3)
            .map(|_| Dataset::uniform(300, 0.3, &mut rng))
            .collect();
        let inst = Instance::new(QueryGraph::clique(3), datasets).unwrap();
        let budget = SearchBudget::iterations(u64::MAX);
        let wr = WindowReduction::new().run(&inst, &budget, 50);
        assert!(!wr.solutions.is_empty());
        for shim in [
            Pjm.run(&inst, &budget, 50),
            SynchronousTraversal::new().run(&inst, &budget, 50),
        ] {
            assert_eq!(shim.solutions, wr.solutions);
            assert_eq!(shim.stats.counters(), wr.stats.counters());
        }
    }
}
