//! Names that only the repository benchmark's probes
//! (`benchmark/src/probes.rs`, `benchmark/src/pipeline.rs`) still call,
//! each a shim over the path the engine runs.
//!
//! An instance has no grid thread count: a grid *find best value* call
//! runs on the calling thread, so the probe's `rtree.grid.pjm_speedup_t2`
//! reads ≈ 1 by construction and `rtree.grid.find_best` times the one
//! kernel. A portfolio has no thread count either: its restarts run one
//! after another, so `core.portfolio.speedup_t2` reads ≈ 1 too.
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

impl Instance {
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
    use super::{ParallelPortfolio, Pjm, PortfolioConfig, SynchronousTraversal};
    use crate::WindowReduction;
    use crate::{find_best_value, BackendKind, BestValue, Ils, Instance, Portfolio, SearchBudget};
    use mwsj_datagen::Dataset;
    use mwsj_query::{PenaltyTable, QueryGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(best: Option<BestValue>) -> Option<(usize, u32, u64)> {
        best.map(|b| (b.object, b.satisfied, b.effective.to_bits()))
    }

    #[test]
    fn grid_threads_change_nothing() {
        let mut rng = StdRng::seed_from_u64(27);
        let datasets: Vec<Dataset> = (0..4)
            .map(|_| Dataset::uniform(600, 0.5, &mut rng))
            .collect();
        let grid = Instance::new(QueryGraph::clique(4), datasets)
            .unwrap()
            .with_backend(BackendKind::Grid);
        let threaded = grid.clone().with_grid_threads(4);
        assert_eq!((grid.grid_threads(), threaded.grid_threads()), (1, 1));
        let mut table = PenaltyTable::new();
        table.penalize(0, 3);
        for _ in 0..20 {
            let sol = grid.random_solution(&mut rng);
            for var in 0..grid.n_vars() {
                for penalties in [None, Some((&table, 0.25))] {
                    let (mut acc, mut threaded_acc) = (0, 0);
                    let one = find_best_value(&grid, &sol, var, penalties, &mut acc);
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
