//! Names that only the repository benchmark's probes
//! (`benchmark/src/probes.rs`) still call, each a shim over the path the
//! engine runs.
//!
//! An instance has no grid thread count: a grid *find best value* call
//! runs on the calling thread, so the probe's `rtree.grid.pjm_speedup_t2`
//! reads ≈ 1 by construction and `rtree.grid.find_best` times the one
//! kernel.

use crate::instance::Instance;

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

#[cfg(test)]
mod tests {
    use crate::{find_best_value, BackendKind, BestValue, Instance};
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
}
