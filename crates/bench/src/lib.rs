//! Benchmark harness regenerating every figure of the paper's evaluation
//! (§6), plus parameter-tuning and ablation studies.
//!
//! Each experiment lives in [`experiments`] and is exposed both as a
//! library function (used by the `all_experiments` orchestrator and the
//! integration tests) and as a standalone binary (`fig10a`, `fig10b`,
//! `fig10c`, `fig11`, `sea_tuning`, `ablations`).
//!
//! All binaries accept `--scale smoke|default|paper`:
//!
//! * `smoke` — seconds-long sanity run (CI);
//! * `default` — minutes-long run at N = 10,000 objects per dataset that
//!   reproduces the *shape* of every figure;
//! * `paper` — the full EDBT 2002 setting (N = 100,000, `10·n`-second
//!   budgets, 100 repetitions): hours of wall-clock time.
//!
//! Results are printed as the paper's tables and appended as CSV under
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod io;
mod record;
mod scale;
pub mod suite;

pub use io::{write_csv, Table};
pub use record::Recorder;
pub use scale::Scale;
pub use suite::{pinned_suite, pinned_suite_large, run_suite, BenchTier, SuiteAlgo, SuiteCase};

use mwsj_core::Instance;
use mwsj_core::{
    Gils, GilsConfig, Ils, IlsConfig, NaiveGa, NaiveGaConfig, NaiveLocalSearch, RunOutcome, Sea,
    SeaConfig, SearchBudget, SearchContext, SimulatedAnnealing,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The anytime heuristics the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Indexed local search (§3).
    Ils,
    /// Guided indexed local search (§4).
    Gils,
    /// Spatial evolutionary algorithm (§5).
    Sea,
    /// Local search with random re-instantiation (ablation baseline).
    NaiveLs,
    /// GA with random crossover/mutation (ablation baseline).
    NaiveGa,
    /// Simulated annealing (ablation baseline).
    Sa,
}

impl Algo {
    /// The three algorithms of the paper's Fig. 10.
    pub const PAPER: [Algo; 3] = [Algo::Ils, Algo::Gils, Algo::Sea];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Ils => "ILS",
            Algo::Gils => "GILS",
            Algo::Sea => "SEA",
            Algo::NaiveLs => "naive-LS",
            Algo::NaiveGa => "naive-GA",
            Algo::Sa => "SA",
        }
    }

    /// Runs the algorithm on `instance` with a per-run RNG seed.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget, seed: u64) -> RunOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        self.search(instance, &SearchContext::local(*budget), &mut rng)
    }

    /// Runs the algorithm under an explicit [`SearchContext`] (budget plus
    /// observability handle).
    pub fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        match self {
            Algo::Ils => Ils::new(IlsConfig::default()).search(instance, ctx, rng),
            Algo::Gils => Gils::new(GilsConfig::default()).search(instance, ctx, rng),
            Algo::Sea => Sea::new(SeaConfig::default_for(instance)).search(instance, ctx, rng),
            Algo::NaiveLs => NaiveLocalSearch::default().search(instance, ctx, rng),
            Algo::NaiveGa => NaiveGa::new(NaiveGaConfig::default()).search(instance, ctx, rng),
            Algo::Sa => SimulatedAnnealing::default().search(instance, ctx, rng),
        }
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_none_and_some() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn algo_names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            Algo::Ils,
            Algo::Gils,
            Algo::Sea,
            Algo::NaiveLs,
            Algo::NaiveGa,
            Algo::Sa,
        ]
        .iter()
        .map(|a| a.name())
        .collect();
        assert_eq!(names.len(), 6);
    }
}
