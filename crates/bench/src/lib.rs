//! Benchmark harness regenerating every figure of the paper's evaluation
//! (§6), plus parameter-tuning and ablation studies.
//!
//! Each experiment lives in [`experiments`]; [`experiments::FIGURES`] lists
//! them by id, and the one binary walks that list:
//!
//! ```text
//! all_experiments [--fig <id>] [--scale smoke|default|paper]
//! ```
//!
//! * `smoke` — sub-second sanity run (tests, CI);
//! * `default` — minutes-long run at N = 10,000 objects per dataset and
//!   1 % of the paper's moves that reproduces the *shape* of every figure;
//! * `paper` — the full EDBT 2002 setting (N = 100,000, `10·n`
//!   paper-seconds, 100 repetitions): days of compute.
//!
//! Every budget counts **moves**, not seconds: a step of ILS, GILS, naive
//! LS or SA is one move, a generation of SEA or naive GA is one move per
//! member of its population ([`Algo::moves_per_step`]). A paper-second is
//! [`MOVES_PER_PAPER_SECOND`] = 440 000 moves, calibrated once against the
//! paper's "ILS visits 60 000 local maxima in 5 s": 12 000 maxima a second
//! times the 36.7 moves our ILS makes per local maximum on Fig. 10b's
//! n = 15 instances (DESIGN §3b). So a figure's table is a function of its
//! seeds alone: two runs on any two machines write the same CSV bytes.
//!
//! Results are printed as the paper's tables and written as CSV under
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
pub use scale::{Scale, MOVES_PER_PAPER_SECOND};
pub use suite::{pinned_suite, pinned_suite_large, run_suite, BenchTier, SuiteAlgo, SuiteCase};

use mwsj_core::Instance;
use mwsj_core::{
    Gils, GilsConfig, Ils, IlsConfig, NaiveGa, NaiveGaConfig, NaiveLocalSearch, RunOutcome, Sea,
    SeaConfig, SearchBudget, SearchContext,
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
        }
    }

    /// Moves one step of the algorithm makes on `instance`: a step of ILS,
    /// GILS or naive LS is one move, a generation of SEA or naive GA
    /// one move per member of its population.
    pub fn moves_per_step(&self, instance: &Instance) -> u64 {
        match self {
            Algo::Sea => SeaConfig::default_for(instance).population as u64,
            Algo::NaiveGa => NaiveGaConfig::default().population as u64,
            Algo::Ils | Algo::Gils | Algo::NaiveLs => 1,
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
        ]
        .iter()
        .map(|a| a.name())
        .collect();
        assert_eq!(names.len(), 5);
    }
}
