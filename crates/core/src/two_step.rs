//! Two-step processing (paper §6, Fig. 11): a non-systematic heuristic
//! provides a high-similarity incumbent, which then bounds a systematic
//! IBB search for the optimal solution.
//!
//! "IBB, and similar systematic search algorithms, can quickly discover
//! the best solutions, if they have some 'target' similarity to prune the
//! search space" — the paper shows SEA+IBB beating plain IBB by 1–2 orders
//! of magnitude, and that for small queries the heuristic alone often
//! already finds the exact solution, skipping systematic search entirely.

use crate::budget::{SearchBudget, SearchContext};
use crate::ibb::{Ibb, IbbConfig};
use crate::ils::Ils;
use crate::instance::Instance;
use crate::result::{RunOutcome, RunStats};
use crate::sea::{Sea, SeaConfig};
use crate::IlsConfig;
use rand::rngs::StdRng;

/// Which heuristic runs in step one.
#[derive(Debug, Clone)]
pub enum TwoStepConfig {
    /// ILS for the given budget (the paper uses 1 second).
    Ils(IlsConfig, SearchBudget),
    /// SEA for the given budget (the paper uses `10·n` seconds).
    Sea(SeaConfig, SearchBudget),
}

/// Combined result of a two-step run.
#[derive(Debug, Clone)]
pub struct TwoStepOutcome {
    /// Step-one result.
    pub heuristic: RunOutcome,
    /// Step-two result; `None` when the heuristic already found an exact
    /// solution and systematic search was skipped.
    pub systematic: Option<RunOutcome>,
    /// The overall best solution (of either step).
    pub best: RunOutcome,
}

impl TwoStepOutcome {
    /// Returns `true` if step two ran.
    pub fn ran_systematic(&self) -> bool {
        self.systematic.is_some()
    }

    /// Aggregate counters across both steps: elapsed times add up, and all
    /// count-style fields (steps, node accesses, …) are summed. Useful for
    /// accounting the total index work of the pipeline.
    pub fn total_stats(&self) -> RunStats {
        let mut total = self.heuristic.stats.clone();
        if let Some(sys) = &self.systematic {
            total.absorb(&sys.stats);
        }
        total
    }

    /// The pipeline as one run: the overall best outcome carrying
    /// [`TwoStepOutcome::total_stats`] — what [`crate::emit_run_end`]
    /// reports for a two-step run.
    pub fn combined(&self) -> RunOutcome {
        RunOutcome {
            stats: self.total_stats(),
            ..self.best.clone()
        }
    }
}

/// The two-step method.
#[derive(Debug, Clone)]
pub struct TwoStep {
    config: TwoStepConfig,
}

impl TwoStep {
    /// Creates a two-step pipeline with the given step-one heuristic.
    pub fn new(config: TwoStepConfig) -> Self {
        TwoStep { config }
    }

    /// Runs the heuristic, then (unless an exact solution was found) IBB
    /// seeded with the heuristic's best solution under `ibb_budget`.
    pub fn run(
        &self,
        instance: &Instance,
        ibb_budget: &SearchBudget,
        rng: &mut StdRng,
    ) -> TwoStepOutcome {
        self.search(instance, &SearchContext::local(*ibb_budget), rng)
    }

    /// Runs the pipeline under an explicit [`SearchContext`] whose budget
    /// is step two's. Both steps report through the context's handle with
    /// its telemetry (heartbeats and the stall watchdog run per stage): the
    /// heuristic under a "heuristic" phase span, IBB under "systematic",
    /// with counters, improvement events and stop reasons for each.
    pub fn search(
        &self,
        instance: &Instance,
        ctx: &SearchContext,
        rng: &mut StdRng,
    ) -> TwoStepOutcome {
        let obs = ctx.obs();
        let heuristic = {
            let _phase = obs.timer.span("heuristic");
            match &self.config {
                TwoStepConfig::Ils(cfg, budget) => {
                    Ils::new(cfg.clone()).search(instance, &ctx.stage(*budget), rng)
                }
                TwoStepConfig::Sea(cfg, budget) => {
                    Sea::new(cfg.clone()).search(instance, &ctx.stage(*budget), rng)
                }
            }
        };

        if heuristic.is_exact() {
            // "often, especially for small queries, the exact solution is
            // found by the non-systematic heuristics, in which case
            // systematic search is not performed at all."
            let mut best = heuristic.clone();
            best.proven_optimal = true; // similarity 1 cannot be beaten
            return TwoStepOutcome {
                heuristic,
                systematic: None,
                best,
            };
        }

        let ibb = Ibb::new(IbbConfig::with_initial(heuristic.best.clone()));
        let systematic = {
            let _phase = obs.timer.span("systematic");
            ibb.search(instance, ctx)
        };

        let best = if systematic.best_violations <= heuristic.best_violations {
            systematic.clone()
        } else {
            heuristic.clone()
        };
        TwoStepOutcome {
            heuristic,
            systematic: Some(systematic),
            best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::{hard_region_density, plant_solution, Dataset, QueryShape};
    use rand::SeedableRng;

    fn planted_instance(seed: u64, n: usize, cardinality: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = QueryShape::Clique;
        let d = hard_region_density(shape, n, cardinality, 1.0);
        let mut datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        let graph = shape.graph(n);
        plant_solution(&mut datasets, &graph, &mut rng);
        Instance::new(graph, datasets).unwrap()
    }

    #[test]
    fn two_step_finds_the_exact_solution() {
        let inst = planted_instance(151, 4, 150);
        let mut rng = StdRng::seed_from_u64(152);
        let two_step = TwoStep::new(TwoStepConfig::Ils(
            IlsConfig::default(),
            SearchBudget::iterations(500),
        ));
        let outcome = two_step.run(&inst, &SearchBudget::seconds(30.0), &mut rng);
        assert!(outcome.best.is_exact());
        assert!(outcome.best.proven_optimal);
    }

    #[test]
    fn exact_heuristic_skips_systematic_search() {
        // Very dense data: ILS finds an exact solution trivially.
        let mut rng = StdRng::seed_from_u64(153);
        let datasets: Vec<Dataset> = (0..3)
            .map(|_| Dataset::uniform(100, 2.0, &mut rng))
            .collect();
        let inst = Instance::new(QueryShape::Chain.graph(3), datasets).unwrap();
        let two_step = TwoStep::new(TwoStepConfig::Ils(
            IlsConfig::default(),
            SearchBudget::iterations(5_000),
        ));
        let outcome = two_step.run(&inst, &SearchBudget::seconds(30.0), &mut rng);
        assert!(outcome.best.is_exact());
        assert!(!outcome.ran_systematic());
    }

    #[test]
    fn the_best_is_sound_and_no_worse_than_the_heuristic() {
        let inst = planted_instance(156, 4, 100);
        let mut rng = StdRng::seed_from_u64(157);
        let two_step = TwoStep::new(TwoStepConfig::Ils(
            IlsConfig::default(),
            SearchBudget::iterations(300),
        ));
        let outcome = two_step.run(&inst, &SearchBudget::seconds(30.0), &mut rng);
        assert!(outcome.best.best_violations <= outcome.heuristic.best_violations);
        assert_eq!(
            inst.violations(&outcome.best.best),
            outcome.best.best_violations
        );
    }

    #[test]
    fn seeded_ibb_does_not_lose_to_heuristic() {
        let inst = planted_instance(154, 4, 120);
        let mut rng = StdRng::seed_from_u64(155);
        let two_step = TwoStep::new(TwoStepConfig::Sea(
            SeaConfig::default_for(&inst),
            SearchBudget::iterations(15),
        ));
        let outcome = two_step.run(&inst, &SearchBudget::seconds(30.0), &mut rng);
        assert!(outcome.best.best_violations <= outcome.heuristic.best_violations);
    }
}
