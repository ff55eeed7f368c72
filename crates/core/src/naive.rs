//! Ablation baselines: the \[PMK+99\]-style heuristics the paper compares
//! against in §6.
//!
//! The paper attributes SEA/ILS's advantage over earlier configuration-
//! similarity work to two improvements: (i) index-based re-instantiation
//! instead of random values, and (ii) the greedy quality-aware crossover
//! instead of a random crossover point. These baselines remove exactly
//! those ingredients so the ablation benches can quantify each one:
//!
//! * [`NaiveLocalSearch`] — conflict-directed hill climbing whose
//!   re-instantiation samples random values (no index);
//! * [`NaiveGa`] — a genetic algorithm with random single-point crossover
//!   and random-value mutation (no index, no greedy split).

use crate::budget::{SearchBudget, SearchContext};
use crate::driver::{run_driven, DriveSearch, SearchDriver};
use crate::instance::Instance;
use crate::result::RunOutcome;
use mwsj_query::{ConflictState, Solution};
use rand::rngs::StdRng;
use rand::RngExt;

/// Local search with **random** re-instantiation (no index).
#[derive(Debug, Clone)]
pub struct NaiveLocalSearch {
    /// Random values sampled per re-instantiation attempt; the best of the
    /// sample replaces the variable if it improves the solution.
    pub samples: usize,
}

impl Default for NaiveLocalSearch {
    fn default() -> Self {
        NaiveLocalSearch { samples: 8 }
    }
}

impl NaiveLocalSearch {
    /// Creates the baseline with a per-move sample size.
    pub fn new(samples: usize) -> Self {
        assert!(samples >= 1);
        NaiveLocalSearch { samples }
    }

    /// Runs the baseline. One budget step = one re-instantiation attempt.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget, rng: &mut StdRng) -> RunOutcome {
        self.search(instance, &SearchContext::local(*budget), rng)
    }

    /// Runs the baseline under an explicit [`SearchContext`].
    pub fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        run_driven(self, instance, ctx, rng)
    }
}

impl DriveSearch for NaiveLocalSearch {
    const NAME: &'static str = "naive-LS";
    const PHASE: &'static str = "naive-ls";

    fn drive(&self, instance: &Instance, driver: &mut SearchDriver, rng: &mut StdRng) {
        let graph = instance.graph();
        let mut order = Vec::new();

        'restarts: while !driver.exhausted() {
            driver.stats_mut().restarts += 1;
            let mut sol = instance.random_solution(rng);
            let mut cs = instance.evaluate(&sol);
            driver.offer(&sol, cs.total_violations());
            if cs.total_violations() == 0 {
                // The seed is already exact: nothing beats similarity 1.
                break 'restarts;
            }

            loop {
                if driver.exhausted() {
                    break 'restarts;
                }
                let mut improved = false;
                cs.vars_by_badness(graph, &mut order);
                for &v in &order {
                    if driver.exhausted() {
                        break 'restarts;
                    }
                    driver.step();
                    // Sample random candidates; keep the one with the most
                    // satisfied conditions towards v's neighbours.
                    let current = cs.satisfied_of(graph, v);
                    let mut best: Option<(u32, usize)> = None;
                    for _ in 0..self.samples {
                        let obj = rng.random_range(0..instance.cardinality(v));
                        let r = instance.rect(v, obj);
                        let sat = graph
                            .neighbors(v)
                            .iter()
                            .filter(|&&(u, pred)| pred.eval(&r, &instance.rect(u, sol.get(u))))
                            .count() as u32;
                        if best.is_none_or(|(bs, _)| sat > bs) {
                            best = Some((sat, obj));
                        }
                    }
                    if let Some((sat, obj)) = best {
                        if sat > current {
                            cs.reassign(graph, &mut sol, v, obj, instance.rect_of());
                            driver.offer(&sol, cs.total_violations());
                            if cs.total_violations() == 0 {
                                break 'restarts;
                            }
                            improved = true;
                            break;
                        }
                    }
                }
                if !improved {
                    driver.stats_mut().local_maxima += 1;
                    break;
                }
            }
        }
    }
}

/// Configuration of [`NaiveGa`].
#[derive(Debug, Clone)]
pub struct NaiveGaConfig {
    /// Population size.
    pub population: usize,
    /// Tournament size.
    pub tournament: usize,
    /// Crossover rate.
    pub crossover_rate: f64,
    /// Mutation rate (random re-instantiation of one random variable).
    pub mutation_rate: f64,
}

impl Default for NaiveGaConfig {
    fn default() -> Self {
        NaiveGaConfig {
            population: 128,
            tournament: 6,
            crossover_rate: 0.6,
            mutation_rate: 1.0,
        }
    }
}

/// Genetic algorithm with random single-point crossover and random-value
/// mutation — the \[PMK+99\] baseline SEA is measured against.
#[derive(Debug, Clone, Default)]
pub struct NaiveGa {
    config: NaiveGaConfig,
}

impl NaiveGa {
    /// Creates the baseline.
    pub fn new(config: NaiveGaConfig) -> Self {
        assert!(config.population >= 2);
        NaiveGa { config }
    }

    /// Runs the baseline. One budget step = one generation.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget, rng: &mut StdRng) -> RunOutcome {
        self.search(instance, &SearchContext::local(*budget), rng)
    }

    /// Runs the baseline under an explicit [`SearchContext`].
    pub fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        run_driven(self, instance, ctx, rng)
    }
}

impl DriveSearch for NaiveGa {
    const NAME: &'static str = "naive-GA";
    const PHASE: &'static str = "naive-ga";

    fn drive(&self, instance: &Instance, driver: &mut SearchDriver, rng: &mut StdRng) {
        let graph = instance.graph();
        let n = instance.n_vars();
        let p = self.config.population;

        let mut pop: Vec<(Solution, ConflictState)> = (0..p)
            .map(|_| {
                let sol = instance.random_solution(rng);
                let cs = instance.evaluate(&sol);
                (sol, cs)
            })
            .collect();
        // Silent eager seed: the arbitrary first member is given, not found.
        driver.seed_incumbent(&pop[0].0, pop[0].1.total_violations());

        while !driver.exhausted() {
            driver.step();
            driver.stats_mut().restarts += 1;

            for (sol, cs) in &pop {
                driver.offer(sol, cs.total_violations());
            }
            if driver.best_violations() == Some(0) {
                break;
            }

            // Tournament selection.
            let mut next = Vec::with_capacity(p);
            for i in 0..p {
                let mut winner = i;
                for _ in 0..self.config.tournament {
                    let rival = rng.random_range(0..p);
                    if pop[rival].1.total_violations() < pop[winner].1.total_violations() {
                        winner = rival;
                    }
                }
                next.push(pop[winner].clone());
            }
            pop = next;

            // Random single-point crossover between adjacent pairs.
            for i in (0..p - 1).step_by(2) {
                if !rng.random_bool(self.config.crossover_rate) {
                    continue;
                }
                let cut = rng.random_range(1..n.max(2));
                let (left, right) = pop.split_at_mut(i + 1);
                let (a, b) = (&mut left[i], &mut right[0]);
                for v in cut..n {
                    let av = a.0.get(v);
                    a.0.set(v, b.0.get(v));
                    b.0.set(v, av);
                }
                a.1 = instance.evaluate(&a.0);
                b.1 = instance.evaluate(&b.0);
            }

            // Random mutation.
            for (sol, cs) in pop.iter_mut() {
                if !rng.random_bool(self.config.mutation_rate) {
                    continue;
                }
                let v = rng.random_range(0..n);
                let obj = rng.random_range(0..instance.cardinality(v));
                cs.reassign(graph, sol, v, obj, instance.rect_of());
            }
        }

        // Final evaluation pass so the last generation's work counts.
        for (sol, cs) in &pop {
            driver.offer(sol, cs.total_violations());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ils, SearchBudget};
    use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
    use rand::SeedableRng;

    fn hard_instance(seed: u64, n: usize, cardinality: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = QueryShape::Chain;
        let d = hard_region_density(shape, n, cardinality, 1.0);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        Instance::new(shape.graph(n), datasets).unwrap()
    }

    /// PR 19 fixed ILS; the baselines had the same hole.
    #[test]
    fn an_exact_seed_ends_the_run_before_its_first_step() {
        use mwsj_geom::Rect;
        use mwsj_query::QueryGraph;
        let one = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let inst = Instance::new(QueryGraph::chain(2), [one.clone(), one]).unwrap();
        let budget = SearchBudget::iterations(1_000);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = NaiveLocalSearch::default().run(&inst, &budget, &mut rng);
        assert_eq!(outcome.best_similarity, 1.0);
        assert_eq!(outcome.stats.steps, 0);
        assert_eq!(outcome.stats.restarts, 1);
    }

    #[test]
    fn naive_ls_improves_over_random() {
        let inst = hard_instance(161, 5, 500);
        let mut rng = StdRng::seed_from_u64(162);
        let random_sim: f64 = (0..50)
            .map(|_| inst.similarity(&inst.random_solution(&mut rng)))
            .sum::<f64>()
            / 50.0;
        let outcome =
            NaiveLocalSearch::default().run(&inst, &SearchBudget::iterations(3_000), &mut rng);
        assert!(outcome.best_similarity > random_sim);
    }

    #[test]
    fn indexed_ils_beats_naive_ls_per_step() {
        // The paper's ablation claim (i): index-based re-instantiation
        // dominates random re-instantiation at equal step budgets.
        let inst = hard_instance(163, 6, 2_000);
        let steps = 600;
        let trials = 5;
        let mut ils_total = 0.0;
        let mut naive_total = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(164 + t);
            ils_total += Ils::default()
                .run(&inst, &SearchBudget::iterations(steps), &mut rng)
                .best_similarity;
            let mut rng = StdRng::seed_from_u64(164 + t);
            naive_total += NaiveLocalSearch::default()
                .run(&inst, &SearchBudget::iterations(steps), &mut rng)
                .best_similarity;
        }
        assert!(
            ils_total >= naive_total,
            "ILS {ils_total} vs naive {naive_total} (sum over {trials} trials)"
        );
    }

    #[test]
    fn naive_ga_improves_over_random() {
        let inst = hard_instance(165, 5, 500);
        let mut rng = StdRng::seed_from_u64(166);
        let random_sim: f64 = (0..50)
            .map(|_| inst.similarity(&inst.random_solution(&mut rng)))
            .sum::<f64>()
            / 50.0;
        let outcome = NaiveGa::default().run(&inst, &SearchBudget::iterations(40), &mut rng);
        assert!(outcome.best_similarity > random_sim);
    }

    #[test]
    fn baselines_are_deterministic() {
        let inst = hard_instance(169, 4, 200);
        let a = NaiveGa::default().run(
            &inst,
            &SearchBudget::iterations(10),
            &mut StdRng::seed_from_u64(1),
        );
        let b = NaiveGa::default().run(
            &inst,
            &SearchBudget::iterations(10),
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(a.best, b.best);
    }
}
