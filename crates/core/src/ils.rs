//! Indexed Local Search (paper §3, Fig. 3).
//!
//! Restart-based hill climbing over the solution graph: from a random seed,
//! repeatedly re-instantiate the *worst* variable (most violated incident
//! conditions, ties by fewest satisfied) with the best value the index can
//! provide ([`find_best_value`](fn@crate::find_best_value)). When no variable
//! can be improved the solution is a local maximum and the search restarts
//! from a fresh random seed, keeping the best solution seen, until the
//! budget is exhausted.

use crate::budget::{SearchBudget, SearchContext};
use crate::driver::{run_driven, DriveSearch, SearchDriver};
use crate::individual::Individual;
use crate::instance::Instance;
use crate::result::{RunOutcome, RunStats};
use crate::window_cache::WindowCache;
use mwsj_query::Solution;
use rand::rngs::StdRng;

/// Configuration of [`Ils`]: empty. The paper emphasises that ILS "does not
/// include any problem specific parameters", and neither does this one; the
/// type exists so that ILS is configured like the other heuristics.
#[derive(Debug, Clone, Default)]
pub struct IlsConfig {}

/// Indexed local search.
#[derive(Debug, Clone, Default)]
pub struct Ils {
    #[allow(dead_code)]
    config: IlsConfig,
}

impl Ils {
    /// Creates the algorithm.
    pub fn new(config: IlsConfig) -> Self {
        Ils { config }
    }

    /// Runs ILS until the budget is exhausted. One budget step = one
    /// `find best value` call.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget, rng: &mut StdRng) -> RunOutcome {
        self.search(instance, &SearchContext::local(*budget), rng)
    }

    /// Runs ILS under an explicit [`SearchContext`] — its budget, handle and
    /// telemetry; a [`crate::Portfolio`] restart is one such call.
    pub fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        run_driven(self, instance, ctx, rng)
    }
}

impl Ils {
    /// The search itself; `after_step` sees the climbing solution at the
    /// end of every step (the tests' window onto the invariants of
    /// [`Individual`]).
    fn climb(
        &self,
        instance: &Instance,
        driver: &mut SearchDriver,
        rng: &mut StdRng,
        mut after_step: impl FnMut(&Individual),
    ) {
        let graph = instance.graph();
        let mut cache = WindowCache::new(instance);
        // Run-owned: a restart reseeds `ind`, a pass re-fills `order`.
        let mut ind = Individual::new(instance, Solution::new(vec![0; instance.n_vars()]));
        let mut order = Vec::new();

        'restarts: while !driver.exhausted() {
            driver.stats_mut().restarts += 1;
            ind.reseed(instance, None, rng);
            driver.offer(&ind.sol, ind.cs.total_violations());
            if ind.cs.total_violations() == 0 {
                // The seed is already exact: climbing it would book the
                // optimum as a local maximum and restart from it for ever.
                driver.stats_mut().local_maxima += 1;
                break 'restarts;
            }

            // Hill-climb to a local maximum.
            loop {
                if driver.exhausted() {
                    break 'restarts;
                }
                let mut improved = false;
                // Worst variable first; fall through to progressively
                // better-off variables when the worst cannot improve.
                ind.cs.vars_by_badness(graph, &mut order);
                for &v in &order {
                    if driver.exhausted() {
                        break 'restarts;
                    }
                    driver.step();
                    let tally = driver.tally(v);
                    if let Some(best) = ind.improving_value(&mut cache, instance, v, tally) {
                        ind.assign(graph, v, &best);
                        driver.offer(&ind.sol, ind.cs.total_violations());
                        improved = true;
                    }
                    after_step(&ind);
                    if improved {
                        break;
                    }
                }
                if !improved {
                    driver.stats_mut().local_maxima += 1;
                    break;
                }
                if ind.cs.total_violations() == 0 {
                    // Exact solution: nothing can beat similarity 1.
                    driver.stats_mut().local_maxima += 1;
                    break 'restarts;
                }
            }
            driver.sample_cache(&cache);
        }
        driver.stats_mut().cache.absorb(&cache.stats());
    }
}

impl DriveSearch for Ils {
    const NAME: &'static str = "ILS";
    const PHASE: &'static str = "ils";
    const ASKS_BEST_VALUES: bool = true;

    fn drive(&self, instance: &Instance, driver: &mut SearchDriver, rng: &mut StdRng) {
        self.climb(instance, driver, rng, |_| {});
    }
}

/// Collects up to `want` local maxima by repeated ILS climbs, spending at
/// most `step_cap` `find best value` calls. Used by the hybrid SEA
/// initialisation the paper's Discussion proposes ("apply ILS and use the
/// first p local maxima visited as the p solutions of the first
/// generation"). Its node accesses and cache telemetry count into `stats`.
pub(crate) fn collect_local_maxima(
    instance: &Instance,
    want: usize,
    step_cap: u64,
    rng: &mut StdRng,
    stats: &mut RunStats,
) -> Vec<Solution> {
    let graph = instance.graph();
    let mut cache = WindowCache::new(instance);
    let mut maxima = Vec::with_capacity(want);
    let mut order = Vec::new();
    let mut steps = 0u64;
    while maxima.len() < want && steps < step_cap {
        let mut ind = Individual::new(instance, instance.random_solution(rng));
        'climb: loop {
            if steps >= step_cap {
                break;
            }
            ind.cs.vars_by_badness(graph, &mut order);
            for &v in &order {
                steps += 1;
                let tally = (
                    &mut stats.node_accesses,
                    stats.access_profile[v].as_mut_slice(),
                );
                if let Some(best) = ind.improving_value(&mut cache, instance, v, tally) {
                    ind.assign(graph, v, &best);
                    if ind.cs.total_violations() == 0 {
                        break 'climb;
                    }
                    continue 'climb;
                }
                if steps >= step_cap {
                    break;
                }
            }
            break; // no variable improved: local maximum
        }
        maxima.push(ind.sol);
    }
    stats.cache.absorb(&cache.stats());
    maxima
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::{hard_region_density, plant_solution, Dataset, QueryShape};
    use mwsj_query::QueryGraph;
    use rand::SeedableRng;

    fn hard_instance(seed: u64, shape: QueryShape, n: usize, cardinality: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = hard_region_density(shape, n, cardinality, 1.0);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        Instance::new(shape.graph(n), datasets).unwrap()
    }

    #[test]
    fn ils_improves_over_random_solutions() {
        let inst = hard_instance(61, QueryShape::Chain, 5, 1_000);
        let mut rng = StdRng::seed_from_u64(62);
        // Baseline: expected similarity of random solutions is near zero in
        // the hard region.
        let random_sim: f64 = (0..50)
            .map(|_| inst.similarity(&inst.random_solution(&mut rng)))
            .sum::<f64>()
            / 50.0;
        let outcome = Ils::default().run(&inst, &SearchBudget::iterations(2_000), &mut rng);
        assert!(
            outcome.best_similarity > random_sim + 0.2,
            "ILS {} vs random {}",
            outcome.best_similarity,
            random_sim
        );
        assert!(outcome.stats.local_maxima >= 1);
        assert!(outcome.stats.node_accesses > 0);
    }

    #[test]
    fn ils_finds_planted_solution_on_easy_instance() {
        let mut rng = StdRng::seed_from_u64(63);
        let n = 4;
        let cardinality = 300;
        let d = hard_region_density(QueryShape::Chain, n, cardinality, 1.0);
        let mut datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(cardinality, d, &mut rng))
            .collect();
        let graph = QueryGraph::chain(n);
        plant_solution(&mut datasets, &graph, &mut rng);
        let inst = Instance::new(graph, datasets).unwrap();
        let outcome = Ils::default().run(&inst, &SearchBudget::iterations(20_000), &mut rng);
        assert!(
            outcome.best_similarity >= 0.66,
            "similarity {}",
            outcome.best_similarity
        );
    }

    #[test]
    fn ils_respects_step_budget() {
        let inst = hard_instance(64, QueryShape::Clique, 4, 200);
        let mut rng = StdRng::seed_from_u64(65);
        let outcome = Ils::default().run(&inst, &SearchBudget::iterations(100), &mut rng);
        assert_eq!(outcome.stats.steps, 100);
    }

    #[test]
    fn ils_is_deterministic_under_step_budget() {
        let inst = hard_instance(66, QueryShape::Chain, 4, 300);
        let a = Ils::default().run(
            &inst,
            &SearchBudget::iterations(500),
            &mut StdRng::seed_from_u64(7),
        );
        let b = Ils::default().run(
            &inst,
            &SearchBudget::iterations(500),
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_violations, b.best_violations);
        assert_eq!(a.stats.local_maxima, b.stats.local_maxima);
    }

    #[test]
    fn trace_similarities_are_monotone() {
        let inst = hard_instance(67, QueryShape::Clique, 5, 300);
        let mut rng = StdRng::seed_from_u64(68);
        let outcome = Ils::default().run(&inst, &SearchBudget::iterations(1_500), &mut rng);
        for w in outcome.trace.windows(2) {
            assert!(w[0].similarity < w[1].similarity);
        }
        assert_eq!(
            outcome.trace.last().unwrap().similarity,
            outcome.best_similarity
        );
    }

    /// An instance every random seed of which is exact: the search must
    /// see that before it spends a step, and without naming a stop reason,
    /// because the budget did not end the run.
    #[test]
    fn an_exact_seed_ends_the_run_before_its_first_step() {
        use crate::{ObsHandle, RunEvent, VecSink};
        use mwsj_geom::Rect;
        use std::sync::Arc;
        let one = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let two = vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(0.5, 0.5, 2.0, 2.0)];
        let inst = Instance::new(QueryGraph::chain(2), [one, two]).unwrap();
        let sink = Arc::new(VecSink::new());
        let obs = ObsHandle::enabled().with_sink(sink.clone());
        let ctx = SearchContext::local(SearchBudget::iterations(50)).with_obs(obs);
        let outcome = Ils::default().search(&inst, &ctx, &mut StdRng::seed_from_u64(1));
        assert_eq!(outcome.best_similarity, 1.0);
        assert_eq!(outcome.stats.steps, 0);
        assert_eq!(outcome.stats.restarts, 1);
        assert_eq!(outcome.stats.local_maxima, 1);
        let events = sink.events();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, RunEvent::BudgetExhausted { .. })),
            "{events:?}"
        );
    }

    /// The analogue of SEA's `individuals_stay_consistent_…`: after every
    /// step the carried rectangles and evaluation are those of the solution.
    #[test]
    fn the_climber_stays_consistent_through_every_step() {
        let inst = hard_instance(71, QueryShape::Clique, 5, 300);
        let ctx = SearchContext::local(SearchBudget::iterations(2_000));
        let mut driver = SearchDriver::new(&inst, &ctx);
        let mut steps = 0;
        Ils::default().climb(&inst, &mut driver, &mut StdRng::seed_from_u64(72), |ind| {
            steps += 1;
            ind.assert_consistent(&inst);
        });
        assert_eq!(steps, 2_000);
    }

    #[test]
    fn zero_variance_budget_still_returns_solution() {
        let inst = hard_instance(69, QueryShape::Chain, 3, 100);
        let mut rng = StdRng::seed_from_u64(70);
        let outcome = Ils::default().run(&inst, &SearchBudget::iterations(1), &mut rng);
        assert_eq!(outcome.best.len(), 3);
    }
}
