//! Guided Indexed Local Search (paper §4, Fig. 7).
//!
//! GILS runs from a **single** random seed and never restarts. Whenever a
//! local maximum is reached, the assignments of the maximum with the
//! minimum penalty so far are punished; the *effective* inconsistency
//! degree of a solution adds `λ·Σ penalty(vᵢ ← rᵢ)` to its violation
//! count. The punishment gradually raises the effective degree of visited
//! maxima and their neighbourhoods, pushing the search into new regions of
//! the graph (and, with sufficient accumulated penalties, permitting
//! downhill moves in raw violations).

use crate::budget::{SearchBudget, SearchContext};
use crate::driver::{run_driven, DriveSearch, SearchDriver};
use crate::individual::Individual;
use crate::instance::Instance;
use crate::result::RunOutcome;
use crate::window_cache::WindowCache;
use mwsj_query::PenaltyTable;
use rand::rngs::StdRng;

/// Configuration of [`Gils`].
///
/// λ controls how much accumulated punishment outweighs real violations,
/// and the right value depends on how *sparse* the candidate space is:
///
/// * the paper's `λ = 10⁻¹⁰·s` (the `None` default here) makes penalties
///   pure plateau tie-breakers — a candidate satisfying one condition is
///   never blocked, no matter how often it was punished. This matters at
///   sparse hard-region densities (e.g. 5-cliques at N = 10⁵, d ≈ 0.025),
///   where the set of objects that intersect *anything* is tiny and large
///   λ values poison it within seconds;
/// * larger λ (0.1–10) enables genuine downhill moves and wins on dense
///   instances where most objects are connectable — see the λ-sweep in the
///   ablation bench.
#[derive(Debug, Clone)]
pub struct GilsConfig {
    /// Penalty weight λ. `None` applies the paper's `λ = 10⁻¹⁰·s`
    /// (`s` = problem size in bits), resolved per instance at run time.
    /// Must be finite and ≥ 0: a run with any other value panics at its
    /// first best-value query.
    pub lambda: Option<f64>,
    /// Reseed from a fresh random solution after this many punishment
    /// rounds without improving the incumbent. In sparse candidate spaces
    /// a single-seeded GILS can orbit one maximum indefinitely (punishment
    /// only shuffles it among equal-quality assignments); this safeguard
    /// restores anytime behaviour there while leaving dense instances —
    /// where improvements come far more often — effectively untouched.
    /// `0` disables reseeding (the paper's literal single-seed run).
    pub stagnation_reseed: u64,
}

impl Default for GilsConfig {
    fn default() -> Self {
        GilsConfig {
            lambda: None,
            stagnation_reseed: 1_000,
        }
    }
}

impl GilsConfig {
    /// The paper's printed λ for a given problem size `s` (in bits).
    pub fn paper_lambda(s: f64) -> f64 {
        1e-10 * s
    }

    /// Configuration with an explicit λ, which must be finite and ≥ 0
    /// ([`GilsConfig::lambda`]).
    pub fn with_lambda(lambda: f64) -> Self {
        GilsConfig {
            lambda: Some(lambda),
            ..GilsConfig::default()
        }
    }
}

/// Guided indexed local search.
#[derive(Debug, Clone, Default)]
pub struct Gils {
    config: GilsConfig,
}

impl Gils {
    /// Creates the algorithm.
    pub fn new(config: GilsConfig) -> Self {
        Gils { config }
    }

    /// Runs GILS until the budget is exhausted. One budget step = one
    /// `find best value` call.
    ///
    /// # Panics
    /// Panics if the configured λ is negative, infinite or NaN.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget, rng: &mut StdRng) -> RunOutcome {
        self.search(instance, &SearchContext::local(*budget), rng)
    }

    /// Runs GILS under an explicit [`SearchContext`] — its budget, handle
    /// and telemetry; a [`crate::Portfolio`] restart is one such call.
    ///
    /// # Panics
    /// As [`Gils::run`].
    pub fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        run_driven(self, instance, ctx, rng)
    }
}

impl DriveSearch for Gils {
    const NAME: &'static str = "GILS";
    const PHASE: &'static str = "gils";
    const ASKS_BEST_VALUES: bool = true;

    fn drive(&self, instance: &Instance, driver: &mut SearchDriver, rng: &mut StdRng) {
        self.climb(instance, driver, rng, |_| {});
    }
}

impl Gils {
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
        let lambda = self
            .config
            .lambda
            .unwrap_or_else(|| GilsConfig::paper_lambda(instance.problem_size_bits()));
        let mut penalties = PenaltyTable::new();
        let mut cache = WindowCache::new(instance);
        let mut order = Vec::new();

        // A seed (or reseed) that is already exact ends the run: nothing
        // beats similarity 1, and climbing from it would punish the
        // optimum as a local maximum until the budget is gone.
        let offer_seed = |driver: &mut SearchDriver, ind: &Individual| {
            driver.offer(&ind.sol, ind.cs.total_violations());
            ind.cs.total_violations() == 0
        };

        // Single seed for the whole run (Fig. 7).
        let mut ind = Individual::new(instance, instance.random_solution(rng));
        let mut exact_seed = offer_seed(driver, &ind);
        driver.stats_mut().restarts = 1;
        let mut rounds_since_improvement: u64 = 0;
        let mut last_best = driver.best_violations();

        'time: while !exact_seed && !driver.exhausted() {
            // Climb (by effective value) to a local maximum.
            #[allow(unused_assignments)]
            let mut any_candidate = false;
            loop {
                if driver.exhausted() {
                    break 'time;
                }
                let mut improved = false;
                any_candidate = false;
                ind.cs.vars_by_badness(graph, &mut order);
                for &v in &order {
                    if driver.exhausted() {
                        break 'time;
                    }
                    driver.step();
                    let cur_obj = ind.sol.get(v);
                    let cur_eff = ind.cs.satisfied_of(graph, v) as f64
                        - lambda * penalties.get(v, cur_obj) as f64;
                    let guided = Some((&penalties, lambda));
                    let best = ind.best_value(&mut cache, instance, v, guided, driver.tally(v));
                    any_candidate |= best.is_some();
                    if let Some(best) =
                        best.filter(|best| best.object != cur_obj && best.effective > cur_eff)
                    {
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
                    break;
                }
                if ind.cs.total_violations() == 0 {
                    // Exact solution: nothing can beat similarity 1.
                    break 'time;
                }
            }

            driver.stats_mut().local_maxima += 1;
            let best_now = driver.best_violations();
            if best_now == last_best {
                rounds_since_improvement += 1;
            } else {
                last_best = best_now;
                rounds_since_improvement = 0;
            }
            let stagnated = self.config.stagnation_reseed > 0
                && rounds_since_improvement >= self.config.stagnation_reseed;
            if any_candidate && !stagnated {
                // Local maximum: punish its minimum-penalty assignments and
                // continue from the same solution (no restart).
                penalties.penalize_local_maximum(&ind.sol);
            } else {
                // Degenerate maximum (no variable has *any* candidate, so
                // punishment teaches nothing) or prolonged stagnation:
                // reseed. The paper leaves both cases unspecified; they
                // dominate at sparse hard-region densities (e.g. d ≈ 0.025
                // for 5-cliques at N = 10⁵) where a random assignment's
                // windows usually intersect nothing.
                if stagnated {
                    driver.emit_stagnation_reseed(rounds_since_improvement);
                }
                driver.stats_mut().restarts += 1;
                rounds_since_improvement = 0;
                ind.reseed(instance, None, rng);
                exact_seed = offer_seed(driver, &ind);
            }
            driver.sample_cache(&cache);
        }
        driver.stats_mut().cache.absorb(&cache.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
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
    fn gils_improves_over_random_solutions() {
        let inst = hard_instance(71, QueryShape::Chain, 5, 1_000);
        let mut rng = StdRng::seed_from_u64(72);
        let random_sim: f64 = (0..50)
            .map(|_| inst.similarity(&inst.random_solution(&mut rng)))
            .sum::<f64>()
            / 50.0;
        let outcome = Gils::default().run(&inst, &SearchBudget::iterations(2_000), &mut rng);
        assert!(
            outcome.best_similarity > random_sim + 0.2,
            "GILS {} vs random {}",
            outcome.best_similarity,
            random_sim
        );
    }

    #[test]
    fn gils_escapes_local_maxima_without_restarting() {
        let inst = hard_instance(73, QueryShape::Clique, 5, 400);
        let mut rng = StdRng::seed_from_u64(74);
        let outcome = Gils::new(GilsConfig::with_lambda(0.3)).run(
            &inst,
            &SearchBudget::iterations(3_000),
            &mut rng,
        );
        // Many maxima are visited while (almost) never reseeding: the
        // penalty mechanism, not restarts, moves the search. (Reseeds only
        // happen at degenerate maxima with no candidates anywhere.)
        assert!(
            outcome.stats.local_maxima > 1,
            "only {} maxima",
            outcome.stats.local_maxima
        );
        assert!(
            outcome.stats.local_maxima > 4 * outcome.stats.restarts,
            "{} maxima vs {} reseeds — GILS degenerated into restarting",
            outcome.stats.local_maxima,
            outcome.stats.restarts
        );
    }

    /// A negative λ used to run and climb on answers that were not the
    /// best; it now stops at the first best-value query.
    #[test]
    #[should_panic(expected = "λ must be finite and ≥ 0, got -0.5")]
    fn a_negative_lambda_stops_the_run() {
        let inst = hard_instance(75, QueryShape::Clique, 4, 200);
        let mut rng = StdRng::seed_from_u64(76);
        let gils = Gils::new(GilsConfig::with_lambda(-0.5));
        let _ = gils.run(&inst, &SearchBudget::iterations(100), &mut rng);
    }

    /// The analogue of SEA's `individuals_stay_consistent_…`: after every
    /// step — reseeds included — the carried rectangles and evaluation are
    /// those of the solution.
    #[test]
    fn the_climber_stays_consistent_through_every_step() {
        let inst = hard_instance(78, QueryShape::Clique, 5, 300);
        let ctx = SearchContext::local(SearchBudget::iterations(2_000));
        let mut driver = SearchDriver::new(&inst, &ctx);
        let gils = Gils::new(GilsConfig {
            stagnation_reseed: 3,
            ..GilsConfig::default()
        });
        let mut steps = 0;
        gils.climb(&inst, &mut driver, &mut StdRng::seed_from_u64(79), |ind| {
            steps += 1;
            ind.assert_consistent(&inst);
        });
        assert_eq!(steps, 2_000);
        let outcome = driver.finish(&inst, &mut StdRng::seed_from_u64(0));
        assert!(outcome.stats.restarts > 1, "no reseed was exercised");
    }

    /// An exact seed ends the run before its first step; so does an exact
    /// *reseed* — the two sites share one check (`offer_seed`).
    #[test]
    fn an_exact_seed_or_reseed_ends_the_run() {
        use mwsj_geom::Rect;
        use mwsj_query::QueryGraph;
        let budget = SearchBudget::iterations(1_000);
        let one = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let inst = Instance::new(QueryGraph::chain(2), [one.clone(), one]).unwrap();
        let outcome = Gils::default().run(&inst, &budget, &mut StdRng::seed_from_u64(1));
        assert_eq!(outcome.best_similarity, 1.0);
        assert_eq!(outcome.stats.steps, 0);
        assert_eq!(outcome.stats.local_maxima, 0);

        // One overlapping pair and one isolated object a side: the seed
        // (isolated, isolated) is a degenerate maximum — no window holds
        // a candidate — so GILS reseeds until it draws the exact pair.
        let side = |far: f64| {
            vec![
                Rect::new(0.0, 0.0, 1.0, 1.0),
                Rect::new(far, far, far + 1.0, far + 1.0),
            ]
        };
        let inst = Instance::new(QueryGraph::chain(2), [side(10.0), side(20.0)]).unwrap();
        let mut reseeded = false;
        for seed in 0..16 {
            let outcome = Gils::default().run(&inst, &budget, &mut StdRng::seed_from_u64(seed));
            assert_eq!(outcome.best_similarity, 1.0, "seed {seed}");
            assert!(
                outcome.stats.steps < 1_000,
                "seed {seed} ran the budget out"
            );
            reseeded |= outcome.stats.restarts > 1;
        }
        assert!(reseeded, "no seed took the reseed path");
    }

    #[test]
    fn gils_is_deterministic_under_step_budget() {
        let inst = hard_instance(75, QueryShape::Chain, 4, 300);
        let a = Gils::default().run(
            &inst,
            &SearchBudget::iterations(800),
            &mut StdRng::seed_from_u64(9),
        );
        let b = Gils::default().run(
            &inst,
            &SearchBudget::iterations(800),
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a.best, b.best);
        assert_eq!(a.stats.local_maxima, b.stats.local_maxima);
    }

    #[test]
    fn larger_lambda_visits_more_distinct_regions() {
        // With λ = 0 the penalties never change effective values, so GILS
        // stays glued to the first local maximum; a positive λ keeps moving.
        let inst = hard_instance(76, QueryShape::Clique, 4, 300);
        let mut rng = StdRng::seed_from_u64(77);
        let stuck = Gils::new(GilsConfig::with_lambda(0.0)).run(
            &inst,
            &SearchBudget::iterations(1_000),
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(77);
        let moving = Gils::new(GilsConfig::with_lambda(0.5)).run(
            &inst,
            &SearchBudget::iterations(1_000),
            &mut rng,
        );
        assert!(
            moving.stats.node_accesses >= stuck.stats.node_accesses,
            "penalised search should do at least as much index work"
        );
        assert!(moving.best_similarity >= stuck.best_similarity - 1e-9);
    }
}
