//! Spatial Evolutionary Algorithm (paper §5, Fig. 9).
//!
//! A generational evolutionary algorithm whose three operators are adapted
//! to the spatial structure of the problem:
//!
//! * **selection** — tournament offspring allocation \[BT96\]: each solution
//!   competes with `T` random members, the fittest of the `T+1` takes its
//!   slot;
//! * **crossover** — a *variable crossover point* `c` that starts at 1 and
//!   increases every `g_c` generations, plus a greedy split: the `c`
//!   variables kept are chosen by descending solved-ness, growing a set `X`
//!   that maximises satisfied conditions *within* `X` (the paper's Fig. 8
//!   example), while the remaining variables adopt the assignments of a
//!   random other solution — so early generations explore aggressively and
//!   later ones preserve good building blocks;
//! * **mutation** — the only index-driven operator: with probability `μm`
//!   the worst variable of a solution is re-instantiated with
//!   [`find_best_value`](crate::find_best_value), exactly like one ILS move
//!   ("mutation can only have positive results").

use crate::budget::{SearchBudget, SearchContext};
use crate::driver::{run_driven, DriveSearch, SearchDriver};
use crate::individual::Individual;
use crate::instance::Instance;
use crate::result::RunOutcome;
use crate::window_cache::WindowCache;
use mwsj_query::{ConflictState, Solution, VarId};
use rand::rngs::StdRng;
use rand::RngExt;

/// Configuration of [`Sea`].
///
/// The paper tunes every parameter as a function of the problem size
/// `s = log₂ ∏ Nᵢ` \[CFG+98\]; see [`SeaConfig::paper`]. For short budgets
/// the scaled-down [`SeaConfig::scaled`] converges much faster (fewer
/// individuals to evolve) at slightly worse asymptotic quality — this is
/// the "variable parameter values depending on the time available" idea
/// from the paper's Discussion.
#[derive(Debug, Clone, PartialEq)]
pub struct SeaConfig {
    /// Population size `p`.
    pub population: usize,
    /// Tournament size `T`.
    pub tournament: usize,
    /// Crossover rate `μc`.
    pub crossover_rate: f64,
    /// Mutation rate `μm` (the paper uses 1: every solution mutates).
    pub mutation_rate: f64,
    /// Generations between increments of the crossover point `c`.
    /// **0 enables budget-aware annealing** instead: `c` grows linearly
    /// with the consumed fraction of the search budget, reaching `n − 1`
    /// as the budget runs out — the paper's §7 idea of "variable parameter
    /// values depending on the time available", which makes the
    /// exploration→preservation schedule independent of how many
    /// generations the budget affords.
    pub generations_per_c: u64,
    /// Restart the population from fresh random solutions (keeping the
    /// incumbent) after this many generations without improving the best
    /// solution. `0` disables restarts. The paper's population (`p = 100·s`,
    /// tens of thousands) never converges within its budget; a scaled-down
    /// population does, and stagnation restarts restore the anytime
    /// behaviour at any budget length.
    pub stagnation_restart: u64,
    /// Seed the initial population with ILS local maxima instead of random
    /// solutions — the hybrid the paper's Discussion proposes ("apply ILS
    /// and use the first p local maxima visited as the p solutions of the
    /// first generation"). The seeding phase is capped at `20·p` `find
    /// best value` calls; any shortfall is filled with random solutions.
    pub seed_with_ils: bool,
}

impl SeaConfig {
    /// The published parameter set (§5): `p = 100·s`, `T = 0.05·s`,
    /// `μc = 0.6`, `g_c = 10·s`, `μm = 1`, with `s` the problem size in
    /// bits. Intended for the paper's long (`10·n` seconds) budgets.
    pub fn paper(s: f64) -> Self {
        SeaConfig {
            population: (100.0 * s).round().max(4.0) as usize,
            tournament: (0.05 * s).round().max(1.0) as usize,
            crossover_rate: 0.6,
            mutation_rate: 1.0,
            generations_per_c: (10.0 * s).round().max(1.0) as u64,
            stagnation_restart: 0,
            seed_with_ils: false,
        }
    }

    /// A budget-friendly scaling: population proportional to `s` but capped
    /// (so a generation costs milliseconds, not seconds), tournament ≈ 5 %
    /// of the population, and a crossover point that anneals within a few
    /// hundred generations.
    pub fn scaled(s: f64) -> Self {
        // The paper's p = 100·s keeps the population diverse for hours-long
        // budgets; 2·s (clamped) preserves enough diversity to avoid
        // premature convergence while keeping generations at millisecond
        // cost for second-scale budgets.
        let population = ((2.0 * s).round() as usize).clamp(64, 512);
        SeaConfig {
            population,
            // Binary tournament: the paper's T = 0.05·s is calibrated for
            // p = 100·s; at a scaled-down p the same ratio homogenises the
            // population within a couple of generations and search stalls.
            tournament: 2,
            crossover_rate: 0.6,
            mutation_rate: 1.0,
            generations_per_c: 0, // budget-aware annealing
            stagnation_restart: 50,
            seed_with_ils: false,
        }
    }

    /// [`SeaConfig::scaled`] for a concrete instance.
    pub fn default_for(instance: &Instance) -> Self {
        Self::scaled(instance.problem_size_bits())
    }

    /// Enables ILS-seeded initialisation (see
    /// [`SeaConfig::seed_with_ils`]).
    pub fn with_ils_seeding(mut self) -> Self {
        self.seed_with_ils = true;
        self
    }
}

impl Default for SeaConfig {
    fn default() -> Self {
        // A reasonable mid-size default; prefer `default_for`.
        SeaConfig::scaled(128.0)
    }
}

/// Spatial evolutionary algorithm.
#[derive(Debug, Clone)]
pub struct Sea {
    config: SeaConfig,
}

impl Sea {
    /// Creates the algorithm.
    pub fn new(config: SeaConfig) -> Self {
        assert!(config.population >= 2, "population must hold at least 2");
        assert!(config.tournament >= 1);
        Sea { config }
    }

    /// Runs SEA until the budget is exhausted. One budget step = one
    /// generation.
    pub fn run(&self, instance: &Instance, budget: &SearchBudget, rng: &mut StdRng) -> RunOutcome {
        self.search(instance, &SearchContext::local(*budget), rng)
    }

    /// Runs SEA under an explicit [`SearchContext`] — its budget, handle and
    /// telemetry; a [`crate::Portfolio`] restart is one such call.
    pub fn search(&self, instance: &Instance, ctx: &SearchContext, rng: &mut StdRng) -> RunOutcome {
        run_driven(self, instance, ctx, rng)
    }

    /// `p` ILS local maxima for the hybrid initialisation and its
    /// stagnation restarts (none unless [`SeaConfig::seed_with_ils`]).
    fn ils_seeds(
        &self,
        instance: &Instance,
        driver: &mut SearchDriver,
        rng: &mut StdRng,
    ) -> Vec<Solution> {
        if !self.config.seed_with_ils {
            return Vec::new();
        }
        let p = self.config.population;
        crate::ils::collect_local_maxima(instance, p, 20 * p as u64, rng, driver.stats_mut())
    }

    /// The search itself, on the `cache` it is given; `after_generation`
    /// sees the population at the end of every complete generation (the
    /// tests' window onto the invariants of [`Individual`]).
    fn evolve(
        &self,
        instance: &Instance,
        driver: &mut SearchDriver,
        rng: &mut StdRng,
        mut cache: WindowCache,
        mut after_generation: impl FnMut(&[Individual]),
    ) {
        let graph = instance.graph();
        let n = instance.n_vars();
        let p = self.config.population;

        // Initial population: random, or the first p ILS local maxima
        // (the hybrid initialisation of the paper's Discussion).
        let mut pop: Vec<Individual> = {
            let _seed_phase = driver.obs().timer.span("seed");
            let mut pop: Vec<Individual> = self
                .ils_seeds(instance, driver, rng)
                .into_iter()
                .map(|sol| Individual::new(instance, sol))
                .collect();
            while pop.len() < p {
                pop.push(Individual::new(instance, instance.random_solution(rng)));
            }
            pop
        };
        // Everything a generation writes lives in storage the run owns:
        // selection records its `winners`, copies into `next` and swaps,
        // crossover and mutation pick their variables out of `keep` and
        // `tied`.
        let mut winners: Vec<usize> = Vec::with_capacity(p);
        let mut next = pop.clone();
        let mut keep = KeepSet::default();
        let mut tied: Vec<VarId> = Vec::with_capacity(n);

        // Eager incumbent from the first member, so the run always has a
        // full trace even on a zero-generation budget.
        driver.offer(&pop[0].sol, pop[0].cs.total_violations());

        let _evolve_phase = driver.obs().timer.span("evolve");
        let mut generation: u64 = 0;
        let mut last_improvement_gen: u64 = 0;
        'generations: while !driver.exhausted() {
            driver.step();
            generation += 1;
            driver.stats_mut().restarts = generation; // generations telemetry
            driver.sample_cache(&cache);

            // Stagnation restart: re-diversify a converged population with
            // fresh ILS local maxima in hybrid mode, otherwise (and for any
            // shortfall) fresh random solutions.
            if self.config.stagnation_restart > 0
                && generation - last_improvement_gen > self.config.stagnation_restart
            {
                let mut seeds = self.ils_seeds(instance, driver, rng).into_iter();
                for ind in pop.iter_mut() {
                    ind.reseed(instance, seeds.next(), rng);
                }
                last_improvement_gen = generation;
            }

            // Crossover point: starts at 1 and grows to n − 1, either every
            // g_c generations (the paper's schedule) or linearly in the
            // consumed budget (budget-aware annealing, g_c = 0).
            let max_c = n.saturating_sub(1).max(1);
            let c = match self.config.generations_per_c {
                0 => (1 + (driver.fraction_consumed() * (max_c - 1) as f64).round() as usize)
                    .min(max_c),
                g_c => ((1 + (generation - 1) / g_c) as usize).min(max_c),
            };

            // --- Evaluation: offer everyone to the incumbent. ---
            for ind in &pop {
                if driver.offer(&ind.sol, ind.cs.total_violations()) {
                    last_improvement_gen = generation;
                }
            }
            if driver.best_violations() == Some(0) {
                break 'generations; // nothing can beat similarity 1
            }

            // --- Offspring allocation: tournament selection. ---
            // Every tournament is drawn before any slot changes; a member
            // that wins its own keeps its slot, and only the others are
            // copied (from the old population) and swapped in.
            winners.clear();
            for i in 0..p {
                let mut winner = i;
                for _ in 0..self.config.tournament {
                    let rival = rng.random_range(0..p);
                    if pop[rival].cs.total_violations() < pop[winner].cs.total_violations() {
                        winner = rival;
                    }
                }
                winners.push(winner);
            }
            let replaced = || winners.iter().enumerate().filter(|&(i, &w)| w != i);
            for (i, &winner) in replaced() {
                next[i].clone_from(&pop[winner]);
            }
            for (i, _) in replaced() {
                std::mem::swap(&mut pop[i], &mut next[i]);
            }

            // --- Crossover. ---
            for i in 0..p {
                if !rng.random_bool(self.config.crossover_rate) {
                    continue;
                }
                let donor = rng.random_range(0..p);
                if donor == i {
                    continue;
                }
                let (ind, donor) = if i < donor {
                    let (head, tail) = pop.split_at_mut(donor);
                    (&mut head[i], &tail[0])
                } else {
                    let (head, tail) = pop.split_at_mut(i);
                    (&mut tail[0], &head[donor])
                };
                // A copy of the same solution (selection makes many): the
                // child is the parent, whatever the keep set. The draws
                // above are made either way, so the stream does not move.
                if ind.sol == donor.sol {
                    continue;
                }
                keep.fill(graph, &ind.cs, c);
                let mut changed = false;
                for v in 0..n {
                    if !keep.mask[v] && ind.sol.get(v) != donor.sol.get(v) {
                        ind.sol.set(v, donor.sol.get(v));
                        ind.rects[v] = donor.rects[v];
                        changed = true;
                    }
                }
                if changed {
                    let rects = &ind.rects;
                    ind.cs.evaluate_into(graph, &ind.sol, |v, _| rects[v]);
                }
            }

            // --- Mutation: one ILS move per selected individual. ---
            for ind in pop.iter_mut() {
                if driver.exhausted() {
                    break 'generations;
                }
                if !rng.random_bool(self.config.mutation_rate) {
                    continue;
                }
                // Worst variable, ties broken randomly: after selection the
                // population contains many copies of good solutions, and a
                // deterministic tie-break would mutate all of them
                // identically.
                ind.cs.worst_tied(graph, &mut tied);
                let worst = tied[rng.random_range(0..tied.len())];
                let tally = driver.tally(worst);
                if let Some(best) = ind.improving_value(&mut cache, instance, worst, tally) {
                    ind.assign(graph, worst, &best);
                }
            }
            after_generation(&pop);
        }

        // Final evaluation pass so the last generation's work counts.
        for ind in &pop {
            driver.offer(&ind.sol, ind.cs.total_violations());
        }
        driver.stats_mut().cache.absorb(&cache.stats());
    }
}

impl DriveSearch for Sea {
    const NAME: &'static str = "SEA";
    const PHASE: &'static str = "sea";
    const ASKS_BEST_VALUES: bool = true;

    fn drive(&self, instance: &Instance, driver: &mut SearchDriver, rng: &mut StdRng) {
        // Selection fills the population with copies, so most mutations ask
        // a question some individual has asked before: the shared slots of
        // a population cache answer those without the index.
        let cache = WindowCache::for_population(instance, self.config.population);
        self.evolve(instance, driver, rng, cache, |_| {});
    }
}

/// The greedy crossover split (paper §5, Fig. 8) and its scratch, which the
/// run owns so that a crossover allocates nothing.
#[derive(Debug, Default)]
struct KeepSet {
    /// `mask[v]`: variable `v` keeps its assignment.
    mask: Vec<bool>,
    /// `towards[v]`: conditions `v` satisfies towards the members so far.
    towards: Vec<u32>,
}

impl KeepSet {
    /// Selects `c` variables to keep. Variables are first ordered by
    /// satisfied conditions (desc), ties by violations (asc); the set `X`
    /// then grows by repeatedly adding the variable satisfying the most
    /// conditions towards members of `X`, ties resolved by the initial
    /// order.
    ///
    /// The initial order is the total key `(Reverse(satisfied), conflicts,
    /// v)`, so "earlier in the order" is "smaller key": each round takes the
    /// non-member with the largest `towards` count and then the smallest
    /// key, and raises the counts of the new member's satisfied neighbours.
    fn fill(&mut self, graph: &mwsj_query::QueryGraph, cs: &ConflictState, c: usize) {
        let KeepSet { mask, towards } = self;
        let n = graph.n_vars();
        mask.clear();
        mask.resize(n, false);
        towards.clear();
        towards.resize(n, 0);
        let key = |v: VarId| {
            (
                std::cmp::Reverse(cs.satisfied_of(graph, v)),
                cs.conflicts_of(v),
                v,
            )
        };
        for _ in 0..c.min(n) {
            let mut joins = usize::MAX;
            for v in (0..n).filter(|&v| !mask[v]) {
                let better = joins == usize::MAX
                    || towards[v] > towards[joins]
                    || (towards[v] == towards[joins] && key(v) < key(joins));
                if better {
                    joins = v;
                }
            }
            mask[joins] = true;
            for &(u, _) in graph.neighbors(joins) {
                let edge = graph.edge_index(joins, u).expect("neighbor edge");
                towards[u] += u32::from(!cs.is_edge_violated(edge));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendKind;
    use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
    use mwsj_query::{QueryGraph, QueryGraphBuilder};
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
    fn sea_improves_over_random_solutions() {
        let inst = hard_instance(81, QueryShape::Clique, 5, 500);
        let mut rng = StdRng::seed_from_u64(82);
        let random_sim: f64 = (0..50)
            .map(|_| inst.similarity(&inst.random_solution(&mut rng)))
            .sum::<f64>()
            / 50.0;
        let sea = Sea::new(SeaConfig::default_for(&inst));
        let outcome = sea.run(&inst, &SearchBudget::iterations(60), &mut rng);
        assert!(
            outcome.best_similarity > random_sim + 0.2,
            "SEA {} vs random {}",
            outcome.best_similarity,
            random_sim
        );
        assert!(outcome.stats.restarts > 0, "no generations ran");
    }

    #[test]
    fn sea_is_deterministic_under_step_budget() {
        let inst = hard_instance(83, QueryShape::Chain, 4, 300);
        let cfg = SeaConfig::default_for(&inst);
        let a = Sea::new(cfg.clone()).run(
            &inst,
            &SearchBudget::iterations(20),
            &mut StdRng::seed_from_u64(3),
        );
        let b = Sea::new(cfg).run(
            &inst,
            &SearchBudget::iterations(20),
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_violations, b.best_violations);
    }

    #[test]
    fn paper_config_follows_published_formulas() {
        let s = 250.0;
        let cfg = SeaConfig::paper(s);
        assert_eq!(cfg.population, 25_000);
        assert_eq!(cfg.tournament, 13); // round(12.5)
        assert_eq!(cfg.generations_per_c, 2_500);
        assert_eq!(cfg.crossover_rate, 0.6);
        assert_eq!(cfg.mutation_rate, 1.0);
    }

    #[test]
    fn greedy_keep_set_prefers_solved_subgraph() {
        // Figure 8 style: variables 0,1,2 form a satisfied triangle;
        // variables 3,4 are violated stragglers.
        let data = vec![
            vec![mwsj_geom::Rect::new(0.0, 0.0, 0.4, 0.4)],
            vec![mwsj_geom::Rect::new(0.2, 0.2, 0.5, 0.5)],
            vec![mwsj_geom::Rect::new(0.3, 0.3, 0.6, 0.6)],
            vec![mwsj_geom::Rect::new(0.9, 0.9, 0.95, 0.95)],
            vec![mwsj_geom::Rect::new(0.8, 0.1, 0.85, 0.15)],
        ];
        let graph = QueryGraphBuilder::new(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .edge(2, 3)
            .edge(3, 4)
            .build()
            .unwrap();
        let inst = Instance::new(graph, data).unwrap();
        let sol = Solution::new(vec![0; 5]);
        let cs = inst.evaluate(&sol);
        let mut keep = KeepSet::default();
        keep.fill(inst.graph(), &cs, 3);
        assert_eq!(keep.mask, vec![true, true, true, false, false]);
    }

    #[test]
    fn keep_set_size_is_respected() {
        let inst = hard_instance(84, QueryShape::Clique, 6, 100);
        let mut rng = StdRng::seed_from_u64(85);
        let sol = inst.random_solution(&mut rng);
        let cs = inst.evaluate(&sol);
        let mut keep = KeepSet::default();
        for c in 0..=6 {
            keep.fill(inst.graph(), &cs, c);
            assert_eq!(keep.mask.iter().filter(|&&k| k).count(), c.min(6));
        }
    }

    /// The allocating body [`KeepSet::fill`] replaced, kept as its reference.
    fn greedy_keep_set_reference(graph: &QueryGraph, cs: &ConflictState, c: usize) -> Vec<bool> {
        let n = graph.n_vars();
        let c = c.min(n);
        let mut order: Vec<VarId> = (0..n).collect();
        order.sort_by_key(|&v| {
            (
                std::cmp::Reverse(cs.satisfied_of(graph, v)),
                cs.conflicts_of(v),
                v,
            )
        });
        let mut rank = vec![0usize; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v] = r;
        }

        let mut keep = vec![false; n];
        if c == 0 {
            return keep;
        }
        keep[order[0]] = true;
        for _ in 1..c {
            let mut best: Option<(u32, usize, VarId)> = None;
            for v in 0..n {
                if keep[v] {
                    continue;
                }
                let sat_to_x = graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&(u, _)| {
                        keep[u]
                            && !cs.is_edge_violated(graph.edge_index(v, u).expect("neighbor edge"))
                    })
                    .count() as u32;
                let better = match best {
                    None => true,
                    Some((bs, br, _)) => sat_to_x > bs || (sat_to_x == bs && rank[v] < br),
                };
                if better {
                    best = Some((sat_to_x, rank[v], v));
                }
            }
            keep[best.expect("n > c candidates remain").2] = true;
        }
        keep
    }

    #[test]
    fn keep_set_fill_equals_the_allocating_reference() {
        let mut rng = StdRng::seed_from_u64(90);
        let mut keep = KeepSet::default();
        let shapes = [
            QueryShape::Chain,
            QueryShape::Clique,
            QueryShape::Star,
            QueryShape::Cycle,
            QueryShape::Random,
        ];
        for (i, shape) in shapes.into_iter().cycle().take(20).enumerate() {
            // One scratch across graphs of changing size: stale lengths too.
            let n = 3 + (i * 3) % 7;
            let datasets: Vec<Dataset> = (0..n)
                .map(|_| Dataset::uniform(40, 0.4, &mut rng))
                .collect();
            let inst = Instance::new(shape.graph(n), datasets).unwrap();
            for _ in 0..50 {
                let cs = inst.evaluate(&inst.random_solution(&mut rng));
                for c in 0..=n + 1 {
                    keep.fill(inst.graph(), &cs, c);
                    let reference = greedy_keep_set_reference(inst.graph(), &cs, c);
                    assert_eq!(keep.mask, reference, "{shape:?} n={n} c={c}");
                }
            }
        }
    }

    /// One seeded search on the cache it is handed.
    fn evolve_with(
        sea: &Sea,
        inst: &Instance,
        generations: u64,
        seed: u64,
        cache: WindowCache,
        after_generation: impl FnMut(&[Individual]),
    ) -> RunOutcome {
        let ctx = SearchContext::local(SearchBudget::iterations(generations));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut driver = SearchDriver::new(inst, &ctx).with_access_profile(inst);
        sea.evolve(inst, &mut driver, &mut rng, cache, after_generation);
        driver.finish(inst, &mut rng)
    }

    #[test]
    fn memo_changes_only_whether_the_index_is_walked() {
        const GENERATIONS: u64 = 40;
        let mut saved = 0;
        let mut restarted = 0;
        for shape in [QueryShape::Chain, QueryShape::Clique, QueryShape::Star] {
            for n in [3, 5, 8] {
                for backend in [BackendKind::RTree, BackendKind::Grid] {
                    let inst = hard_instance(91 + n as u64, shape, n, 300).with_backend(backend);
                    for hybrid in [false, true] {
                        let cfg = SeaConfig {
                            stagnation_restart: 6,
                            seed_with_ils: hybrid,
                            ..SeaConfig::default_for(&inst)
                        };
                        let population = cfg.population;
                        let sea = Sea::new(cfg);
                        let plain = WindowCache::new(&inst);
                        let memo = WindowCache::for_population(&inst, population);
                        let a = evolve_with(&sea, &inst, GENERATIONS, 17, plain, |_| {});
                        let b = evolve_with(&sea, &inst, GENERATIONS, 17, memo, |_| {});
                        let what = format!("{shape:?} n={n} {backend:?} hybrid={hybrid}");
                        assert_eq!(a.best, b.best, "{what}");
                        assert_eq!(a.best_violations, b.best_violations, "{what}");
                        assert_eq!(a.top_solutions, b.top_solutions, "{what}");
                        let trace = |o: &RunOutcome| -> Vec<(u64, f64)> {
                            o.trace.iter().map(|p| (p.step, p.similarity)).collect()
                        };
                        assert_eq!(trace(&a), trace(&b), "{what}");
                        assert_eq!(a.stats.steps, b.stats.steps, "{what}");
                        assert_eq!(a.stats.improvements, b.stats.improvements, "{what}");
                        assert_eq!(a.stats.restarts, b.stats.restarts, "{what}");
                        let queries = |o: &RunOutcome| o.stats.cache.questions();
                        assert_eq!(queries(&a), queries(&b), "{what}");
                        assert!(a.stats.node_accesses >= b.stats.node_accesses, "{what}");
                        assert_eq!(
                            b.stats.access_profile.iter().flatten().sum::<u64>(),
                            b.stats.node_accesses,
                            "attribution still sums: {what}"
                        );
                        saved += a.stats.node_accesses - b.stats.node_accesses;
                        // A run whose last improvement is more than the
                        // stagnation window before its end has re-seeded.
                        let last = a.trace.last().expect("eager incumbent").step;
                        restarted +=
                            (a.stats.steps == GENERATIONS && last + 7 < GENERATIONS) as u32;
                    }
                }
            }
        }
        assert!(saved > 0, "the memo never hit");
        assert!(restarted > 0, "no run reached a stagnation restart");
    }

    #[test]
    fn individuals_stay_consistent_through_every_generation() {
        for hybrid in [false, true] {
            let inst = hard_instance(92, QueryShape::Clique, 5, 300);
            let cfg = SeaConfig {
                stagnation_restart: 6,
                seed_with_ils: hybrid,
                ..SeaConfig::default_for(&inst)
            };
            let cache = WindowCache::for_population(&inst, 64);
            let mut generations = 0;
            evolve_with(&Sea::new(cfg), &inst, 51, 18, cache, |pop| {
                generations += 1;
                pop.iter().for_each(|ind| ind.assert_consistent(&inst));
            });
            assert_eq!(generations, 50, "the 51st stops before mutating");
        }
    }

    #[test]
    fn sea_trace_is_monotone() {
        let inst = hard_instance(86, QueryShape::Chain, 6, 400);
        let mut rng = StdRng::seed_from_u64(87);
        let outcome = Sea::new(SeaConfig::default_for(&inst)).run(
            &inst,
            &SearchBudget::iterations(40),
            &mut rng,
        );
        for w in outcome.trace.windows(2) {
            assert!(w[0].similarity < w[1].similarity);
        }
    }

    #[test]
    fn ils_seeded_population_starts_better() {
        // The hybrid's first generation consists of local maxima, which are
        // far better than random solutions — its first-trace similarity
        // must (weakly) dominate across seeds.
        let inst = hard_instance(88, QueryShape::Clique, 5, 400);
        let budget = SearchBudget::iterations(1);
        let mut hybrid_first = 0.0;
        let mut random_first = 0.0;
        for seed in 0..5 {
            let cfg = SeaConfig::default_for(&inst);
            let mut rng = StdRng::seed_from_u64(seed);
            let h = Sea::new(cfg.clone().with_ils_seeding()).run(&inst, &budget, &mut rng);
            hybrid_first += h.best_similarity;
            let mut rng = StdRng::seed_from_u64(seed);
            let r = Sea::new(cfg).run(&inst, &budget, &mut rng);
            random_first += r.best_similarity;
        }
        assert!(
            hybrid_first >= random_first,
            "hybrid {hybrid_first} vs random {random_first}"
        );
    }

    #[test]
    fn ils_seeding_is_deterministic() {
        let inst = hard_instance(89, QueryShape::Chain, 4, 300);
        let cfg = SeaConfig::default_for(&inst).with_ils_seeding();
        let a = Sea::new(cfg.clone()).run(
            &inst,
            &SearchBudget::iterations(8),
            &mut StdRng::seed_from_u64(4),
        );
        let b = Sea::new(cfg).run(
            &inst,
            &SearchBudget::iterations(8),
            &mut StdRng::seed_from_u64(4),
        );
        assert_eq!(a.best, b.best);
    }

    #[test]
    #[should_panic(expected = "population must hold at least 2")]
    fn rejects_tiny_population() {
        let _ = Sea::new(SeaConfig {
            population: 1,
            tournament: 1,
            crossover_rate: 0.5,
            mutation_rate: 1.0,
            generations_per_c: 5,
            stagnation_restart: 0,
            seed_with_ils: false,
        });
    }
}
