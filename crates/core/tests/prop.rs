//! Property-based tests for the core algorithms: every data structure and
//! search primitive is validated against brute force on arbitrary random
//! instances.

use mwsj_core::{
    find_best_value, BackendKind, Gils, GilsConfig, Ibb, IbbConfig, Ils, IlsConfig, Instance, Pjm,
    Portfolio, RunOutcome, Sea, SeaConfig, SearchBudget, SynchronousTraversal, WindowCache,
    WindowReduction,
};
use mwsj_geom::{Predicate, Rect};
use mwsj_query::{PenaltyTable, QueryGraph, QueryGraphBuilder, Solution};
use mwsj_rtree::{grid, multiwindow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// An arbitrary small instance: 3–4 variables, 5–12 objects each, random
/// connected overlap query (kept tiny so the brute-force cross product
/// stays cheap even in debug builds).
fn arb_instance() -> impl Strategy<Value = (Instance, u64)> {
    (3usize..=4, 5usize..=12, 0.0f64..=1.0, any::<u64>()).prop_map(
        |(n, cardinality, extra_edges, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = QueryGraph::random_connected(n, extra_edges, &mut rng);
            let datasets: Vec<Vec<Rect>> = (0..n)
                .map(|_| {
                    (0..cardinality)
                        .map(|_| {
                            use rand::RngExt;
                            let x: f64 = rng.random_range(0.0..1.0);
                            let y: f64 = rng.random_range(0.0..1.0);
                            let w: f64 = rng.random_range(0.0..0.3);
                            let h: f64 = rng.random_range(0.0..0.3);
                            Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0))
                        })
                        .collect()
                })
                .collect();
            (Instance::new(graph, datasets).unwrap(), seed)
        },
    )
}

/// An instance whose objects tie: 3–5 variables of 40–160 objects, each a
/// copy of one of 3–80 rectangles, so that copies tie on every count and
/// only their penalties tell them apart — more objects than a node of 32
/// holds, so that the R*-tree has two levels to rank.
fn arb_tied_instance() -> impl Strategy<Value = (Instance, u64)> {
    let shape = (3usize..=5, 40usize..=160, 3usize..=80, 0.0f64..=1.0);
    (shape, any::<u64>()).prop_map(|((n, cardinality, distinct, extra_edges), seed)| {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = QueryGraph::random_connected(n, extra_edges, &mut rng);
        let datasets: Vec<Vec<Rect>> = (0..n)
            .map(|_| {
                let pool: Vec<Rect> = (0..distinct)
                    .map(|_| {
                        let (x, y): (f64, f64) =
                            (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                        let (w, h): (f64, f64) =
                            (rng.random_range(0.0..0.3), rng.random_range(0.0..0.3));
                        Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0))
                    })
                    .collect();
                (0..cardinality)
                    .map(|_| pool[rng.random_range(0..distinct)])
                    .collect()
            })
            .collect();
        (Instance::new(graph, datasets).unwrap(), seed)
    })
}

/// `var`'s windows under `sol`, one per neighbour.
fn windows_of(inst: &Instance, sol: &Solution, var: usize) -> Vec<(Predicate, Rect)> {
    let neighbors = inst.graph().neighbors(var).iter();
    neighbors
        .map(|&(u, pred)| (pred, inst.rect(u, sol.get(u))))
        .collect()
}

/// The penalised question asked of the backend's best-entry kernel
/// directly: `(object, rect, satisfied, effective bits)`.
fn penalised_kernel(
    inst: &Instance,
    sol: &Solution,
    var: usize,
    table: &PenaltyTable,
    lambda: f64,
) -> Option<(usize, Rect, u32, u64)> {
    let windows = windows_of(inst, sol, var);
    let score =
        |&object: &u32, count: u32| count as f64 - lambda * table.get(var, object as usize) as f64;
    let best = match inst.backend() {
        BackendKind::RTree => multiwindow::find_best_leaf_leveled(
            inst.tree(var).root_node(),
            &windows,
            score,
            &mut 0,
            &mut [],
        ),
        BackendKind::Grid => {
            grid::best_in_windows(inst.grid(var), &windows, score, &mut 0, &mut [])
        }
    };
    best.map(|b| (b.value as usize, b.rect, b.satisfied, b.score.to_bits()))
}

/// Cases of `gils_re_scores_exactly` so far; of them, those whose λ = 4
/// runs widened a list, and those that re-scored a list of two or more.
static TIED_CASES: AtomicU64 = AtomicU64::new(0);
static WIDENED_AT_4: AtomicU64 = AtomicU64::new(0);
static RESCORED_TIES: AtomicU64 = AtomicU64::new(0);

/// Brute-force minimum violations over the full cross product.
fn brute_optimum(inst: &Instance) -> usize {
    brute_violations(inst).into_iter().min().unwrap()
}

/// The assignment at position `index` of [`brute_violations`]'s odometer
/// order (variable 0 turns fastest).
fn odometer_solution(inst: &Instance, mut index: usize) -> Solution {
    let digits = (0..inst.n_vars()).map(|k| {
        let digit = index % inst.cardinality(k);
        index /= inst.cardinality(k);
        digit
    });
    Solution::new(digits.collect())
}

/// The violation count of every assignment of the full cross product.
fn brute_violations(inst: &Instance) -> Vec<usize> {
    let n = inst.n_vars();
    let mut assignment = vec![0usize; n];
    let mut all = Vec::new();
    loop {
        all.push(inst.violations(&Solution::new(assignment.clone())));
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == n {
                return all;
            }
            assignment[k] += 1;
            if assignment[k] < inst.cardinality(k) {
                break;
            }
            assignment[k] = 0;
            k += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `find_best_value` returns a value tying the brute-force maximum
    /// satisfied-count for every variable of every random instance.
    #[test]
    fn find_best_value_matches_brute_force((inst, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let sol = inst.random_solution(&mut rng);
        for var in 0..inst.n_vars() {
            let mut acc = 0u64;
            let fast = find_best_value(&inst, &sol, var, None, &mut acc);
            // Brute force.
            let graph = inst.graph();
            let windows: Vec<_> = graph
                .neighbors(var)
                .iter()
                .map(|&(u, pred)| (pred, inst.rect(u, sol.get(u))))
                .collect();
            let slow_best = (0..inst.cardinality(var))
                .map(|obj| {
                    let r = inst.rect(var, obj);
                    windows.iter().filter(|(p, w)| p.eval(&r, w)).count() as u32
                })
                .max()
                .unwrap_or(0);
            match fast {
                Some(bv) => prop_assert_eq!(bv.satisfied, slow_best),
                None => prop_assert_eq!(slow_best, 0),
            }
        }
    }

    /// The multi-window traversal kernel returns the same `BestValue` as a
    /// straightforward exhaustive scan over the dataset, in raw and in
    /// λ-penalised mode. Scores must always agree; the winning object is
    /// pinned only when the argmax is unique (ties may break either way).
    #[test]
    fn kernel_matches_exhaustive_scan((inst, seed) in arb_instance()) {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD00F);
        let mut table = PenaltyTable::new();
        for _ in 0..40 {
            let var = rng.random_range(0..inst.n_vars());
            table.penalize(var, rng.random_range(0..inst.cardinality(var)));
        }
        // A binary fraction keeps every score exact in f64, so equality
        // comparisons below need no epsilon.
        let lambda = 0.25;
        let sol = inst.random_solution(&mut rng);
        for var in 0..inst.n_vars() {
            let windows: Vec<_> = inst
                .graph()
                .neighbors(var)
                .iter()
                .map(|&(u, pred)| (pred, inst.rect(u, sol.get(u))))
                .collect();
            for penalties in [None, Some((&table, lambda))] {
                let mut acc = 0u64;
                let fast = find_best_value(&inst, &sol, var, penalties, &mut acc);
                // Exhaustive scan: first strict maximum, counting ties.
                let mut best: Option<(usize, u32, f64)> = None;
                let mut ties = 0usize;
                for obj in 0..inst.cardinality(var) {
                    let r = inst.rect(var, obj);
                    let count = windows.iter().filter(|(p, w)| p.eval(&r, w)).count() as u32;
                    if count == 0 {
                        continue;
                    }
                    let eff = match penalties {
                        Some((t, l)) => count as f64 - l * t.get(var, obj) as f64,
                        None => count as f64,
                    };
                    match best {
                        None => { best = Some((obj, count, eff)); ties = 1; }
                        Some((_, _, b)) if eff > b => { best = Some((obj, count, eff)); ties = 1; }
                        Some((_, _, b)) if eff == b => ties += 1,
                        _ => {}
                    }
                }
                match (fast, best) {
                    (None, None) => {}
                    (Some(f), Some((obj, count, eff))) => {
                        prop_assert_eq!(f.effective, eff, "var {}: score mismatch", var);
                        if ties == 1 {
                            prop_assert_eq!(f.object, obj);
                            prop_assert_eq!(f.satisfied, count);
                        }
                    }
                    (f, s) => prop_assert!(false, "kernel {:?} vs scan {:?}", f, s),
                }
            }
        }
    }

    /// `WindowCache` is transparent: across an arbitrary mutation sequence
    /// it returns exactly what a fresh `find_best_value` returns — the
    /// rectangle it re-attaches to a remembered answer included — while
    /// never visiting more nodes.
    #[test]
    fn window_cache_is_transparent((inst, seed) in arb_instance()) {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE5);
        let mut sol = inst.random_solution(&mut rng);
        let mut cache = WindowCache::new(&inst);
        let mut cached_acc = 0u64;
        let mut fresh_acc = 0u64;
        for _ in 0..30 {
            let var = rng.random_range(0..inst.n_vars());
            let cached = cache.find_best_value(&inst, &sol, var, None, &mut cached_acc);
            let fresh = find_best_value(&inst, &sol, var, None, &mut fresh_acc);
            prop_assert_eq!(cached, fresh);
            if let Some(best) = cached {
                prop_assert_eq!(best.rect, inst.rect(var, best.object));
            }
            let v = rng.random_range(0..inst.n_vars());
            sol.set(v, rng.random_range(0..inst.cardinality(v)));
        }
        prop_assert!(cached_acc <= fresh_acc, "cache may only save node accesses");

        // The neighbourhood memo, driven the way a population drives it:
        // several solutions interleaved, copied over one another, each
        // mutated between its queries, raw and λ-penalised questions mixed
        // with penalties landing mid-stream — and a table of 4 slots, so
        // questions evict each other all the time.
        let mut pop: Vec<Solution> = (0..4).map(|_| inst.random_solution(&mut rng)).collect();
        let mut plain = WindowCache::new(&inst);
        let mut memo = WindowCache::for_population(&inst, 1);
        let mut table = PenaltyTable::new();
        const QUERIES: u64 = 80;
        for round in 0..QUERIES {
            let i = rng.random_range(0..pop.len());
            if round % 3 == 0 {
                pop[i] = pop[rng.random_range(0..pop.len())].clone();
            }
            let var = rng.random_range(0..inst.n_vars());
            let penalties = (round % 4 == 3).then_some((&table, 0.3));
            let mut fresh_acc = 0u64;
            let fresh = find_best_value(&inst, &pop[i], var, penalties, &mut fresh_acc);
            let (mut plain_acc, mut memo_acc) = (0u64, 0u64);
            prop_assert_eq!(plain.find_best_value(&inst, &pop[i], var, penalties, &mut plain_acc), fresh);
            prop_assert_eq!(memo.find_best_value(&inst, &pop[i], var, penalties, &mut memo_acc), fresh);
            if let Some(best) = fresh {
                prop_assert_eq!(best.rect, inst.rect(var, best.object));
            }
            if penalties.is_none() {
                prop_assert!(memo_acc <= plain_acc, "a memo may only save node accesses");
            } else {
                // A penalised question is a tie list re-scored, or walked
                // first: a memo hit can leave the memo cache without the
                // list that the plain cache re-scores, so neither cache
                // bounds the other — but neither walks more than the
                // uncached question, which walks the list in full.
                prop_assert!(plain_acc <= fresh_acc && memo_acc <= fresh_acc);
            }
            if round % 7 == 6 {
                table.penalize_local_maximum(&pop[i]);
            }
            if round % 2 == 0 {
                let v = rng.random_range(0..inst.n_vars());
                pop[i].set(v, rng.random_range(0..inst.cardinality(v)));
            }
        }
        for stats in [plain.stats(), memo.stats()] {
            prop_assert_eq!(stats.hits() + stats.misses(), QUERIES, "every query classified");
        }
        prop_assert!(memo.stats().hits() >= plain.stats().hits());
    }

    /// GILS's re-scored answers are the kernel's. A `WindowCache` is driven
    /// as GILS drives it — every variable asked, the local maximum
    /// punished, every variable asked again, now and then a variable moved
    /// — on both backends and at λ ∈ {0, paper λ, 0.25, 1, 4}, and every
    /// answer is bit-equal in object, rectangle, count and effective value
    /// to the penalised kernel called directly. A re-query after a
    /// punishment, its windows unchanged, walks nothing, but for the one
    /// walk that widens its list. The checks are not vacuous: the λ = 4
    /// runs widen lists, and most cases re-score a tie of two or more.
    #[test]
    fn gils_re_scores_exactly((rtree, seed) in arb_tied_instance()) {
        use rand::RngExt;
        let paper = GilsConfig::paper_lambda(rtree.problem_size_bits());
        let grid = rtree.clone().with_backend(BackendKind::Grid);
        let (mut widened_at_4, mut rescored_ties) = (false, false);
        for inst in [&rtree, &grid] {
            for lambda in [0.0, paper, 0.25, 1.0, 4.0] {
                let what = format!("{}, λ = {lambda}", inst.backend().name());
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6115);
                let mut sol = inst.random_solution(&mut rng);
                let mut cache = WindowCache::new(inst);
                let mut table = PenaltyTable::new();
                // Per variable: its list widened since it was last built.
                let mut widened = vec![false; inst.n_vars()];
                let mut moves = Vec::new();
                for round in 0..16 {
                    for requery in [false, true] {
                        for var in 0..inst.n_vars() {
                            let before = cache.stats().per_var[var];
                            let mut acc = 0;
                            let got = cache.find_best_value(inst, &sol, var, Some((&table, lambda)), &mut acc);
                            let got = got.map(|b| (b.object, b.rect, b.satisfied, b.effective.to_bits()));
                            let want = penalised_kernel(inst, &sol, var, &table, lambda);
                            prop_assert_eq!(got, want, "{}: round {}, var {}", what, round, var);
                            let after = cache.stats().per_var[var];
                            let hit = after.hits > before.hits;
                            prop_assert!(!hit || acc == 0, "{}: a hit walked", what);
                            if !requery {
                                widened[var] &= hit;
                                continue;
                            }
                            let widening = after.invalidations_penalty > before.invalidations_penalty;
                            prop_assert!(hit || (widening && !widened[var]), "{}: var {} walked", what, var);
                            widened[var] |= widening;
                            widened_at_4 |= widening && lambda == 4.0;
                            let counts = (0..inst.cardinality(var)).map(|o| {
                                let r = inst.rect(var, o);
                                windows_of(inst, &sol, var).iter().filter(|(p, w)| p.eval(&r, w)).count()
                            });
                            let counts: Vec<usize> = counts.collect();
                            let top = counts.iter().copied().max().unwrap_or(0);
                            let tied = counts.iter().filter(|&&c| c == top).count();
                            rescored_ties |= hit && top > 0 && tied >= 2;
                            // GILS's move test: does the answer beat `var`'s own value?
                            let own = counts[sol.get(var)] as f64 - lambda * table.get(var, sol.get(var)) as f64;
                            let better = got.filter(|b| b.0 != sol.get(var) && f64::from_bits(b.3) > own);
                            moves.extend(better.map(|b| (var, b.0)));
                        }
                        if !requery {
                            table.penalize_local_maximum(&sol);
                        }
                    }
                    // The first variable that improves moves, as GILS's climb
                    // does; at a maximum, one moves anywhere, as a reseed.
                    let v = rng.random_range(0..inst.n_vars());
                    let anywhere = (v, rng.random_range(0..inst.cardinality(v)));
                    let (v, object) = moves.first().copied().unwrap_or(anywhere);
                    sol.set(v, object);
                    moves.clear();
                }
            }
        }
        let cases = TIED_CASES.fetch_add(1, Ordering::Relaxed) + 1;
        let widened = WIDENED_AT_4.fetch_add(widened_at_4 as u64, Ordering::Relaxed) + widened_at_4 as u64;
        let ties = RESCORED_TIES.fetch_add(rescored_ties as u64, Ordering::Relaxed) + rescored_ties as u64;
        prop_assert!(cases < 16 || 3 * widened >= cases, "{} of {} cases widened at λ = 4", widened, cases);
        prop_assert!(cases < 16 || 2 * ties >= cases, "{} of {} cases re-scored a tie", ties, cases);
    }

    /// Exhaustive IBB equals the brute-force optimum on every instance, on
    /// a drawn backend, unseeded and seeded: with a random solution, and
    /// with one violation more than the optimum, where the count the
    /// candidate walks ask for is highest.
    #[test]
    fn ibb_is_globally_optimal((inst, seed) in arb_instance(), grid in any::<bool>()) {
        let inst = if grid { inst.with_backend(BackendKind::Grid) } else { inst };
        let violations = brute_violations(&inst);
        let optimum = *violations.iter().min().unwrap();
        let random = inst.random_solution(&mut StdRng::seed_from_u64(seed ^ 0x1BB));
        let next = violations.iter().position(|&v| v == optimum + 1);
        for initial in [None, Some(random), next.map(|i| odometer_solution(&inst, i))] {
            let config = IbbConfig { initial, stop_at_exact: false };
            let outcome = Ibb::new(config).run(&inst, &SearchBudget::seconds(120.0));
            prop_assert!(outcome.proven_optimal);
            prop_assert_eq!(outcome.best_violations, optimum);
            // And the returned solution really evaluates to that.
            prop_assert_eq!(inst.violations(&outcome.best), outcome.best_violations);
        }
    }

    /// WR enumerates exactly the zero-violation assignments.
    #[test]
    fn wr_is_exact_and_complete((inst, _) in arb_instance()) {
        let outcome = WindowReduction::new().run(&inst, &SearchBudget::seconds(120.0), usize::MAX);
        prop_assert!(outcome.complete);
        let mut found: Vec<_> = outcome.solutions.clone();
        found.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        // Brute-force enumeration.
        let n = inst.n_vars();
        let mut assignment = vec![0usize; n];
        let mut expected = Vec::new();
        'outer: loop {
            let sol = Solution::new(assignment.clone());
            if inst.violations(&sol) == 0 {
                expected.push(sol);
            }
            let mut k = 0;
            loop {
                if k == n {
                    break 'outer;
                }
                assignment[k] += 1;
                if assignment[k] < inst.cardinality(k) {
                    break;
                }
                assignment[k] = 0;
                k += 1;
            }
        }
        expected.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        prop_assert_eq!(found, expected);
    }

    /// ILS never reports a better result than the global optimum, and its
    /// reported violations always match re-evaluation.
    #[test]
    fn ils_respects_the_optimum((inst, seed) in arb_instance()) {
        let optimum = brute_optimum(&inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let outcome = Ils::new(IlsConfig::default())
            .run(&inst, &SearchBudget::iterations(300), &mut rng);
        prop_assert!(outcome.best_violations >= optimum);
        prop_assert_eq!(inst.violations(&outcome.best), outcome.best_violations);
    }

    /// The three exact baselines (window reduction, synchronous traversal,
    /// pairwise join method) enumerate identical solution sets, of the
    /// brute-force size, on every random instance — and on the same data
    /// under a disconnected query (one edge, every other variable isolated:
    /// the cross product with their datasets), on both backends.
    #[test]
    fn exact_baselines_agree((inst, _) in arb_instance()) {
        let budget = SearchBudget::seconds(120.0);
        let datasets = (0..inst.n_vars()).map(|v| inst.scan(v).map(|(_, r)| r).collect::<Vec<Rect>>());
        let one_edge = QueryGraphBuilder::new(inst.n_vars()).edge(0, 1).build().unwrap();
        let disconnected = Instance::new(one_edge, datasets).unwrap();
        let on_grid = disconnected.clone().with_backend(BackendKind::Grid);
        for (row, inst) in [("connected", inst), ("disconnected", disconnected), ("disconnected, grid", on_grid)] {
            let sets: Vec<Vec<Solution>> = [
                WindowReduction::new().run(&inst, &budget, usize::MAX),
                SynchronousTraversal::new().run(&inst, &budget, usize::MAX),
                Pjm::default().run(&inst, &budget, usize::MAX),
            ]
            .into_iter()
            .map(|outcome| {
                prop_assert!(outcome.complete, "{}", row);
                let mut sols = outcome.solutions;
                sols.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
                Ok(sols)
            })
            .collect::<Result<_, _>>()?;
            prop_assert_eq!(&sets[0], &sets[1], "{}", row);
            prop_assert_eq!(&sets[0], &sets[2], "{}", row);
            let exact = brute_violations(&inst).into_iter().filter(|&v| v == 0).count();
            prop_assert_eq!(sets[0].len(), exact, "{}", row);

            // Under a limit each returns that many members of the set (which
            // ones is the algorithm's enumeration order), none for `limit = 0`.
            for limit in 0..=2 {
                for (name, outcome) in [
                    ("wr", WindowReduction::new().run(&inst, &budget, limit)),
                    ("st", SynchronousTraversal::new().run(&inst, &budget, limit)),
                    ("pjm", Pjm::default().run(&inst, &budget, limit)),
                ] {
                    prop_assert_eq!(outcome.solutions.len(), limit.min(sets[0].len()), "{}: {} limit {}", row, name, limit);
                    prop_assert!(outcome.solutions.iter().all(|s| sets[0].contains(s)), "{}: {} limit {}", row, name, limit);
                    prop_assert!(outcome.complete || limit <= sets[0].len(), "{}: {} limit {}", row, name, limit);
                }
            }
        }
    }

    /// Heuristic convergence traces are monotone: similarity never
    /// decreases, steps/elapsed never go backwards, and the trace ends at
    /// the best similarity.
    #[test]
    fn heuristic_traces_are_monotone((inst, seed) in arb_instance()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        for outcome in [
            Ils::new(IlsConfig::default()).run(&inst, &SearchBudget::iterations(250), &mut rng),
            mwsj_core::Gils::default().run(&inst, &SearchBudget::iterations(250), &mut rng),
        ] {
            prop_assert!(!outcome.trace.is_empty());
            for w in outcome.trace.windows(2) {
                prop_assert!(w[1].similarity >= w[0].similarity);
                prop_assert!(w[1].step >= w[0].step);
                prop_assert!(w[1].elapsed >= w[0].elapsed);
            }
            prop_assert_eq!(outcome.trace.last().unwrap().similarity, outcome.best_similarity);
        }
    }

    /// The portfolio respects the optimum on arbitrary instances, not
    /// just handcrafted ones, and its best is a real solution.
    #[test]
    fn portfolio_respects_the_optimum((inst, seed) in arb_instance()) {
        let optimum = brute_optimum(&inst);
        let outcome = Portfolio::new(Ils::new(IlsConfig::default()), 3)
            .run(&inst, &SearchBudget::iterations(200), seed);
        prop_assert!(outcome.merged.best_violations >= optimum);
        prop_assert_eq!(inst.violations(&outcome.merged.best), outcome.merged.best_violations);
    }

    /// Satellite invariant (DESIGN.md §5i): the per-variable × per-level
    /// node-access attribution of every window-query algorithm sums
    /// **bit-exactly** to the shared access counter — with penalties
    /// (GILS) and without (ILS/SEA/IBB).
    #[test]
    fn access_attribution_sums_to_counter((inst, seed) in arb_instance()) {
        let check = |outcome: &RunOutcome, algo: &str| {
            let profile = &outcome.stats.access_profile;
            prop_assert_eq!(
                profile.iter().flatten().sum::<u64>(),
                outcome.stats.node_accesses,
                "{}: attributed {:?} vs counter {}",
                algo,
                profile,
                outcome.stats.node_accesses
            );
            // Row shape: one row per variable, one slot per tree level.
            prop_assert_eq!(profile.len(), inst.n_vars());
            for (var, levels) in profile.iter().enumerate() {
                prop_assert_eq!(levels.len(), inst.tree(var).height() as usize);
            }
            Ok(())
        };
        let budget = SearchBudget::iterations(150);
        let ils = Ils::new(IlsConfig::default())
            .run(&inst, &budget, &mut StdRng::seed_from_u64(seed ^ 0xA11));
        check(&ils, "ILS")?;
        let gils = Gils::new(GilsConfig::default())
            .run(&inst, &budget, &mut StdRng::seed_from_u64(seed ^ 0xA12));
        check(&gils, "GILS")?;
        let sea = Sea::new(SeaConfig::default())
            .run(&inst, &budget, &mut StdRng::seed_from_u64(seed ^ 0xA13));
        check(&sea, "SEA")?;
        let ibb = Ibb::new(IbbConfig { initial: None, stop_at_exact: false })
            .run(&inst, &SearchBudget::seconds(120.0));
        check(&ibb, "IBB")?;
    }
}
