//! Property-based tests for the core algorithms: every data structure and
//! search primitive is validated against brute force on arbitrary random
//! instances.

use mwsj_core::{
    find_best_value, BackendKind, Gils, GilsConfig, Ibb, IbbConfig, Ils, IlsConfig, Instance, Pjm,
    Portfolio, RunOutcome, Sea, SeaConfig, SearchBudget, SynchronousTraversal, WindowCache,
    WindowReduction,
};
use mwsj_geom::Rect;
use mwsj_query::{PenaltyTable, QueryGraph, QueryGraphBuilder, Solution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Brute-force minimum violations over the full cross product.
fn brute_optimum(inst: &Instance) -> usize {
    brute_violations(inst).into_iter().min().unwrap()
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
        let mut memo = WindowCache::with_memo(&inst, 4);
        let mut table = PenaltyTable::new();
        const QUERIES: u64 = 80;
        for round in 0..QUERIES {
            let i = rng.random_range(0..pop.len());
            if round % 3 == 0 {
                pop[i] = pop[rng.random_range(0..pop.len())].clone();
            }
            let var = rng.random_range(0..inst.n_vars());
            let penalties = (round % 4 == 3).then_some((&table, 0.3));
            let fresh = find_best_value(&inst, &pop[i], var, penalties, &mut 0);
            let (mut plain_acc, mut memo_acc) = (0u64, 0u64);
            prop_assert_eq!(plain.find_best_value(&inst, &pop[i], var, penalties, &mut plain_acc), fresh);
            prop_assert_eq!(memo.find_best_value(&inst, &pop[i], var, penalties, &mut memo_acc), fresh);
            if let Some(best) = fresh {
                prop_assert_eq!(best.rect, inst.rect(var, best.object));
            }
            prop_assert!(memo_acc <= plain_acc, "a memo may only save node accesses");
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

    /// Exhaustive IBB equals the brute-force optimum on every instance.
    #[test]
    fn ibb_is_globally_optimal((inst, _) in arb_instance()) {
        let config = IbbConfig { initial: None, stop_at_exact: false };
        let outcome = Ibb::new(config).run(&inst, &SearchBudget::seconds(120.0));
        prop_assert!(outcome.proven_optimal);
        prop_assert_eq!(outcome.best_violations, brute_optimum(&inst));
        // And the returned solution really evaluates to that.
        prop_assert_eq!(inst.violations(&outcome.best), outcome.best_violations);
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
    /// decreases, and steps/elapsed never go backwards. Resampling via
    /// `best_similarity_at` agrees with the raw trace at its endpoints.
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
            let last = outcome.trace.last().unwrap();
            prop_assert_eq!(
                outcome.best_similarity_at(last.elapsed),
                outcome.best_similarity
            );
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
                profile.total(),
                outcome.stats.node_accesses,
                "{}: attributed {:?} vs counter {}",
                algo,
                &profile.per_var,
                outcome.stats.node_accesses
            );
            // Row shape: one row per variable, one slot per tree level.
            prop_assert_eq!(profile.per_var.len(), inst.n_vars());
            for (var, levels) in profile.per_var.iter().enumerate() {
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
