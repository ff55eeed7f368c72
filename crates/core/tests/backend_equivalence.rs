//! Cross-backend equivalence and determinism tests.
//!
//! The uniform-grid backend must be observationally indistinguishable from
//! the R*-tree backend everywhere results (rather than access counters)
//! are concerned: `find_best_value` scores bit-equal with and without
//! penalties, exact joins return identical solution sets, and the anytime
//! heuristics reach the same quality on pinned planted workloads. On top
//! of that the grid's intra-query parallelism must be invisible: 1 thread
//! and 4 threads produce bit-identical results *and* counters.
//!
//! The generated datasets deliberately include duplicate-coordinate
//! rectangles, a large boundary-straddling rectangle (replicated into
//! every grid cell), and a degenerate point rectangle pinned to the grid
//! centre (landing exactly on cell boundaries), so the replication +
//! reference-point-dedup machinery is exercised, not just the happy path.

use mwsj_core::{
    find_best_value, BackendKind, Gils, GilsConfig, Ils, IlsConfig, Instance, Pjm, SearchBudget,
    SynchronousTraversal, WindowReduction,
};
use mwsj_datagen::{Distribution, QueryShape, WorkloadSpec};
use mwsj_geom::Rect;
use mwsj_query::{PenaltyTable, QueryGraph, Solution};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Clones an instance onto the grid backend with the given thread count.
/// The clone shares the datasets (and their R*-trees) with the original,
/// mirroring how the CLI and the bench A/B records switch backends.
fn grid_clone(inst: &Instance, threads: usize) -> Instance {
    inst.clone()
        .with_backend(BackendKind::Grid)
        .with_grid_threads(threads)
}

/// An arbitrary instance big enough that the uniform grid has several
/// cells (cardinality ≥ 24 ⇒ at least a 2×2 grid at the default target
/// occupancy of 16), with adversarial rects mixed in:
///
/// * objects 0 and 1 share identical coordinates (duplicate rects),
/// * object 2 spans nearly the whole space (straddles every cell
///   boundary, so it is replicated into every cell — and makes every
///   cell's sweep bound the whole space, so every cell is swept whole),
/// * object 3 is a degenerate point at (0.5, 0.5) — in a 2×2 grid over
///   this data that lands exactly on the shared cell corner.
///
/// Every other draw is **clustered** instead: eight times the objects,
/// small, packed around three centres and without the space-spanning
/// object 2, so single cells hold a hundred entries of which a window
/// reaches a few — the in-cell sweep's binary search at work.
fn arb_backend_instance() -> impl Strategy<Value = (Instance, u64)> {
    (
        3usize..=4,
        24usize..=40,
        0.0f64..=1.0,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(n, cardinality, extra_edges, seed, clustered)| {
            use rand::RngExt;
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = QueryGraph::random_connected(n, extra_edges, &mut rng);
            // (objects, their centres, spread around a centre, largest extent)
            let (count, centres, spread, extent) = if clustered {
                let centre = |_| (rng.random_range(0.1..0.9), rng.random_range(0.1..0.9));
                (8 * cardinality, std::array::from_fn(centre), 0.04, 0.008)
            } else {
                (cardinality, [(0.0, 0.0); 3], 1.0, 0.12)
            };
            let datasets: Vec<Vec<Rect>> = (0..n)
                .map(|_| {
                    let mut rects: Vec<Rect> = (0..count)
                        .map(|i| {
                            let (cx, cy) = centres[i % 3];
                            let x: f64 = cx + rng.random_range(0.0..spread);
                            let y: f64 = cy + rng.random_range(0.0..spread);
                            let w: f64 = rng.random_range(0.0..extent);
                            let h: f64 = rng.random_range(0.0..extent);
                            Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0))
                        })
                        .collect();
                    rects[1] = rects[0];
                    if !clustered {
                        rects[2] = Rect::new(0.02, 0.02, 0.98, 0.98);
                    }
                    rects[3] = Rect::new(0.5, 0.5, 0.5, 0.5);
                    rects
                })
                .collect();
            (Instance::new(graph, datasets).unwrap(), seed)
        })
}

/// Sorts an exact join's solution list for order-insensitive comparison
/// (the two backends enumerate in different — but each deterministic —
/// orders).
fn sorted(solutions: &[Solution]) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = solutions.iter().map(|s| s.as_slice().to_vec()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `find_best_value` is backend-invariant: for every variable, with
    /// and without penalties, the grid backend (at 1 and at 4 threads)
    /// returns the same feasibility verdict and a bit-equal best score as
    /// the R*-tree backend. The winning *object* may differ only when the
    /// score ties (R*-tree keeps the first visited, the grid keeps the
    /// canonical (cell, object) minimum), so objects are not compared here;
    /// each backend's rectangle must be its own winner's.
    #[test]
    fn find_best_value_is_backend_invariant((inst, seed) in arb_backend_instance()) {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0E);
        let mut table = PenaltyTable::new();
        for _ in 0..30 {
            let var = rng.random_range(0..inst.n_vars());
            table.penalize(var, rng.random_range(0..inst.cardinality(var)));
        }
        let sol = inst.random_solution(&mut rng);
        for threads in [1usize, 4] {
            let grid = grid_clone(&inst, threads);
            for var in 0..inst.n_vars() {
                // λ = 0.25 is a binary fraction: scores stay exact in f64.
                for penalties in [None, Some((&table, 0.25))] {
                    let mut acc_r = 0u64;
                    let mut acc_g = 0u64;
                    let r = find_best_value(&inst, &sol, var, penalties, &mut acc_r);
                    let g = find_best_value(&grid, &sol, var, penalties, &mut acc_g);
                    match (r, g) {
                        (None, None) => {}
                        (Some(r), Some(g)) => {
                            prop_assert_eq!(
                                r.effective, g.effective,
                                "var {} threads {}: score mismatch", var, threads
                            );
                            if penalties.is_none() {
                                // Unpenalised, the score *is* the count.
                                prop_assert_eq!(r.satisfied, g.satisfied);
                            }
                            prop_assert_eq!(r.rect, inst.rect(var, r.object));
                            prop_assert_eq!(g.rect, inst.rect(var, g.object));
                        }
                        (r, g) => prop_assert!(false, "rtree {:?} vs grid {:?}", r, g),
                    }
                }
            }
        }
    }

    /// WR, ST and PJM return identical solution *sets* on both backends,
    /// and on the grid backend 1 thread vs 4 threads is bit-identical:
    /// same solutions in the same order, same node-access counters.
    #[test]
    fn exact_joins_are_backend_invariant((inst, _) in arb_backend_instance()) {
        let budget = SearchBudget::seconds(120.0);
        let grid1 = grid_clone(&inst, 1);
        let grid4 = grid_clone(&inst, 4);

        type JoinFn = fn(&Instance, &SearchBudget) -> mwsj_core::ExactJoinOutcome;
        let runs: [(&str, JoinFn); 3] = [
            ("wr", |i, b| WindowReduction::new().run(i, b, usize::MAX)),
            ("st", |i, b| SynchronousTraversal::new().run(i, b, usize::MAX)),
            ("pjm", |i, b| Pjm::default().run(i, b, usize::MAX)),
        ];
        for (name, run) in runs {
            let r = run(&inst, &budget);
            let g1 = run(&grid1, &budget);
            let g4 = run(&grid4, &budget);
            prop_assert!(r.complete && g1.complete && g4.complete, "{name} truncated");
            prop_assert_eq!(
                sorted(&r.solutions), sorted(&g1.solutions),
                "{} solution sets differ between backends", name
            );
            // Thread-count invariance is *bit*-identical: order and
            // counters included, per the determinism contract.
            prop_assert_eq!(
                &g1.solutions, &g4.solutions,
                "{} grid solutions differ across thread counts", name
            );
            prop_assert_eq!(
                g1.stats.node_accesses, g4.stats.node_accesses,
                "{} grid node accesses differ across thread counts", name
            );
            prop_assert_eq!(g1.stats.steps, g4.stats.steps);
        }
    }
}

/// On pinned planted workloads both backends drive ILS and GILS to the
/// same quality: equal violation counts and bit-equal similarity. (The
/// search trajectories may differ on score ties, so solutions themselves
/// are not compared — quality is the contract, and on these planted
/// instances both backends reach the exact optimum.)
#[test]
fn heuristics_reach_equal_quality_on_both_backends() {
    let cases = [
        (QueryShape::Chain, 4, 600, 7u64),
        (QueryShape::Clique, 4, 400, 11u64),
    ];
    for (shape, n_vars, cardinality, seed) in cases {
        let w = WorkloadSpec {
            shape,
            n_vars,
            cardinality,
            target_solutions: 1.0,
            plant: true,
            distribution: Distribution::Uniform,
            seed,
        }
        .generate();
        let inst = Instance::new(w.graph, w.datasets).unwrap();
        let grid = grid_clone(&inst, 2);
        let budget = SearchBudget::iterations(3_000);

        let ils_r =
            Ils::new(IlsConfig::default()).run(&inst, &budget, &mut StdRng::seed_from_u64(seed));
        let ils_g =
            Ils::new(IlsConfig::default()).run(&grid, &budget, &mut StdRng::seed_from_u64(seed));
        assert_eq!(
            ils_r.best_violations, ils_g.best_violations,
            "ILS {shape:?}"
        );
        assert_eq!(
            ils_r.best_similarity, ils_g.best_similarity,
            "ILS {shape:?}"
        );

        let gils_r = Gils::new(GilsConfig::default()).run(
            &inst,
            &budget,
            &mut StdRng::seed_from_u64(seed ^ 1),
        );
        let gils_g = Gils::new(GilsConfig::default()).run(
            &grid,
            &budget,
            &mut StdRng::seed_from_u64(seed ^ 1),
        );
        assert_eq!(
            gils_r.best_violations, gils_g.best_violations,
            "GILS {shape:?}"
        );
        assert_eq!(
            gils_r.best_similarity, gils_g.best_similarity,
            "GILS {shape:?}"
        );
    }
}

/// A grid-backend heuristic run is bit-identical across thread counts:
/// same best solution, same counters. The parallel fan-out inside the
/// grid kernels merges deterministically, so the thread count must be
/// unobservable end to end.
#[test]
fn grid_solve_is_thread_count_invariant() {
    let w = WorkloadSpec {
        shape: QueryShape::Chain,
        n_vars: 5,
        cardinality: 500,
        target_solutions: 1.0,
        plant: true,
        distribution: Distribution::ZipfClustered {
            clusters: 8,
            sigma: 0.02,
            exponent: 1.1,
        },
        seed: 42,
    }
    .generate();
    let inst = Instance::new(w.graph, w.datasets).unwrap();
    let budget = SearchBudget::iterations(2_000);
    let g1 = Ils::new(IlsConfig::default()).run(
        &grid_clone(&inst, 1),
        &budget,
        &mut StdRng::seed_from_u64(9),
    );
    let g4 = Ils::new(IlsConfig::default()).run(
        &grid_clone(&inst, 4),
        &budget,
        &mut StdRng::seed_from_u64(9),
    );
    assert_eq!(g1.best.as_slice(), g4.best.as_slice());
    assert_eq!(g1.best_violations, g4.best_violations);
    assert_eq!(g1.best_similarity, g4.best_similarity);
    assert_eq!(g1.stats.steps, g4.stats.steps);
    assert_eq!(g1.stats.node_accesses, g4.stats.node_accesses);
    assert_eq!(g1.stats.restarts, g4.stats.restarts);
    assert_eq!(g1.stats.improvements, g4.stats.improvements);
}
