//! Cross-backend equivalence and determinism tests.
//!
//! The uniform-grid backend must be observationally indistinguishable from
//! the R*-tree backend everywhere results (rather than access counters)
//! are concerned: `find_best_value` scores bit-equal with and without
//! penalties, the exact join returns identical solution sets, and the anytime
//! heuristics reach the same quality on pinned planted workloads.
//!
//! The generated datasets deliberately include duplicate-coordinate
//! rectangles, a large boundary-straddling rectangle (replicated into
//! every grid cell), and a degenerate point rectangle pinned to the grid
//! centre (landing exactly on cell boundaries), so the replication +
//! reference-point-dedup machinery is exercised, not just the happy path.

mod common;

use mwsj_core::{
    find_best_value, BackendKind, Gils, GilsConfig, Ils, IlsConfig, Instance, SearchBudget,
};
use mwsj_datagen::{Distribution, QueryShape, WorkloadSpec};
use mwsj_geom::Rect;
use mwsj_query::{PenaltyTable, QueryGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Clones an instance onto the grid backend. The clone shares the
/// datasets (and their R*-trees) with the original, mirroring how the CLI
/// and the bench A/B records switch backends.
fn grid_clone(inst: &Instance) -> Instance {
    inst.clone().with_backend(BackendKind::Grid)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `find_best_value` is backend-invariant: for every variable, with
    /// and without penalties, the grid backend
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
        let grid = grid_clone(&inst);
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
                        prop_assert_eq!(r.effective, g.effective, "var {}: score mismatch", var);
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

    /// WR returns one solution *set* on both backends, of the size the
    /// independent backtracking counter finds, whichever of the six
    /// predicates its first edge carries — the opening pairwise join and the
    /// scan of the first variable alike. (A count above the limit is
    /// compared up to the limit.)
    #[test]
    fn exact_join_is_backend_invariant(
        (inst, _) in arb_backend_instance(),
        pred in 0usize..common::PREDICATES.len(),
    ) {
        let pred = common::PREDICATES[pred];
        let inst = common::regraphed(&inst, common::with_first_edge(inst.graph(), pred));
        common::assert_wr_matches_the_counter(&inst, 5_000, &format!("first edge {pred}"));
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
        let grid = grid_clone(&inst);
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
