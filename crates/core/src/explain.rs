//! Builds [`ExplainReport`]s: the estimate side from the instance via the
//! [`mwsj_datagen::estimate_workload`] cost models, the observed side from
//! a finished run's [`RunStats`].
//!
//! Three layers of actuals back the audit:
//!
//! * **Per-edge observed selectivity** — an exact qualifying-pair count
//!   over the two datasets, divided by `Nᵢ·Nⱼ`. A property of the data,
//!   not the run, so it is deterministic and also available to the pre-run
//!   `mwsj explain` path. Counting is O(Nᵢ·Nⱼ) and therefore gated by
//!   [`OBSERVED_PAIR_BUDGET`]: edges whose dataset product exceeds the
//!   budget report `None` (the paper-scale base suite, `N = 200`, is
//!   always counted; very large tiers skip the quadratic pass).
//! * **Per-variable × per-level node accesses** — the rows of
//!   [`RunStats::access_profile`], which attribute the shared access
//!   counter and sum exactly to `RunStats::node_accesses` for the
//!   window-query algorithms (ILS/GILS/SEA/IBB).
//! * **Tree structural quality** — [`TreeStats`](mwsj_rtree::TreeStats)
//!   per-level fill / overlap factor / dead space / perimeter, which also
//!   feed the predicted per-query access figure (the classic window-query
//!   cost model `Σ_levels area + w·perimeter + w²·nodes`, summed over
//!   neighbour windows and clamped per level at the level's node count).

use crate::instance::{BackendKind, Instance};
use crate::result::RunStats;
use mwsj_datagen::estimate_workload;
use mwsj_obs::{EdgeExplain, ExplainReport, GridQuality, TreeQuality, VarExplain};

/// Upper bound on `Nᵢ·Nⱼ` for the exact observed-selectivity pair count.
/// 4·10⁶ rectangle-pair evaluations take well under 100 ms and cover the
/// paper's base configurations (`N = 200` → 4·10⁴ pairs per edge) with two
/// orders of magnitude of headroom.
pub const OBSERVED_PAIR_BUDGET: u64 = 4_000_000;

/// Exact observed selectivity of edge `(a, b)`: qualifying pairs divided
/// by `Nₐ·N_b`. Returns `None` when the pair product exceeds
/// [`OBSERVED_PAIR_BUDGET`].
pub fn observed_edge_selectivity(
    instance: &Instance,
    a: usize,
    b: usize,
    pred: mwsj_geom::Predicate,
) -> Option<(f64, u64)> {
    let (na, nb) = (
        instance.cardinality(a) as u64,
        instance.cardinality(b) as u64,
    );
    if na.checked_mul(nb)? > OBSERVED_PAIR_BUDGET {
        return None;
    }
    let mut pairs = 0u64;
    for ra in instance.rects(a) {
        for rb in instance.rects(b) {
            if pred.eval(ra, rb) {
                pairs += 1;
            }
        }
    }
    Some((pairs as f64 / (na as f64 * nb as f64), pairs))
}

/// Builds the pre-run (estimate-only) explain report of `instance`:
/// per-edge estimated + dataset-observed selectivities, per-variable hit
/// rates, predicted per-query accesses and tree quality. All observed
/// *traversal* figures are zero and `observed_node_accesses` is `None`.
///
/// Deterministic: a pure function of the instance, so repeated calls (and
/// `mwsj explain` invocations) serialise byte-identically.
pub fn build_explain_report(instance: &Instance) -> ExplainReport {
    let graph = instance.graph();
    let n = instance.n_vars();
    let cards: Vec<usize> = (0..n).map(|v| instance.cardinality(v)).collect();
    let extents: Vec<f64> = (0..n).map(|v| instance.avg_extent(v)).collect();
    let estimate = estimate_workload(graph, &cards, &extents);

    let edges = graph
        .edges()
        .iter()
        .zip(&estimate.edge_selectivities)
        .map(|(e, &sel)| {
            let observed = observed_edge_selectivity(instance, e.a, e.b, e.pred);
            EdgeExplain {
                a: e.a as u64,
                b: e.b as u64,
                predicate: e.pred.to_string(),
                estimated_selectivity: sel,
                observed_selectivity: observed.map(|(s, _)| s),
                observed_pairs: observed.map(|(_, p)| p),
            }
        })
        .collect();

    let vars = (0..n)
        .map(|v| {
            let stats = instance.tree(v).stats();
            let height = stats.height as usize;
            let windows: Vec<f64> = graph
                .neighbors(v)
                .iter()
                .map(|&(u, _)| extents[u])
                .collect();
            // Window-query cost model per level, union-bounded over the
            // conjunctive windows and clamped at the level's node count.
            let predicted = (0..height)
                .map(|l| {
                    let per_window: f64 = windows
                        .iter()
                        .map(|&w| {
                            stats.area_per_level[l]
                                + w * stats.perimeter_per_level[l]
                                + w * w * stats.nodes_per_level[l] as f64
                        })
                        .sum();
                    per_window.min(stats.nodes_per_level[l] as f64)
                })
                .sum();
            // Grid-backend cost: expected candidate cells of a window of
            // extent w are `(1 + w/cell_w)·(1 + w/cell_h)` (a window spans
            // one cell plus one boundary crossing per cell length), summed
            // over the neighbour windows and clamped at the cell count. In
            // each of them the sweep tests the entries whose `lo_x` lies
            // within `w + max_w` of the window, out of a cell that holds
            // what a window placed on the data finds, not the average.
            let grid = (instance.backend() == BackendKind::Grid).then(|| {
                let g = instance.grid(v);
                let gs = g.stats();
                let cell_w = g.bbox().width() / gs.nx as f64;
                let cell_h = g.bbox().height() / gs.ny as f64;
                let cells = gs.cells as f64;
                let window_cells = |w: f64| ((1.0 + w / cell_w) * (1.0 + w / cell_h)).min(cells);
                let swept_per_cell =
                    |w: f64| gs.seen_occupancy * ((w + gs.seen_max_width) / cell_w).min(1.0);
                GridQuality {
                    cells: gs.cells,
                    occupied_cells: gs.occupied_cells,
                    replication_factor: gs.replication_factor,
                    avg_occupancy: gs.avg_occupancy,
                    max_occupancy: gs.max_occupancy,
                    predicted_cells_per_query: windows
                        .iter()
                        .map(|&w| window_cells(w))
                        .sum::<f64>()
                        .min(cells),
                    predicted_cost_per_query: windows
                        .iter()
                        .map(|&w| window_cells(w) * swept_per_cell(w))
                        .sum(),
                }
            });
            VarExplain {
                var: v as u64,
                cardinality: cards[v] as u64,
                avg_extent: extents[v],
                expected_window_hits: estimate.window_hit_rates[v],
                predicted_accesses_per_query: predicted,
                observed_accesses: 0,
                accesses_per_level: vec![0; height],
                tree: TreeQuality {
                    height: stats.height as u64,
                    nodes: stats.nodes as u64,
                    avg_fill: stats.avg_fill,
                    fill_per_level: stats.fill_per_level,
                    overlap_factor_per_level: stats.overlap_factor_per_level,
                    dead_space_per_level: stats.dead_space_per_level,
                    perimeter_per_level: stats.perimeter_per_level,
                },
                grid,
            }
        })
        .collect();

    ExplainReport {
        model: estimate.model.name().to_string(),
        expected_solutions: estimate.expected_solutions,
        edges,
        vars,
        observed_node_accesses: None,
    }
}

/// Builds the post-run explain report: [`build_explain_report`] with the
/// observed side filled in from `stats` — the per-variable × per-level
/// attribution rows and the shared node-access total.
pub fn explain_report_for_run(instance: &Instance, stats: &RunStats) -> ExplainReport {
    let mut report = build_explain_report(instance);
    for (v, var) in report.vars.iter_mut().enumerate() {
        if let Some(levels) = stats.access_profile.get(v) {
            var.observed_accesses = levels.iter().sum();
            // Keep the estimate-side row length (the tree height); absorb
            // may have grown rows, but never beyond any real tree height.
            for (slot, &count) in var.accesses_per_level.iter_mut().zip(levels) {
                *slot = count;
            }
        }
    }
    report.observed_node_accesses = Some(stats.node_accesses);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::{hard_region_density, Dataset, QueryShape};
    use mwsj_obs::Record;
    use mwsj_query::QueryGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_instance(shape: QueryShape, n: usize, card: usize, seed: u64) -> Instance {
        let density = hard_region_density(shape, n, card, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let datasets: Vec<Dataset> = (0..n)
            .map(|_| Dataset::uniform(card, density, &mut rng))
            .collect();
        Instance::new(shape.graph(n), datasets).unwrap()
    }

    #[test]
    fn pre_run_report_is_deterministic_and_estimate_only() {
        let inst = paper_instance(QueryShape::Chain, 4, 200, 101);
        let a = build_explain_report(&inst);
        let b = build_explain_report(&inst);
        assert_eq!(a, b);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "serialisation must be byte-stable"
        );
        assert!(!a.has_observed());
        assert_eq!(a.attributed_accesses(), 0);
        assert_eq!(a.model, "acyclic");
        assert_eq!(a.edges.len(), 3);
        assert_eq!(a.vars.len(), 4);
        for var in &a.vars {
            assert_eq!(var.accesses_per_level.len(), var.tree.height as usize);
            assert!(var.predicted_accesses_per_query > 0.0);
            assert!(var.predicted_accesses_per_query <= var.tree.nodes as f64);
        }
        // Base-suite scale is under the pair budget: every edge observed.
        for edge in &a.edges {
            assert!(edge.observed_selectivity.is_some());
        }
    }

    #[test]
    fn observed_selectivity_matches_brute_force_and_respects_budget() {
        let inst = paper_instance(QueryShape::Clique, 3, 100, 7);
        let pred = mwsj_geom::Predicate::Intersects;
        let (sel, pairs) = observed_edge_selectivity(&inst, 0, 1, pred).unwrap();
        let manual = inst
            .rects(0)
            .iter()
            .flat_map(|ra| inst.rects(1).iter().map(move |rb| pred.eval(ra, rb)))
            .filter(|&hit| hit)
            .count() as u64;
        assert_eq!(pairs, manual);
        assert!((sel - manual as f64 / 1e4).abs() < 1e-12);

        // A synthetic over-budget product is skipped, not counted.
        let big = (OBSERVED_PAIR_BUDGET as f64).sqrt() as usize + 1;
        let d: Vec<_> = (0..2)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(9);
                Dataset::uniform(big, 0.01, &mut rng)
            })
            .collect();
        let inst = Instance::new(QueryGraph::chain(2), d).unwrap();
        assert_eq!(observed_edge_selectivity(&inst, 0, 1, pred), None);
    }

    /// Acceptance gate (DESIGN.md §5i): on the pinned base-suite
    /// workloads (the exact specs behind `BENCH_baseline.json`), every
    /// per-edge [TSS98] estimate is within the documented error factor of
    /// the exact observed selectivity.
    #[test]
    fn base_suite_edge_estimates_are_within_documented_error_factor() {
        const DOCUMENTED_ERROR_FACTOR: f64 = 2.0;
        let cases = [
            ("chain-n4-hard", QueryShape::Chain, 1.0, true, 101u64),
            ("chain-n4-easy", QueryShape::Chain, 4.0, false, 102),
            ("clique-n4-hard", QueryShape::Clique, 1.0, true, 103),
            ("clique-n4-easy", QueryShape::Clique, 4.0, false, 104),
        ];
        for (name, shape, target_solutions, plant, seed) in cases {
            let workload = mwsj_datagen::WorkloadSpec {
                shape,
                n_vars: 4,
                cardinality: 200,
                target_solutions,
                plant,
                distribution: mwsj_datagen::Distribution::Uniform,
                seed,
            }
            .generate();
            let inst = Instance::new(workload.graph, workload.datasets).unwrap();
            let report = build_explain_report(&inst);
            for edge in &report.edges {
                let factor = edge
                    .error_factor()
                    .unwrap_or_else(|| panic!("edge ({},{}) of {name} unobserved", edge.a, edge.b));
                assert!(
                    factor <= DOCUMENTED_ERROR_FACTOR,
                    "{name} edge ({},{}) estimate {} vs observed {:?}: \
                     error factor {factor} exceeds {DOCUMENTED_ERROR_FACTOR}",
                    edge.a,
                    edge.b,
                    edge.estimated_selectivity,
                    edge.observed_selectivity,
                );
            }
        }
    }

    #[test]
    fn grid_backend_report_carries_grid_quality_and_round_trips() {
        let inst = paper_instance(QueryShape::Chain, 3, 100, 12).with_backend(BackendKind::Grid);
        let report = build_explain_report(&inst);
        for var in &report.vars {
            let g = var.grid.as_ref().expect("grid quality on grid backend");
            assert!(g.cells >= g.occupied_cells);
            assert!(g.occupied_cells > 0);
            assert!(g.replication_factor >= 1.0);
            assert!(g.predicted_cells_per_query > 0.0);
            assert!(g.predicted_cells_per_query <= g.cells as f64);
            assert!(g.predicted_cost_per_query > 0.0);
            let full_scan = g.predicted_cells_per_query * g.max_occupancy as f64;
            assert!(g.predicted_cost_per_query <= full_scan);
        }
        let json = mwsj_obs::Json::parse(&report.to_json()).unwrap();
        assert_eq!(ExplainReport::from_json(&json), Ok(report.clone()));

        // Pinned to the bit on the middle variable: what the grid stores
        // per cell may change, what it reports and predicts may not.
        let stats = inst.grid(1).stats();
        assert_eq!(
            (stats.entries, stats.seen_occupancy, stats.seen_max_width),
            (105, 12.638095238095238, 0.01581138830084193)
        );
        let g = report.vars[1].grid.as_ref().unwrap();
        assert_eq!(
            (g.avg_occupancy, g.max_occupancy, g.replication_factor),
            (11.666666666666666, 17, 1.05)
        );
        assert_eq!(
            (g.predicted_cells_per_query, g.predicted_cost_per_query),
            (2.1951232622347248, 2.655336400598554)
        );

        // R*-tree reports stay grid-free, keeping pinned snapshots
        // byte-identical.
        let plain = build_explain_report(&paper_instance(QueryShape::Chain, 3, 100, 12));
        assert!(plain.vars.iter().all(|v| v.grid.is_none()));
    }

    /// The grid cost is a prediction of a count the grid can make: the
    /// slots one query's sweep tests, with one window per neighbour placed
    /// on a random object of the neighbour's dataset (what a search step
    /// asks). Pinned within [`FACTOR`] on uniform and on skewed data.
    #[test]
    fn grid_cost_predicts_the_swept_slots_within_a_stated_factor() {
        use rand::RngExt;
        const FACTOR: f64 = 1.5;
        let zipf = mwsj_datagen::Distribution::ZipfClustered {
            clusters: 16,
            sigma: 0.02,
            exponent: 1.1,
        };
        for (name, distribution) in [
            ("uniform", mwsj_datagen::Distribution::Uniform),
            ("zipf", zipf),
        ] {
            let workload = mwsj_datagen::WorkloadSpec {
                shape: QueryShape::Chain,
                n_vars: 3,
                cardinality: 20_000,
                target_solutions: 1.0,
                plant: false,
                distribution,
                seed: 31,
            }
            .generate();
            let inst = Instance::new(workload.graph, workload.datasets)
                .unwrap()
                .with_backend(BackendKind::Grid);
            let report = build_explain_report(&inst);
            let mut rng = StdRng::seed_from_u64(32);
            for v in 0..inst.n_vars() {
                const QUERIES: u64 = 2_000;
                let swept: u64 = (0..QUERIES)
                    .map(|_| {
                        let windows: Vec<_> = inst
                            .graph()
                            .neighbors(v)
                            .iter()
                            .map(|&(u, pred)| {
                                let obj = rng.random_range(0..inst.cardinality(u));
                                (pred, inst.rect(u, obj))
                            })
                            .collect();
                        inst.grid(v).swept_slots(&windows)
                    })
                    .sum();
                let counted = swept as f64 / QUERIES as f64;
                let predicted = report.vars[v]
                    .grid
                    .as_ref()
                    .unwrap()
                    .predicted_cost_per_query;
                let ratio = predicted / counted;
                assert!(
                    (1.0 / FACTOR..=FACTOR).contains(&ratio),
                    "{name} var {v}: predicted {predicted:.1}, counted {counted:.1}"
                );
            }
        }
    }

    #[test]
    fn run_report_attaches_profile_and_counter_total() {
        let inst = paper_instance(QueryShape::Chain, 3, 50, 11);
        let mut stats = RunStats {
            node_accesses: 30,
            access_profile: (0..3)
                .map(|v| vec![0; inst.tree(v).height() as usize])
                .collect(),
            ..RunStats::default()
        };
        let row = &mut stats.access_profile[1];
        row[0] = 20;
        if row.len() > 1 {
            row[1] = 5;
        }
        let report = explain_report_for_run(&inst, &stats);
        assert_eq!(report.observed_node_accesses, Some(30));
        assert_eq!(
            report.vars[1].observed_accesses,
            stats.access_profile[1].iter().sum::<u64>()
        );
        assert_eq!(report.vars[0].observed_accesses, 0);
        assert!(report.attributed_accesses() <= 30);
    }
}
