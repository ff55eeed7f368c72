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

use crate::instance::Instance;
use crate::result::RunStats;
use mwsj_datagen::estimate_workload;
use mwsj_obs::{EdgeExplain, ExplainReport, TreeQuality, VarExplain};

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
        let json = mwsj_obs::Json::parse(&a.to_json()).unwrap();
        assert_eq!(ExplainReport::from_json(&json), Ok(a.clone()));
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
