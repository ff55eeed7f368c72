//! Workload explain/audit reports: estimated vs observed cost.
//!
//! The paper's cost models (\[TSS98\]/\[PMT99\] selectivity formulas) predict a
//! query's output size and traversal cost *before* a run; the search layer
//! measures the actual traversal work. [`ExplainReport`] pairs the two —
//! per-edge selectivity estimates against observed pair counts, per-variable
//! expected window hit-rates and predicted node accesses against the
//! per-variable × per-level attribution of the shared access counter — plus
//! the R*-tree structural quality table behind the prediction.
//!
//! The report is emitted as the `explain_report` run event (one per
//! top-level run, merged by composites exactly like `resource_report`),
//! rendered by `mwsj report` and `mwsj explain`, and embedded as the
//! deterministic `explain` section of a bench snapshot.
//!
//! This crate stays dependency-free: the structs here are plain data filled
//! by `mwsj-core` (which owns the instance, the estimator and the run
//! stats); their `record!` declarations are the whole (de)serialisation.

use crate::record::record;

record! {
    /// Structural quality of one variable's R*-tree, per level
    /// (`[0]` = leaf level everywhere).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct TreeQuality {
        /// Number of levels.
        pub height: u64,
        /// Total number of nodes.
        pub nodes: u64,
        /// Mean node occupancy as a fraction of capacity.
        pub avg_fill: f64,
        /// Mean node occupancy per level.
        pub fill_per_level: Vec<f64>,
        /// Summed pairwise sibling overlap area / summed node area per level.
        pub overlap_factor_per_level: Vec<f64> [estimate],
        /// Fraction of node area not covered by entries per level.
        pub dead_space_per_level: Vec<f64> [estimate],
        /// Summed node margins (width + height) per level.
        pub perimeter_per_level: Vec<f64> [estimate],
    }
}

record! {
    /// Estimate-vs-actual record of one query-graph edge.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EdgeExplain {
        /// First endpoint variable.
        pub a: u64,
        /// Second endpoint variable.
        pub b: u64,
        /// Predicate name (e.g. `"intersects"`).
        pub predicate: String,
        /// Estimated pairwise selectivity `(|rₐ|+|r_b|)²` \[TSS98\].
        pub estimated_selectivity: f64 [estimate],
        /// Observed selectivity `pairs / (Nₐ·N_b)`; `None` when the pair count
        /// was skipped (dataset product over the counting threshold).
        pub observed_selectivity: Option<f64> [opt],
        /// Raw observed qualifying pair count behind the selectivity.
        pub observed_pairs: Option<u64> [opt],
    }
}

impl EdgeExplain {
    /// Multiplicative estimate error `max(est/obs, obs/est)` (`1.0` =
    /// perfect). `None` when unobserved or when either side is zero.
    pub fn error_factor(&self) -> Option<f64> {
        let obs = self.observed_selectivity?;
        if obs <= 0.0 || self.estimated_selectivity <= 0.0 {
            return None;
        }
        let ratio = self.estimated_selectivity / obs;
        Some(ratio.max(1.0 / ratio))
    }
}

record! {
    /// Estimate-vs-actual record of one query variable.
    #[derive(Debug, Clone, PartialEq)]
    pub struct VarExplain {
        /// The variable.
        pub var: u64,
        /// Dataset cardinality `Nᵥ`.
        pub cardinality: u64,
        /// Average per-axis rectangle extent `|rᵥ|`.
        pub avg_extent: f64 [estimate],
        /// Expected objects satisfying all neighbour windows at once,
        /// `Nᵥ · Π (|rᵤ|+|rᵥ|)²`.
        pub expected_window_hits: f64 [estimate],
        /// Predicted R*-tree node accesses of one *find best value* query on
        /// this variable: the classic window-query cost model
        /// `Σ_levels (area + w·perimeter + w²·nodes)` summed over the
        /// neighbour windows (union bound, clamped per level at the level's
        /// node count).
        pub predicted_accesses_per_query: f64 [estimate],
        /// Observed node accesses attributed to this variable's tree.
        pub observed_accesses: u64,
        /// Observed accesses per tree level, `[0]` = leaf.
        pub accesses_per_level: Vec<u64>,
        /// Structural quality of the variable's tree.
        pub tree: TreeQuality,
    }
}

record! {
    /// One run's estimated-vs-observed cost report.
    ///
    /// The estimate side (model, selectivities, hit rates, tree quality) is a
    /// pure function of the instance and therefore byte-stable on a fixed
    /// seed; the observed side is attributed traversal work, absent
    /// (`observed_node_accesses == None`, zero per-var counts) in pre-run
    /// `mwsj explain` mode.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExplainReport {
        /// Closed-form model behind `expected_solutions`
        /// (`acyclic` / `clique` / `decomposed` / `independence`).
        pub model: String,
        /// Expected number of exact solutions of the query.
        pub expected_solutions: f64 [estimate],
        /// Per-edge records, in query-graph edge order.
        pub edges: Vec<EdgeExplain>,
        /// Per-variable records, in variable order.
        pub vars: Vec<VarExplain>,
        /// The run's shared node-access counter total; `None` for a pre-run
        /// estimate. The per-variable attributed counts sum to at most this
        /// (exactly, for the window-query algorithms ILS/GILS/SEA/IBB).
        pub observed_node_accesses: Option<u64> [opt],
    }
}

impl ExplainReport {
    /// Sum of the per-variable attributed node accesses.
    pub fn attributed_accesses(&self) -> u64 {
        self.vars.iter().map(|v| v.observed_accesses).sum()
    }

    /// `true` when the report carries an observed side.
    pub fn has_observed(&self) -> bool {
        self.observed_node_accesses.is_some()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::Json;
    use crate::record::Record;

    pub(crate) fn sample_report(observed: bool) -> ExplainReport {
        ExplainReport {
            model: "acyclic".into(),
            expected_solutions: 1.25,
            edges: vec![
                EdgeExplain {
                    a: 0,
                    b: 1,
                    predicate: "intersects".into(),
                    estimated_selectivity: 0.04,
                    observed_selectivity: observed.then_some(0.05),
                    observed_pairs: observed.then_some(2_000),
                },
                EdgeExplain {
                    a: 1,
                    b: 2,
                    predicate: "intersects".into(),
                    estimated_selectivity: 0.04,
                    observed_selectivity: None,
                    observed_pairs: None,
                },
            ],
            vars: (0..3)
                .map(|v| VarExplain {
                    var: v,
                    cardinality: 200,
                    avg_extent: 0.05,
                    expected_window_hits: 8.0,
                    predicted_accesses_per_query: 3.5,
                    observed_accesses: if observed { 40 + v } else { 0 },
                    accesses_per_level: if observed {
                        vec![30 + v, 10]
                    } else {
                        vec![0, 0]
                    },
                    tree: TreeQuality {
                        height: 2,
                        nodes: 14,
                        avg_fill: 0.9,
                        fill_per_level: vec![0.93, 0.81],
                        overlap_factor_per_level: vec![0.4, 0.02],
                        dead_space_per_level: vec![0.3, 0.1],
                        perimeter_per_level: vec![5.2, 2.1],
                    },
                })
                .collect(),
            observed_node_accesses: observed.then_some(123),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        for observed in [false, true] {
            let report = sample_report(observed);
            let parsed = ExplainReport::from_json(&Json::parse(&report.to_json()).unwrap());
            assert_eq!(parsed, Ok(report));
        }
    }

    #[test]
    fn error_factor_is_symmetric_and_none_when_unobserved() {
        let report = sample_report(true);
        let e = &report.edges[0];
        let f = e.error_factor().unwrap();
        assert!((f - 1.25).abs() < 1e-12, "0.05/0.04 = 1.25, got {f}");
        let mut flipped = e.clone();
        flipped.estimated_selectivity = 0.05;
        flipped.observed_selectivity = Some(0.04);
        assert!((flipped.error_factor().unwrap() - f).abs() < 1e-12);
        assert_eq!(report.edges[1].error_factor(), None);
    }

    #[test]
    fn attributed_accesses_sum_per_var_totals() {
        let report = sample_report(true);
        assert_eq!(report.attributed_accesses(), 40 + 41 + 42);
        assert!(report.has_observed());
        assert!(!sample_report(false).has_observed());
    }

    #[test]
    fn missing_required_field_fails_parse() {
        let report = sample_report(true);
        let broken = report.to_json().replace("\"model\":\"acyclic\",", "");
        let err = ExplainReport::from_json(&Json::parse(&broken).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "model: missing required field");
    }
}
