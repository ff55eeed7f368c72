//! The declared metric tables: every name the benchmark can emit, with its
//! unit and direction. `BENCHMARK.json` restates them (a test keeps the two
//! equal); README.md says which end-to-end metric each per-layer metric is
//! expected to move.

use crate::workloads::OpKind;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `true` when the value is a count or derived from counts only, so it
    /// repeats exactly at a fixed seed; `false` for anything timed.
    pub exact: bool,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better)
    }
}

/// The end-to-end metrics — what a user of the engine pays and gets. The
/// same six names are reported on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("solve_s", "s", Lower),
        def("steps_per_s", "1/s", Higher),
        exact("quality_auc", "ratio", Higher),
        exact("best_similarity", "ratio", Higher),
        exact("bytes_per_object", "B", Lower),
    ]
}

/// The per-op metrics `core.<op>.*` of one op kind.
pub fn op_metrics(kind: OpKind) -> Vec<MetricDef> {
    use Better::*;
    let name = |field: &str| format!("core.{}.{field}", kind.name());
    let mut defs = vec![
        def(name("wall_s"), "s", Lower),
        exact(name("steps"), "count", Higher),
        def(name("ns_per_step"), "ns", Lower),
        exact(name("node_accesses"), "count", Lower),
        exact(name("accesses_per_step"), "ratio", Lower),
        def(name("ns_per_access"), "ns", Lower),
    ];
    if kind.is_heuristic() {
        defs.push(exact(name("cache_hit_ratio"), "ratio", Higher));
    }
    if kind.is_anytime() {
        defs.push(exact(name("steps_to_best"), "count", Lower));
        defs.push(exact(name("best_similarity"), "ratio", Higher));
    } else {
        defs.push(exact(name("solutions"), "count", Higher));
    }
    defs
}

/// The per-layer metrics of the traced run, in report order: setup stages,
/// ops, probes, tracing overhead.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut defs = vec![
        // Setup stages (children of `setup`, each also called directly).
        def("datagen.from_csv_s", "s", Lower),
        def("datagen.csv_mb_per_s", "MB/s", Higher),
        def("rtree.bulk_load_s", "s", Lower),
        def("rtree.bulk_load_ns_per_obj", "ns", Lower),
        def("rtree.flat_freeze_s", "s", Lower),
        def("rtree.grid_build_s", "s", Lower),
        exact("rtree.grid_replication", "ratio", Lower),
        def("core.instance_new_s", "s", Lower),
        exact("mem.rects_bytes_per_obj", "B", Lower),
        exact("mem.rtree_bytes_per_obj", "B", Lower),
        exact("mem.flat_bytes_per_obj", "B", Lower),
        exact("mem.grid_bytes_per_obj", "B", Lower),
    ];
    // Ops (children of `solve`).
    for kind in OpKind::ALL {
        defs.extend(op_metrics(kind));
    }
    // Probes: one window stream replayed into each layer's entry point.
    defs.extend([
        def("rtree.multiwindow.ns_per_call", "ns", Lower),
        exact("rtree.multiwindow.accesses_per_call", "ratio", Lower),
        def("rtree.multiwindow.ns_per_access", "ns", Lower),
        def("rtree.multiwindow_entry.ns_per_call", "ns", Lower),
        def("rtree.grid.find_best_ns_per_call", "ns", Lower),
        exact("rtree.grid.cells_per_call", "ratio", Lower),
        def("core.find_best_value.ns_per_call", "ns", Lower),
        def("core.window_cache.ns_per_call", "ns", Lower),
        exact("core.window_cache.hit_ratio", "ratio", Higher),
        def("core.window_cache.ns_per_hit", "ns", Lower),
        def("rtree.window_query.ns_per_query", "ns", Lower),
        exact("rtree.window_query.accesses_per_query", "ratio", Lower),
        exact("rtree.window_query.results_per_query", "ratio", Lower),
        def("core.pairwise.join_s", "s", Lower),
        exact("core.pairwise.pairs", "count", Higher),
        def("core.pairwise.ns_per_pair", "ns", Lower),
        def("query.conflicts.ns_per_reassign", "ns", Lower),
        def("core.ils.self_ns_per_step", "ns", Lower),
        def("obs.timer_overhead_ratio", "ratio", Lower),
        def("obs.jsonl_overhead_ratio", "ratio", Lower),
        def("core.portfolio.speedup_t2", "ratio", Higher),
        def("rtree.grid.pjm_speedup_t2", "ratio", Higher),
        def("trace.overhead_ratio", "ratio", Lower),
    ]);
    defs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_cap() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
    }
}
