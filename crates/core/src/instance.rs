//! A join instance: query graph plus indexed datasets.

use mwsj_geom::Rect;
use mwsj_obs::{MemoryFootprint, ResourceReport};
use mwsj_query::{ConflictState, QueryGraph, Solution, VarId};
use mwsj_rtree::{RTree, UniformGrid};
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which spatial index backend answers the window and multi-window
/// queries of the search algorithms.
///
/// Dispatch is by enum, not generics: `Instance` stays a concrete type
/// (every algorithm, cache, sink and CLI signature is untouched), the
/// R*-tree arm compiles to exactly the code it was before the backend
/// axis existed, and both indexes can coexist on one instance for A/B
/// runs over the same `Arc`-shared data. See DESIGN.md §5j.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The R*-tree branch-and-bound traversals (the paper's setting).
    #[default]
    RTree,
    /// The PBSM-style uniform grid with cell-replicated MBRs and
    /// reference-point deduplication ([`mwsj_rtree::grid`]).
    Grid,
}

impl BackendKind {
    /// Parses a CLI backend name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "rtree" => Some(BackendKind::RTree),
            "grid" => Some(BackendKind::Grid),
            _ => None,
        }
    }

    /// Display name (`rtree` / `grid`).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::RTree => "rtree",
            BackendKind::Grid => "grid",
        }
    }
}

/// One dataset with its R*-tree index (payloads are object indices).
#[derive(Debug)]
pub(crate) struct IndexedDataset {
    pub rects: Vec<Rect>,
    pub tree: RTree<u32>,
    /// Uniform-grid index over the same rectangles, built on first use
    /// (selecting [`BackendKind::Grid`] builds it eagerly). `OnceLock`
    /// keeps the dataset shareable across `Arc` aliases without cloning
    /// the non-cloneable tree.
    pub grid: OnceLock<UniformGrid<u32>>,
}

impl IndexedDataset {
    fn build(rects: Vec<Rect>) -> Self {
        // Collected straight into the tree's leaf entries, default
        // parameters as `RTree::bulk_load`.
        let tree = rects.iter().copied().zip(0u32..).collect();
        IndexedDataset {
            rects,
            tree,
            grid: OnceLock::new(),
        }
    }

    /// The grid index, built deterministically from the rectangles on
    /// first access.
    fn grid(&self) -> &UniformGrid<u32> {
        self.grid.get_or_init(|| {
            let items: Vec<(Rect, u32)> = self.rects.iter().copied().zip(0u32..).collect();
            UniformGrid::build(&items)
        })
    }
}

/// Errors raised by [`Instance::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// Number of datasets must equal the number of query variables.
    DatasetCountMismatch {
        /// Query variables.
        expected: usize,
        /// Datasets provided.
        got: usize,
    },
    /// Every dataset must hold at least one object.
    EmptyDataset(VarId),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::DatasetCountMismatch { expected, got } => write!(
                f,
                "query has {expected} variables but {got} datasets were given"
            ),
            InstanceError::EmptyDataset(v) => write!(f, "dataset for variable {v} is empty"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A multiway spatial join instance: the query graph plus one R*-tree
/// indexed dataset per variable.
///
/// Datasets are stored behind `Arc`s so self-joins (one dataset aliased
/// under several variables) share rectangles and index.
#[derive(Debug, Clone)]
pub struct Instance {
    graph: QueryGraph,
    data: Vec<Arc<IndexedDataset>>,
    backend: BackendKind,
    /// Worker threads for intra-query grid parallelism (1 = sequential;
    /// results are bit-identical at any setting).
    grid_threads: usize,
}

impl Instance {
    /// Builds an instance, bulk-loading one R*-tree per dataset with
    /// default parameters. Accepts anything that dereferences to a slice of
    /// rectangles — e.g. `mwsj_datagen::Dataset` or a plain `Vec<Rect>`.
    pub fn new<D>(
        graph: QueryGraph,
        datasets: impl IntoIterator<Item = D>,
    ) -> Result<Self, InstanceError>
    where
        D: AsRef<[Rect]>,
    {
        let data: Vec<Arc<IndexedDataset>> = datasets
            .into_iter()
            .map(|d| Arc::new(IndexedDataset::build(d.as_ref().to_vec())))
            .collect();
        if data.len() != graph.n_vars() {
            return Err(InstanceError::DatasetCountMismatch {
                expected: graph.n_vars(),
                got: data.len(),
            });
        }
        if let Some(v) = data.iter().position(|d| d.rects.is_empty()) {
            return Err(InstanceError::EmptyDataset(v));
        }
        Ok(Instance {
            graph,
            data,
            backend: BackendKind::default(),
            grid_threads: 1,
        })
    }

    /// Builds a **self-join** instance: every query variable ranges over
    /// the same dataset (e.g. "configurations of objects within the same
    /// image", paper §7). Rectangles and index are shared, not copied.
    pub fn self_join<D>(graph: QueryGraph, dataset: D) -> Result<Self, InstanceError>
    where
        D: AsRef<[Rect]>,
    {
        let shared = Arc::new(IndexedDataset::build(dataset.as_ref().to_vec()));
        if shared.rects.is_empty() {
            return Err(InstanceError::EmptyDataset(0));
        }
        let n = graph.n_vars();
        Ok(Instance {
            graph,
            data: vec![shared; n],
            backend: BackendKind::default(),
            grid_threads: 1,
        })
    }

    /// Selects the spatial backend answering the index queries (builder
    /// style). Choosing [`BackendKind::Grid`] builds the grid index of
    /// every unique dataset eagerly, so later queries (and the resource
    /// report) see a fully materialised backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        if backend == BackendKind::Grid {
            for (_, d) in self.unique_datasets() {
                let _ = d.grid();
            }
        }
        self
    }

    /// Sets the worker-thread count for intra-query grid parallelism
    /// (builder style). Clamped to at least 1; query results and access
    /// counters are bit-identical at any setting (DESIGN.md §5j).
    pub fn with_grid_threads(mut self, threads: usize) -> Self {
        self.grid_threads = threads.max(1);
        self
    }

    /// The spatial backend answering the index queries.
    #[inline]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Worker threads for intra-query grid parallelism.
    #[inline]
    pub fn grid_threads(&self) -> usize {
        self.grid_threads
    }

    /// The uniform-grid index over variable `v`'s dataset (built on first
    /// access; shared across `Arc`-aliased self-join variables).
    pub fn grid(&self, v: VarId) -> &UniformGrid<u32> {
        self.data[v].grid()
    }

    /// The query graph.
    #[inline]
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// Number of query variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.graph.n_vars()
    }

    /// Cardinality of the dataset bound to variable `v`.
    #[inline]
    pub fn cardinality(&self, v: VarId) -> usize {
        self.data[v].rects.len()
    }

    /// MBR of object `obj` in variable `v`'s dataset.
    #[inline]
    pub fn rect(&self, v: VarId, obj: usize) -> Rect {
        self.data[v].rects[obj]
    }

    /// All rectangles of variable `v`'s dataset.
    #[inline]
    pub fn rects(&self, v: VarId) -> &[Rect] {
        &self.data[v].rects
    }

    /// The R*-tree over variable `v`'s dataset.
    #[inline]
    pub fn tree(&self, v: VarId) -> &RTree<u32> {
        &self.data[v].tree
    }

    /// Closure resolving `(variable, object)` to its MBR, the shape the
    /// `mwsj-query` evaluation APIs expect.
    pub fn rect_of(&self) -> impl Fn(VarId, usize) -> Rect + '_ {
        move |v, o| self.rect(v, o)
    }

    /// Average per-axis extent of variable `v`'s objects — the `|rᵥ|` of
    /// the \[TSS98\] selectivity model, computed from the data. Used by
    /// cost-based join ordering.
    pub fn avg_extent(&self, v: VarId) -> f64 {
        let rects = &self.data[v].rects;
        let sum: f64 = rects.iter().map(|r| 0.5 * (r.width() + r.height())).sum();
        sum / rects.len() as f64
    }

    /// Problem size `s = log₂ ∏ Nᵢ` (paper §5), used to scale SEA/GILS
    /// parameters.
    pub fn problem_size_bits(&self) -> f64 {
        let cards: Vec<usize> = (0..self.n_vars()).map(|v| self.cardinality(v)).collect();
        self.graph.problem_size_bits(&cards)
    }

    /// A uniformly random full assignment (a local-search seed).
    pub fn random_solution(&self, rng: &mut StdRng) -> Solution {
        Solution::new(
            (0..self.n_vars())
                .map(|v| rng.random_range(0..self.cardinality(v)))
                .collect(),
        )
    }

    /// Yields `(first_var, dataset)` for every **unique** dataset, so
    /// self-joins (one `Arc` aliased under several variables) are counted
    /// once, named after the first variable bound to them.
    fn unique_datasets(&self) -> impl Iterator<Item = (VarId, &IndexedDataset)> {
        self.data.iter().enumerate().filter_map(|(v, d)| {
            let first = self
                .data
                .iter()
                .position(|other| Arc::ptr_eq(other, d))
                .unwrap_or(v);
            (first == v).then_some((v, &**d))
        })
    }

    /// Records per-structure byte counts into `report`: for each unique
    /// dataset, the raw rectangles (`rects.varNNN`) and the R*-tree nodes
    /// (`rtree.varNNN`), named after the first variable bound to that
    /// dataset, plus `grid.varNNN` once the grid has been built. The same
    /// table backs the `resource_report` run event and the `memory`
    /// section of bench snapshots.
    pub fn fill_resource_report(&self, report: &mut ResourceReport) {
        for (v, d) in self.unique_datasets() {
            report.record(
                &format!("rects.var{v:03}"),
                d.rects.len() as u64 * std::mem::size_of::<Rect>() as u64,
            );
            report.record(&format!("rtree.var{v:03}"), d.tree.memory_bytes());
            // The grid component appears only once the grid backend has
            // been materialised, keeping R*-tree-only reports (and the
            // pinned bench snapshots) byte-identical.
            if let Some(grid) = d.grid.get() {
                report.record(&format!("grid.var{v:03}"), grid.memory_bytes());
            }
        }
    }

    /// Evaluates a solution from scratch.
    pub fn evaluate(&self, sol: &Solution) -> ConflictState {
        ConflictState::evaluate(&self.graph, sol, self.rect_of())
    }

    /// Number of violated join conditions of `sol`.
    pub fn violations(&self, sol: &Solution) -> usize {
        self.evaluate(sol).total_violations()
    }

    /// Similarity of `sol` (`1 − violations / edges`).
    pub fn similarity(&self, sol: &Solution) -> f64 {
        self.graph.similarity_of_violations(self.violations(sol))
    }
}

impl MemoryFootprint for Instance {
    /// Resident bytes of the indexed datasets (rectangles, R*-tree nodes and
    /// built grids), with `Arc`-shared self-join datasets counted
    /// once. Deterministic: the same logical instance always reports the
    /// same total.
    fn memory_bytes(&self) -> u64 {
        self.unique_datasets()
            .map(|(_, d)| {
                d.rects.len() as u64 * std::mem::size_of::<Rect>() as u64
                    + d.tree.memory_bytes()
                    + d.grid.get().map_or(0, MemoryFootprint::memory_bytes)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_datagen::Dataset;
    use rand::SeedableRng;

    fn tiny_instance() -> Instance {
        let mut rng = StdRng::seed_from_u64(1);
        let graph = QueryGraph::chain(3);
        let datasets: Vec<Dataset> = (0..3)
            .map(|_| Dataset::uniform(100, 0.1, &mut rng))
            .collect();
        Instance::new(graph, datasets).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let inst = tiny_instance();
        assert_eq!(inst.n_vars(), 3);
        assert_eq!(inst.cardinality(0), 100);
        assert_eq!(inst.tree(1).len(), 100);
        assert_eq!(inst.rect(2, 5), inst.rects(2)[5]);
        assert!(inst.problem_size_bits() > 0.0);
    }

    #[test]
    fn rejects_mismatched_dataset_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let graph = QueryGraph::chain(3);
        let datasets: Vec<Dataset> = (0..2)
            .map(|_| Dataset::uniform(10, 0.1, &mut rng))
            .collect();
        assert_eq!(
            Instance::new(graph, datasets).unwrap_err(),
            InstanceError::DatasetCountMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn rejects_empty_dataset() {
        let graph = QueryGraph::chain(2);
        let rects: Vec<Vec<Rect>> = vec![vec![Rect::new(0.0, 0.0, 1.0, 1.0)], vec![]];
        assert_eq!(
            Instance::new(graph, rects).unwrap_err(),
            InstanceError::EmptyDataset(1)
        );
    }

    #[test]
    fn self_join_shares_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = Dataset::uniform(50, 0.2, &mut rng);
        let inst = Instance::self_join(QueryGraph::clique(4), data.rects()).unwrap();
        assert_eq!(inst.n_vars(), 4);
        for v in 0..4 {
            assert_eq!(inst.cardinality(v), 50);
        }
        assert_eq!(inst.rect(0, 7), inst.rect(3, 7));
    }

    #[test]
    fn random_solution_is_in_range() {
        let inst = tiny_instance();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let sol = inst.random_solution(&mut rng);
            assert_eq!(sol.len(), 3);
            for v in 0..3 {
                assert!(sol.get(v) < inst.cardinality(v));
            }
        }
    }

    #[test]
    fn resource_report_is_deterministic_and_dedupes_self_joins() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = Dataset::uniform(80, 0.2, &mut rng);
        let inst = Instance::self_join(QueryGraph::clique(4), data.rects()).unwrap();
        let again = Instance::self_join(QueryGraph::clique(4), data.rects()).unwrap();
        assert_eq!(inst.memory_bytes(), again.memory_bytes());

        let mut report = ResourceReport::new();
        inst.fill_resource_report(&mut report);
        // Four aliased variables, one shared dataset: var000 components only.
        let names: Vec<&str> = report
            .components()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["rects.var000", "rtree.var000"]);
        assert_eq!(report.total_bytes(), inst.memory_bytes());

        // Distinct datasets report one component set per variable.
        let distinct = tiny_instance();
        let mut report = ResourceReport::new();
        distinct.fill_resource_report(&mut report);
        assert_eq!(report.components().len(), 6);
        assert_eq!(report.total_bytes(), distinct.memory_bytes());
    }

    #[test]
    fn grid_backend_adds_components_and_shares_self_join_grids() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = Dataset::uniform(80, 0.2, &mut rng);
        let inst = Instance::self_join(QueryGraph::clique(4), data.rects()).unwrap();
        let rtree_bytes = inst.memory_bytes();
        let inst = inst.with_backend(BackendKind::Grid);
        assert_eq!(inst.backend(), BackendKind::Grid);
        assert!(inst.memory_bytes() > rtree_bytes, "grid bytes must show up");

        let mut report = ResourceReport::new();
        inst.fill_resource_report(&mut report);
        let names: Vec<&str> = report
            .components()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["grid.var000", "rects.var000", "rtree.var000"]);
        assert_eq!(report.total_bytes(), inst.memory_bytes());
        // Aliased variables share one grid.
        assert!(std::ptr::eq(inst.grid(0), inst.grid(3)));
        // Default stays R*-tree with no grid component.
        let plain = tiny_instance();
        assert_eq!(plain.backend(), BackendKind::RTree);
        let mut report = ResourceReport::new();
        plain.fill_resource_report(&mut report);
        assert_eq!(report.components().len(), 6);
    }

    #[test]
    fn evaluation_matches_query_crate() {
        let inst = tiny_instance();
        let mut rng = StdRng::seed_from_u64(5);
        let sol = inst.random_solution(&mut rng);
        let cs = inst.evaluate(&sol);
        assert_eq!(cs.total_violations(), inst.violations(&sol));
        assert!((inst.similarity(&sol) - cs.similarity(inst.graph())).abs() < 1e-12);
    }
}
