//! A join instance: query graph plus indexed datasets.

use crate::budget::BudgetClock;
use crate::legacy::GridSlot;
use crate::support::{Domains, Support};
use mwsj_geom::Rect;
use mwsj_obs::{MemoryFootprint, ResourceReport};
use mwsj_query::{ConflictState, QueryGraph, Solution, VarId};
use mwsj_rtree::RTree;
use rand::rngs::StdRng;
use rand::RngExt;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One dataset as its R*-tree index (payloads are object ids): the tree's
/// leaf level *is* the rectangle storage, in STR order, and `inv` finds an
/// object in it.
#[derive(Debug)]
pub(crate) struct IndexedDataset {
    pub tree: RTree<u32>,
    /// Object id → position in the tree's leaf arrays.
    pub inv: Vec<u32>,
    /// Mean per-axis extent, summed in object-id order (the leaf order
    /// would round the sum differently).
    pub avg_extent: f64,
    /// The benchmark's grid stand-in ([`crate::legacy`]), built by its
    /// first `Instance::grid` call; no engine path reads it, and it reports
    /// no bytes.
    pub legacy_grid: GridSlot,
}

impl IndexedDataset {
    pub(crate) fn build(rects: &[Rect]) -> Self {
        let tree = RTree::from_rects(rects);
        let mut inv = vec![0u32; rects.len()];
        for (position, &object) in tree.leaf_values().iter().enumerate() {
            inv[object as usize] = position as u32;
        }
        let extents: f64 = rects.iter().map(|r| 0.5 * (r.width() + r.height())).sum();
        IndexedDataset {
            tree,
            inv,
            avg_extent: extents / rects.len() as f64,
            legacy_grid: GridSlot::new(),
        }
    }

    #[inline]
    fn rect(&self, obj: usize) -> Rect {
        self.tree.leaf_rects()[self.inv[obj] as usize]
    }

    /// Resident bytes of everything but the leaf rectangles: payloads,
    /// `inv`, upper levels and `start` tables.
    fn index_bytes(&self) -> u64 {
        self.tree.memory_bytes() - self.rect_bytes()
            + (self.inv.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Resident bytes of the leaf rectangle array.
    fn rect_bytes(&self) -> u64 {
        std::mem::size_of_val(self.tree.leaf_rects()) as u64
    }

    /// Resident bytes of everything: rectangles and index.
    pub(crate) fn bytes(&self) -> u64 {
        self.rect_bytes() + self.index_bytes()
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
    /// The support bits, built on first use. They depend on the graph, so
    /// they live here and not on the (shareable) datasets.
    support: OnceLock<Support>,
    /// The arc-consistent domains, built on first use by an exact join and
    /// shared by every clone.
    domains: Arc<OnceLock<Domains>>,
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
            .map(|d| Arc::new(IndexedDataset::build(d.as_ref())))
            .collect();
        if data.len() != graph.n_vars() {
            return Err(InstanceError::DatasetCountMismatch {
                expected: graph.n_vars(),
                got: data.len(),
            });
        }
        if let Some(v) = data.iter().position(|d| d.tree.is_empty()) {
            return Err(InstanceError::EmptyDataset(v));
        }
        Ok(Instance {
            graph,
            data,
            support: OnceLock::new(),
            domains: Arc::default(),
        })
    }

    /// Builds a **self-join** instance: every query variable ranges over
    /// the same dataset (e.g. "configurations of objects within the same
    /// image", paper §7). Rectangles and index are shared, not copied.
    pub fn self_join<D>(graph: QueryGraph, dataset: D) -> Result<Self, InstanceError>
    where
        D: AsRef<[Rect]>,
    {
        let shared = Arc::new(IndexedDataset::build(dataset.as_ref()));
        if shared.tree.is_empty() {
            return Err(InstanceError::EmptyDataset(0));
        }
        let n = graph.n_vars();
        Ok(Instance {
            graph,
            data: vec![shared; n],
            support: OnceLock::new(),
            domains: Arc::default(),
        })
    }

    /// The slot of variable `v`'s grid stand-in ([`crate::legacy`]).
    pub(crate) fn legacy_grid(&self, v: VarId) -> &GridSlot {
        &self.data[v].legacy_grid
    }

    /// The support bits of the instance ([`crate::support`]), built on
    /// first access.
    #[inline]
    pub(crate) fn support(&self) -> &Support {
        self.support.get_or_init(|| Support::build(self))
    }

    /// The arc-consistent domains ([`crate::support::Domains`]), built on
    /// first access and shared by every clone; `None` if `clock` runs out
    /// during the build, which then leaves nothing behind. A build adds the
    /// nodes it reads to `node_accesses`.
    pub(crate) fn domains(&self, clock: &BudgetClock, node_accesses: &mut u64) -> Option<&Domains> {
        if let Some(domains) = self.domains.get() {
            return Some(domains);
        }
        let built = Domains::build(self, clock, node_accesses)?;
        Some(self.domains.get_or_init(|| built))
    }

    /// The core: the same graph over `domains`' survivors; a variable that
    /// lost none keeps its dataset. No domain may be empty.
    pub(crate) fn core(&self, domains: &Domains) -> Instance {
        debug_assert!(!domains.is_empty(), "an empty domain has no core");
        let data = (self.data.iter().enumerate())
            .map(|(v, whole)| domains.dataset(v).unwrap_or(whole).clone())
            .collect();
        Instance {
            graph: self.graph.clone(),
            data,
            support: OnceLock::new(),
            domains: Arc::default(),
        }
    }

    /// How many objects of each variable survive the arc-consistency pass
    /// of the exact join, once it has run it (WR searches only those;
    /// DESIGN.md §5k). The pass stops at the first
    /// domain it empties, so the others may then be larger than their
    /// fixpoint. It removes nothing where its probes find no edge that
    /// leaves three quarters of an end without a partner.
    pub fn core_sizes(&self) -> Option<Vec<usize>> {
        let domains = self.domains.get()?;
        let sizes = (0..self.n_vars()).map(|v| domains.size(v).unwrap_or(self.cardinality(v)));
        Some(sizes.collect())
    }

    /// The index nodes the arc-consistency pass read, once it has run. They
    /// belong to the instance: no run's `node_accesses` counts them.
    pub fn core_node_accesses(&self) -> Option<u64> {
        self.domains.get().map(Domains::node_accesses)
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
        self.data[v].tree.len()
    }

    /// MBR of object `obj` in variable `v`'s dataset.
    #[inline]
    pub fn rect(&self, v: VarId, obj: usize) -> Rect {
        self.data[v].rect(obj)
    }

    /// All rectangles of variable `v`'s dataset, in **STR order** — the
    /// order of the tree's leaf level, which is where they are stored —
    /// not object-id order: `rects(v)[i]` is the rectangle of object
    /// [`objects(v)[i]`](Instance::objects). Use [`Instance::rect`] to look
    /// an object up.
    #[inline]
    pub fn rects(&self, v: VarId) -> &[Rect] {
        self.data[v].tree.leaf_rects()
    }

    /// The object ids of variable `v`'s dataset in the order of
    /// [`Instance::rects`]: a permutation of `0..cardinality(v)`.
    #[inline]
    pub fn objects(&self, v: VarId) -> &[u32] {
        self.data[v].tree.leaf_values()
    }

    /// Every object of variable `v`'s dataset in id order, with its
    /// rectangle. The rectangles are stored in leaf order, so a scan by id
    /// is a gather; it is made a block at a time, which lets the cache
    /// misses of a block overlap where one [`Instance::rect`] per step
    /// would wait out each in turn.
    pub fn scan(&self, v: VarId) -> impl Iterator<Item = (usize, Rect)> + '_ {
        const BLOCK: usize = 64;
        let data = &*self.data[v];
        let n = data.inv.len();
        let mut block = [Rect::EMPTY; BLOCK];
        (0..n).map(move |obj| {
            if obj % BLOCK == 0 {
                for (slot, ahead) in block.iter_mut().zip(obj..n) {
                    *slot = data.rect(ahead);
                }
            }
            (obj, block[obj % BLOCK])
        })
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
        self.data[v].avg_extent
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
    /// dataset, the rectangles (`rects.varNNN`: the tree's leaf array) and
    /// the rest of the R*-tree (`rtree.varNNN`: payloads, the id → position
    /// table, upper levels and `start` tables), named after the first
    /// variable bound to that dataset. Once the support bits are built,
    /// every variable that keeps some adds `support.varNNN`, its bit words;
    /// once the exact joins' arc-consistency pass has run, every variable
    /// that lost objects adds `domains.varNNN`, its surviving ids and their
    /// dataset. The same table backs the `resource_report` run event and
    /// the `memory` section of bench snapshots.
    pub fn fill_resource_report(&self, report: &mut ResourceReport) {
        for (v, d) in self.unique_datasets() {
            report.record(&format!("rects.var{v:03}"), d.rect_bytes());
            report.record(&format!("rtree.var{v:03}"), d.index_bytes());
        }
        // The bits only once built: an instance no heuristic has asked
        // reports as it did before they existed.
        if let Some(support) = self.support.get() {
            for v in 0..self.n_vars() {
                if let Some(bytes) = support.bytes(v) {
                    report.record(&format!("support.var{v:03}"), bytes);
                }
            }
        }
        if let Some(domains) = self.domains.get() {
            for v in 0..self.n_vars() {
                if let Some(bytes) = domains.bytes(v) {
                    report.record(&format!("domains.var{v:03}"), bytes);
                }
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
    /// Resident bytes of the indexed datasets (rectangles and R*-tree),
    /// with `Arc`-shared self-join datasets counted once, and of the
    /// support bits and the exact joins' domains once built. Deterministic: the same logical instance always reports the
    /// same total.
    fn memory_bytes(&self) -> u64 {
        let datasets: u64 = self.unique_datasets().map(|(_, d)| d.bytes()).sum();
        let support = self.support.get().map_or(0, |s| {
            (0..self.n_vars()).filter_map(|v| s.bytes(v)).sum::<u64>()
        });
        let domains = self.domains.get().map_or(0, |d| {
            (0..self.n_vars()).filter_map(|v| d.bytes(v)).sum::<u64>()
        });
        datasets + support + domains
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
        let at = inst.objects(2).iter().position(|&o| o == 5).unwrap();
        assert_eq!(inst.rect(2, 5), inst.rects(2)[at]);
        assert!(inst.problem_size_bits() > 0.0);
    }

    /// Uniform data, and data whose centres and `lo_x` all tie — where only
    /// the loaders' tie-breaks decide an order.
    fn tie_heavy_inputs() -> Vec<Vec<Rect>> {
        let mut rng = StdRng::seed_from_u64(8);
        let lattice = (0..700)
            .map(|_| {
                let (x, y) = (rng.random_range(0..3) as f64, rng.random_range(0..3) as f64);
                let h: f64 = rng.random_range(0.0..0.4);
                Rect::new(x, y - h, x + 1.0, y + h)
            })
            .collect();
        vec![
            Dataset::uniform(1_000, 0.5, &mut rng).rects().to_vec(),
            vec![Rect::new(0.25, 0.25, 0.5, 0.75); 500],
            lattice,
            vec![Rect::new(0.0, 0.0, 1.0, 1.0)],
        ]
    }

    /// Storage order is index order, and the ids still find everything:
    /// `rect` — and `scan`, block by block — returns the input rectangle of
    /// every object, `objects` is a permutation, and `rects` pairs with it
    /// position for position.
    #[test]
    fn every_object_keeps_its_rectangle_under_the_leaf_permutation() {
        for input in tie_heavy_inputs() {
            let instances = [
                Instance::new(QueryGraph::chain(2), [&input, &input]).unwrap(),
                Instance::self_join(QueryGraph::clique(3), &input).unwrap(),
            ];
            for inst in &instances {
                for v in 0..inst.n_vars() {
                    assert_eq!(inst.cardinality(v), input.len());
                    for (obj, rect) in input.iter().enumerate() {
                        assert_eq!(inst.rect(v, obj), *rect);
                    }
                    assert!(inst.scan(v).eq(input.iter().copied().enumerate()));
                    let mut ids = inst.objects(v).to_vec();
                    ids.sort_unstable();
                    assert!(ids.iter().copied().eq(0..input.len() as u32));
                    for (rect, &obj) in inst.rects(v).iter().zip(inst.objects(v)) {
                        assert_eq!(*rect, inst.rect(v, obj as usize));
                    }
                }
            }
        }
    }

    /// What is computed from the rectangles in object-id order stays as it
    /// was when they were stored in that order: the extent sum's rounding.
    #[test]
    fn id_ordered_derivations_do_not_see_the_leaf_order() {
        for input in tie_heavy_inputs() {
            let inst = Instance::new(QueryGraph::chain(2), [&input, &input]).unwrap();
            let sum: f64 = input.iter().map(|r| 0.5 * (r.width() + r.height())).sum();
            let expected = sum / input.len() as f64;
            assert_eq!(inst.avg_extent(0).to_bits(), expected.to_bits());
        }
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

    /// The support bits show in the report once a heuristic has built them,
    /// one component per variable of one bit per object of each neighbour;
    /// an instance only exact methods have run on reports no bits, and WR
    /// adds only its domains.
    #[test]
    fn support_bits_are_reported_once_a_heuristic_has_built_them() {
        let draw = |seed| Dataset::uniform(1_000, 0.05, &mut StdRng::seed_from_u64(seed));
        let build = || Instance::new(QueryGraph::chain(3), [draw(1), draw(2), draw(3)]).unwrap();
        let report = |inst: &Instance| {
            let mut report = ResourceReport::new();
            inst.fill_resource_report(&mut report);
            assert_eq!(report.total_bytes(), inst.memory_bytes());
            report.components().to_vec()
        };
        let (exact, heuristic) = (build(), build());
        let before = report(&exact);
        let budget = crate::SearchBudget::iterations(50);
        let _ = crate::Ibb::new(crate::IbbConfig::new()).run(&exact, &budget);
        assert_eq!(report(&exact), before, "IBB builds no bits");
        let _ = crate::WindowReduction::new().run(&exact, &budget, 10);
        let (domains, rest): (Vec<_>, Vec<_>) =
            (report(&exact).into_iter()).partition(|(name, _)| name.starts_with("domains."));
        assert_eq!(rest, before, "exact methods build no bits");
        assert_eq!(domains.len(), 3, "every variable lost objects");

        let mut rng = StdRng::seed_from_u64(4);
        let _ = crate::Ils::default().run(&heuristic, &budget, &mut rng);
        let after = report(&heuristic);
        let added: Vec<_> = after.iter().filter(|c| !before.contains(c)).collect();
        // 1 000 bits are 16 words: the ends have one neighbour, the middle two.
        let expected = [
            ("support.var000", 128),
            ("support.var001", 256),
            ("support.var002", 128),
        ];
        let expected: Vec<_> = expected
            .map(|(name, bytes)| (name.to_string(), bytes))
            .to_vec();
        assert_eq!(added, expected.iter().collect::<Vec<_>>());
        assert_eq!(after.len(), before.len() + 3);
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
