//! The five pinned workloads: data shape, backend, operation list and
//! probe sizes.
//!
//! Every budget is a **step** count (never a time limit), so all work
//! counters repeat exactly from sample to sample and from run to run at a
//! fixed seed. The counts were calibrated once on the 2-core reference box
//! so that one solve sample takes about 1–1.5 s and every operation is
//! 15–40 % of it; they are pinned here and are part of the benchmark's
//! definition (changing one re-bases every timing of its row).

use mwsj_core::BackendKind;
use mwsj_datagen::{Distribution, QueryShape, WorkloadSpec};

/// One operation kind; the name is the `<op>` of `core.<op>.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Indexed local search (§3).
    Ils,
    /// Guided indexed local search (§4).
    Gils,
    /// Spatial evolutionary algorithm (§5).
    Sea,
    /// Indexed branch and bound (§6), R*-tree backend.
    Ibb,
    /// Window reduction, R*-tree backend.
    Wr,
    /// Synchronous traversal, R*-tree backend.
    St,
    /// Pairwise join method, R*-tree backend.
    Pjm,
    /// Window reduction, grid backend.
    WrGrid,
    /// Pairwise join method, grid backend.
    PjmGrid,
}

impl OpKind {
    /// Every kind, in metric order.
    pub const ALL: [OpKind; 9] = [
        OpKind::Ils,
        OpKind::Gils,
        OpKind::Sea,
        OpKind::Ibb,
        OpKind::Wr,
        OpKind::St,
        OpKind::Pjm,
        OpKind::WrGrid,
        OpKind::PjmGrid,
    ];

    /// Metric / span name of the op.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Ils => "ils",
            OpKind::Gils => "gils",
            OpKind::Sea => "sea",
            OpKind::Ibb => "ibb",
            OpKind::Wr => "wr",
            OpKind::St => "st",
            OpKind::Pjm => "pjm",
            OpKind::WrGrid => "wr-grid",
            OpKind::PjmGrid => "pjm-grid",
        }
    }

    /// The anytime heuristics: run only where no exact solution exists and
    /// required to consume their whole budget.
    pub fn is_heuristic(self) -> bool {
        matches!(self, OpKind::Ils | OpKind::Gils | OpKind::Sea)
    }

    /// Ops that return one best solution with an anytime trace
    /// (heuristics and IBB), as opposed to an exact solution set.
    pub fn is_anytime(self) -> bool {
        self.is_heuristic() || self == OpKind::Ibb
    }

    /// The backend an exact-join op forces, if any; heuristics and IBB run
    /// on the workload's own backend.
    pub fn forced_backend(self) -> Option<BackendKind> {
        match self {
            OpKind::Wr | OpKind::St | OpKind::Pjm | OpKind::Ibb => Some(BackendKind::RTree),
            OpKind::WrGrid | OpKind::PjmGrid => Some(BackendKind::Grid),
            OpKind::Ils | OpKind::Gils | OpKind::Sea => None,
        }
    }
}

/// One entry of a workload's pinned operation list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Which algorithm.
    pub kind: OpKind,
    /// Step budget of one repetition (heuristics, IBB); exact joins run to
    /// completion.
    pub steps: u64,
    /// How many times the op runs back to back inside one sample. The
    /// repetitions of a heuristic are independently seeded restarts, so a
    /// sample averages over search trajectories: which local maximum a run
    /// parks in decides its best similarity (in steps of one join
    /// condition) and, on skewed data, its cost per step. Exact joins are
    /// short; repeating them gives each a measurable share.
    pub reps: u32,
}

const fn restarts(kind: OpKind, reps: u32, steps: u64) -> Op {
    Op { kind, steps, reps }
}

const fn exact(kind: OpKind, reps: u32) -> Op {
    Op {
        kind,
        steps: 0,
        reps,
    }
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Fixed name (the `--workload` argument and the `BENCHMARK.json` row).
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Query topology.
    pub shape: QueryShape,
    /// Query variables `n`.
    pub n_vars: usize,
    /// Objects per dataset `N`.
    pub cardinality: usize,
    /// Independent join instances (each `n_vars` datasets of `N` objects,
    /// from its own data seed). Setup builds them all; repetition `r` of
    /// an op runs on instance `r mod instances`.
    pub instances: usize,
    /// Expected number of exact solutions the density is solved for.
    pub target_solutions: f64,
    /// Plant one guaranteed exact solution (exact-join row only).
    pub plant: bool,
    /// Spatial distribution of the data.
    pub distribution: Distribution,
    /// Backend the heuristics run on (and the one setup must materialise).
    pub backend: BackendKind,
    /// The pinned operation list of one solve sample.
    pub ops: Vec<Op>,
    /// Calls of the seeded probe walk replayed into every layer.
    pub probe_calls: usize,
    /// ILS step budget of the observability / portfolio side probes.
    pub probe_ils_steps: u64,
}

impl Workload {
    /// `true` when setup has to build the grid index.
    pub fn needs_grid(&self) -> bool {
        self.backend == BackendKind::Grid
            || self
                .ops
                .iter()
                .any(|o| o.kind.forced_backend() == Some(BackendKind::Grid))
    }

    /// The data generator spec for benchmark seed `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            shape: self.shape,
            n_vars: self.n_vars,
            cardinality: self.cardinality,
            target_solutions: self.target_solutions,
            plant: self.plant,
            distribution: self.distribution,
            seed,
        }
    }

    /// The `--quick` variant: N ÷ 20 and every budget ÷ 20, for smoke
    /// tests. Timings of a quick run mean nothing; its counts still repeat.
    pub fn quick(&self) -> Workload {
        let mut w = self.clone();
        w.cardinality = (w.cardinality / 20).max(50);
        for o in &mut w.ops {
            o.steps = (o.steps / 20).max(if o.steps > 0 { 10 } else { 0 });
            o.reps = o.reps.min(self.instances as u32);
        }
        w.probe_calls = (w.probe_calls / 20).max(100);
        w.probe_ils_steps = (w.probe_ils_steps / 20).max(100);
        w
    }
}

/// Expected exact solutions on the heuristic rows: low enough that a seed
/// with a solution is a one-in-a-thousand event (input generation then
/// draws again), high enough that the data stays in the paper's sparse
/// hard-region regime.
const UNSOLVABLE: f64 = 1e-3;

/// The five workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "chain-100k-rtree",
            why: "66 MB index exceeds cache and the window cache rarely hits, so multi-window descent and the flat leaf scan do the work; STR bulk load dominates setup",
            shape: QueryShape::Chain,
            n_vars: 6,
            cardinality: 100_000,
            instances: 1,
            target_solutions: UNSOLVABLE,
            plant: false,
            distribution: Distribution::Uniform,
            backend: BackendKind::RTree,
            ops: vec![
                restarts(OpKind::Ils, 4, 54_000),
                restarts(OpKind::Gils, 4, 125_000),
                restarts(OpKind::Sea, 4, 675),
            ],
            probe_calls: 200_000,
            probe_ils_steps: 100_000,
        },
        Workload {
            name: "chain-100k-grid",
            why: "same data and ops on the grid backend: the uniform-data A/B of the row above; the grid kernel does the solve work and its build is added to setup",
            shape: QueryShape::Chain,
            n_vars: 6,
            cardinality: 100_000,
            instances: 1,
            target_solutions: UNSOLVABLE,
            plant: false,
            distribution: Distribution::Uniform,
            backend: BackendKind::Grid,
            ops: vec![
                restarts(OpKind::Ils, 4, 54_000),
                restarts(OpKind::Gils, 4, 125_000),
                restarts(OpKind::Sea, 4, 675),
            ],
            probe_calls: 200_000,
            probe_ils_steps: 100_000,
        },
        Workload {
            name: "clique-10k-rtree",
            why: "cache-resident data and a dense 15-edge query put the weight on window scoring, window-cache invalidation and driver bookkeeping; bypasses index-layout and bulk-load changes",
            shape: QueryShape::Clique,
            n_vars: 6,
            cardinality: 10_000,
            instances: 4,
            target_solutions: UNSOLVABLE,
            plant: false,
            distribution: Distribution::Uniform,
            backend: BackendKind::RTree,
            ops: vec![
                restarts(OpKind::Ils, 8, 12_500),
                restarts(OpKind::Gils, 8, 24_000),
                restarts(OpKind::Sea, 8, 290),
            ],
            probe_calls: 100_000,
            probe_ils_steps: 50_000,
        },
        Workload {
            name: "zipf-50k-grid",
            why: "Zipf-clustered data makes hot grid cells, so the same grid kernel costs many times more per step than on uniform data; a grid change that trades skew against uniform shows across the two grid rows",
            shape: QueryShape::Chain,
            n_vars: 6,
            cardinality: 50_000,
            instances: 1,
            target_solutions: 1e-10,
            plant: false,
            distribution: Distribution::ZipfClustered {
                clusters: 16,
                sigma: 0.02,
                exponent: 1.1,
            },
            backend: BackendKind::Grid,
            ops: vec![
                restarts(OpKind::Ils, 8, 6_000),
                restarts(OpKind::Gils, 4, 2_200),
                restarts(OpKind::Sea, 4, 21),
            ],
            probe_calls: 20_000,
            probe_ils_steps: 15_000,
        },
        Workload {
            name: "exact-50k",
            why: "exact enumeration (window queries, candidate generation, pairwise joins, synchronous descent, branch and bound) on both backends; bypasses the best-first kernel and the window cache",
            shape: QueryShape::Clique,
            n_vars: 4,
            cardinality: 50_000,
            instances: 1,
            target_solutions: 20.0,
            plant: true,
            distribution: Distribution::Uniform,
            backend: BackendKind::RTree,
            ops: vec![
                exact(OpKind::Wr, 4),
                exact(OpKind::St, 1),
                exact(OpKind::Pjm, 6),
                restarts(OpKind::Ibb, 1, 90_000),
                exact(OpKind::WrGrid, 4),
                exact(OpKind::PjmGrid, 5),
            ],
            probe_calls: 100_000,
            probe_ils_steps: 50_000,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
