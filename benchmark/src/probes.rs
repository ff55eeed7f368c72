//! Per-layer probes of the traced run: the setup stages called one by one,
//! and one recorded window stream replayed into each layer's public entry
//! point so that unit costs line up.

use crate::stats::{median, Chunks};
use crate::trace::Tracer;
use crate::workloads::Workload;
use mwsj_core::{
    derive_seed, find_best_value, BackendKind, Ils, IlsConfig, Instance, JsonlSink, ObsHandle,
    PairwiseJoin, ParallelPortfolio, Pjm, PortfolioConfig, SearchBudget, SearchContext,
    TelemetryConfig, WindowCache,
};
use mwsj_geom::{Predicate, Rect};
use mwsj_obs::MemoryFootprint;
use mwsj_query::{ConflictState, QueryGraph, Solution};
use mwsj_rtree::{
    find_best_leaf, find_best_leaf_flat, grid, AccessCounter, FlatLeaves, RTree, UniformGrid,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Seed-stream indices of the probes (see `pipeline`).
const SEED_WALK: usize = 1;
const SEED_SIDE: usize = 2;
/// Repetitions of a timed side run (median reported).
const SIDE_REPS: usize = 3;
/// Progress-heartbeat cadence of the JSONL overhead probe.
const PROGRESS_EVERY: u64 = 1_000;

/// Named values a probe group measured.
pub type Values = Vec<(&'static str, f64)>;

/// Calls the three index builds of setup directly, per dataset, on the
/// rectangles the instance holds: `RTree::bulk_load`, `flat_leaves`,
/// `UniformGrid::build`. Returns the wall of every call and, computed from
/// the structures built, the resident bytes per object of each.
pub fn setup_stages(instance: &Instance, tracer: &mut Tracer) -> (Chunks, Values) {
    let n = instance.n_vars();
    let objects: usize = (0..n).map(|v| instance.cardinality(v)).sum();
    let mut chunks = Chunks::new();
    let (mut tree_bytes, mut flat_bytes, mut grid_bytes) = (0u64, 0u64, 0u64);
    let (mut entries, mut unique) = (0u64, 0u64);
    tracer.span("stages", |t| {
        for v in 0..n {
            let items: Vec<(Rect, u32)> = instance.rects(v).iter().copied().zip(0u32..).collect();
            let for_grid = items.clone();
            let (tree, secs) = t.span("rtree.bulk_load", |_| RTree::bulk_load(items));
            chunks.push(("rtree.bulk_load", secs));
            let (flat, secs) = t.span("rtree.flat_freeze", |_| tree.flat_leaves());
            chunks.push(("rtree.flat_freeze", secs));
            let (grid, secs) = t.span("rtree.grid_build", |_| UniformGrid::build(&for_grid));
            chunks.push(("rtree.grid_build", secs));
            tree_bytes += MemoryFootprint::memory_bytes(&tree);
            flat_bytes += MemoryFootprint::memory_bytes(&flat);
            grid_bytes += MemoryFootprint::memory_bytes(&grid);
            let stats = grid.stats();
            entries += stats.entries;
            unique += stats.unique;
        }
    });
    let per_obj = |bytes: u64| bytes as f64 / objects as f64;
    let values = vec![
        ("rtree.grid_replication", entries as f64 / unique as f64),
        (
            "mem.rects_bytes_per_obj",
            std::mem::size_of::<Rect>() as f64,
        ),
        ("mem.rtree_bytes_per_obj", per_obj(tree_bytes)),
        ("mem.flat_bytes_per_obj", per_obj(flat_bytes)),
        ("mem.grid_bytes_per_obj", per_obj(grid_bytes)),
    ];
    (chunks, values)
}

/// A recorded probe walk: per call the variable re-instantiated, the full
/// assignment at that moment and the windows it implies (the rectangles of
/// the variable's query-graph neighbours).
struct WindowStream {
    n_vars: usize,
    vars: Vec<u32>,
    /// `calls × n_vars` assignments.
    assignments: Vec<u32>,
    /// `windows[starts[i]..starts[i + 1]]` are call `i`'s windows.
    starts: Vec<u32>,
    windows: Vec<(Predicate, Rect)>,
}

impl WindowStream {
    /// Walks like the local searches do: from a random solution, pick a
    /// variable, ask for its best value, assign it. A fresh random solution
    /// every `4·n` calls keeps the mix of far-from and near-local-maximum
    /// windows an ILS run sees (without it the walk parks in one maximum
    /// and every later call repeats).
    fn record(instance: &Instance, calls: usize, seed: u64) -> Self {
        let n = instance.n_vars();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = WindowStream {
            n_vars: n,
            vars: Vec::with_capacity(calls),
            assignments: Vec::with_capacity(calls * n),
            starts: vec![0],
            windows: Vec::new(),
        };
        let mut sol = instance.random_solution(&mut rng);
        let mut accesses = 0u64;
        for call in 0..calls {
            if call % (4 * n) == 0 {
                sol = instance.random_solution(&mut rng);
            }
            let var = rng.random_range(0..n);
            stream.vars.push(var as u32);
            stream
                .assignments
                .extend(sol.as_slice().iter().map(|&o| o as u32));
            for &(u, pred) in instance.graph().neighbors(var) {
                stream.windows.push((pred, instance.rect(u, sol.get(u))));
            }
            stream.starts.push(stream.windows.len() as u32);
            if let Some(best) = find_best_value(instance, &sol, var, None, &mut accesses) {
                sol.set(var, best.object);
            }
        }
        stream
    }

    fn calls(&self) -> usize {
        self.vars.len()
    }

    fn windows_of(&self, call: usize) -> &[(Predicate, Rect)] {
        &self.windows[self.starts[call] as usize..self.starts[call + 1] as usize]
    }

    /// Replays the stream under one span called `name` (call count
    /// attached): `f(call, variable, windows)` once per recorded call.
    /// Returns the span's wall seconds.
    fn replay(
        &self,
        tracer: &mut Tracer,
        name: &str,
        mut f: impl FnMut(usize, usize, &[(Predicate, Rect)]),
    ) -> f64 {
        let timed = tracer.span_counted(name, |_| {
            for call in 0..self.calls() {
                f(call, self.vars[call] as usize, self.windows_of(call));
            }
            ((), self.calls() as u64)
        });
        timed.1
    }

    /// Loads call `call`'s assignment into `sol`.
    fn load(&self, call: usize, sol: &mut Solution) {
        let row = &self.assignments[call * self.n_vars..(call + 1) * self.n_vars];
        for (v, &obj) in row.iter().enumerate() {
            sol.set(v, obj as usize);
        }
    }
}

/// Replays one window stream into every layer (spans are children of
/// `probes`, one per layer with the call count attached).
pub fn layer_probes(
    w: &Workload,
    rtree: &Instance,
    primary: &Instance,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Values {
    let stream = WindowStream::record(rtree, w.probe_calls, derive_seed(seed, SEED_WALK));
    let calls = stream.calls();
    let per_call = |secs: f64| secs * 1e9 / calls as f64;
    let n = rtree.n_vars();
    let raw = |_: &u32, count: u32| f64::from(count);
    let mut values = Values::new();

    tracer.span("probes", |t| {
        // rtree::multiwindow over the flat leaves (the default kernel path)
        // and over the entry layout.
        let flats: Vec<FlatLeaves<u32>> = (0..n).map(|v| rtree.tree(v).flat_leaves()).collect();
        let mut accesses = 0u64;
        let secs = stream.replay(t, "rtree.multiwindow", |_, v, windows| {
            let root = rtree.tree(v).root_node();
            black_box(find_best_leaf_flat(
                root,
                &flats[v],
                windows,
                raw,
                &mut accesses,
            ));
        });
        drop(flats);
        values.push(("rtree.multiwindow.ns_per_call", per_call(secs)));
        values.push((
            "rtree.multiwindow.accesses_per_call",
            accesses as f64 / calls as f64,
        ));
        values.push((
            "rtree.multiwindow.ns_per_access",
            secs * 1e9 / accesses as f64,
        ));

        let secs = stream.replay(t, "rtree.multiwindow_entry", |_, v, windows| {
            let root = rtree.tree(v).root_node();
            black_box(find_best_leaf(root, windows, raw, &mut accesses));
        });
        values.push(("rtree.multiwindow_entry.ns_per_call", per_call(secs)));

        // rtree::grid kernel (grids are built here on R*-tree rows; the
        // footprint was taken before).
        let grids: Vec<&UniformGrid<u32>> = (0..n).map(|v| rtree.grid(v)).collect();
        let threads = rtree.grid_threads();
        let mut cells = 0u64;
        let secs = stream.replay(t, "rtree.grid.find_best", |_, v, windows| {
            black_box(grid::find_best_in_windows(
                grids[v],
                windows,
                raw,
                threads,
                &mut cells,
                &mut [],
            ));
        });
        values.push(("rtree.grid.find_best_ns_per_call", per_call(secs)));
        values.push(("rtree.grid.cells_per_call", cells as f64 / calls as f64));

        // core::find_best_value on the workload's own backend: the kernel
        // plus window building.
        let mut sol = Solution::new(vec![0; n]);
        let secs = stream.replay(t, "core.find_best_value", |call, v, _| {
            stream.load(call, &mut sol);
            black_box(find_best_value(primary, &sol, v, None, &mut accesses));
        });
        let fbv_ns = per_call(secs);
        values.push(("core.find_best_value.ns_per_call", fbv_ns));

        // core::WindowCache over the same stream, then on unchanged state
        // (primed first, so that every timed call is a hit).
        let mut cache = WindowCache::new(primary);
        let secs = stream.replay(t, "core.window_cache", |call, v, _| {
            stream.load(call, &mut sol);
            black_box(cache.find_best_value(primary, &sol, v, None, &mut accesses));
        });
        let stats = cache.stats();
        values.push(("core.window_cache.ns_per_call", per_call(secs)));
        values.push((
            "core.window_cache.hit_ratio",
            stats.hits() as f64 / (stats.hits() + stats.misses()) as f64,
        ));
        for v in 0..n {
            cache.find_best_value(primary, &sol, v, None, &mut accesses);
        }
        let secs = stream.replay(t, "core.window_cache.hit", |call, _, _| {
            black_box(cache.find_best_value(primary, &sol, call % n, None, &mut accesses));
        });
        values.push(("core.window_cache.ns_per_hit", per_call(secs)));

        // rtree::query window counting, first window of every call.
        let counter = AccessCounter::new();
        let mut results = 0usize;
        let secs = stream.replay(t, "rtree.window_query", |_, v, windows| {
            results += rtree.tree(v).count_window_counted(&windows[0].1, &counter);
        });
        values.push(("rtree.window_query.ns_per_query", per_call(secs)));
        values.push((
            "rtree.window_query.accesses_per_query",
            counter.get() as f64 / calls as f64,
        ));
        values.push((
            "rtree.window_query.results_per_query",
            results as f64 / calls as f64,
        ));

        // core::PairwiseJoin of datasets 0 and 1.
        let mut pairs = 0usize;
        let join_secs: Vec<f64> = (0..SIDE_REPS)
            .map(|_| {
                let (join, secs) = t.span("core.pairwise", |_| {
                    PairwiseJoin::join(rtree.tree(0), rtree.tree(1))
                });
                pairs = join.pairs.len();
                secs
            })
            .collect();
        let join_s = median(&join_secs);
        values.push(("core.pairwise.join_s", join_s));
        values.push(("core.pairwise.pairs", pairs as f64));
        values.push((
            "core.pairwise.ns_per_pair",
            join_s * 1e9 / pairs.max(1) as f64,
        ));

        // query::ConflictState: re-instantiate the stream's variable with
        // the value the walk moved to next.
        let graph = rtree.graph();
        stream.load(0, &mut sol);
        let mut conflicts = ConflictState::evaluate(graph, &sol, rtree.rect_of());
        let secs = stream.replay(t, "query.conflicts", |call, v, _| {
            let next = stream.assignments[((call + 1) % calls) * n + v] as usize;
            conflicts.reassign(graph, &mut sol, v, next, rtree.rect_of());
        });
        black_box(conflicts.total_violations());
        values.push(("query.conflicts.ns_per_reassign", per_call(secs)));

        values.extend(side_runs(w, rtree, primary, fbv_ns, seed, scratch, t));
    });
    values
}

/// ILS under the three observability settings, and the two 2-thread side
/// runs. None of this enters the end-to-end numbers.
fn side_runs(
    w: &Workload,
    rtree: &Instance,
    primary: &Instance,
    fbv_ns: f64,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Values {
    let seed = derive_seed(seed, SEED_SIDE);
    let budget = SearchBudget::iterations(w.probe_ils_steps);
    let ils = Ils::new(IlsConfig::default());
    let run_ils = |ctx: SearchContext| {
        let mut rng = StdRng::seed_from_u64(seed);
        ils.search(primary, &ctx, &mut rng)
    };
    let jsonl = || {
        let sink = JsonlSink::create(scratch.join("obs-probe.jsonl")).expect("scratch is writable");
        SearchContext::local(budget)
            .with_obs(ObsHandle::enabled().with_sink(Arc::new(sink)))
            .with_telemetry(TelemetryConfig {
                progress_every: Some(PROGRESS_EVERY),
                ..TelemetryConfig::default()
            })
    };
    let (mut off, mut timer, mut events) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut miss_ratio) = (0u64, 0.0);
    for _ in 0..SIDE_REPS {
        let (run, secs) = tracer.span("obs.disabled", |_| run_ils(SearchContext::local(budget)));
        off.push(secs);
        steps = run.stats.steps;
        let (hits, misses) = (run.stats.cache.hits(), run.stats.cache.misses());
        miss_ratio = misses as f64 / (hits + misses).max(1) as f64;
        let (_, secs) = tracer.span("obs.timer", |_| {
            run_ils(SearchContext::local(budget).with_obs(ObsHandle::timer_only()))
        });
        timer.push(secs);
        let (_, secs) = tracer.span("obs.jsonl", |_| run_ils(jsonl()));
        events.push(secs);
    }
    let off_s = median(&off);
    let ils_ns_per_step = off_s * 1e9 / steps.max(1) as f64;

    // Two ILS restarts on one thread vs two.
    let portfolio = |threads: usize| {
        ParallelPortfolio::new(ils.clone(), PortfolioConfig::new(2, threads))
            .run(primary, &budget, seed)
    };
    // Grid pairwise join (PJM over a 2-variable query) on one thread vs two.
    let pair = Instance::new(QueryGraph::chain(2), [rtree.rects(0), rtree.rects(1)])
        .expect("two non-empty datasets")
        .with_backend(BackendKind::Grid);
    let pair_t2 = pair.clone().with_grid_threads(2);
    let pjm = |instance: &Instance| {
        Pjm::default()
            .run(instance, &SearchBudget::iterations(u64::MAX), usize::MAX)
            .solutions
            .len()
    };
    let (mut port_t1, mut port_t2, mut pjm_t1, mut pjm_t2) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SIDE_REPS {
        port_t1.push(tracer.span("core.portfolio.t1", |_| portfolio(1)).1);
        port_t2.push(tracer.span("core.portfolio.t2", |_| portfolio(2)).1);
        let (found_t1, secs) = tracer.span("rtree.grid.pjm.t1", |_| pjm(&pair));
        pjm_t1.push(secs);
        let (found_t2, secs) = tracer.span("rtree.grid.pjm.t2", |_| pjm(&pair_t2));
        pjm_t2.push(secs);
        assert_eq!(found_t1, found_t2, "grid PJM differs between thread counts");
    }
    vec![
        (
            "core.ils.self_ns_per_step",
            ils_ns_per_step - miss_ratio * fbv_ns,
        ),
        ("obs.timer_overhead_ratio", median(&timer) / off_s),
        ("obs.jsonl_overhead_ratio", median(&events) / off_s),
        (
            "core.portfolio.speedup_t2",
            median(&port_t1) / median(&port_t2),
        ),
        (
            "rtree.grid.pjm_speedup_t2",
            median(&pjm_t1) / median(&pjm_t2),
        ),
    ]
}
