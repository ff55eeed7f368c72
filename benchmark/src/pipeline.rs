//! The measured pipeline: seeded inputs → CSV files → setup → the pinned
//! operation list, with every output checked by the harness itself.
//!
//! Only public library functions are called and every knob is left at the
//! library default (leaf layout, tree parameters, grid threads, algorithm
//! configs), so a later change of a default shows up as a gain or a loss.

use crate::stats::Chunks;
use crate::trace::Tracer;
use crate::workloads::{Op, OpKind, Workload};
use mwsj_core::{
    derive_seed, BackendKind, ExactJoinOutcome, Gils, GilsConfig, Ibb, IbbConfig, Ils, IlsConfig,
    Instance, Pjm, RunOutcome, Sea, SeaConfig, SearchBudget, SynchronousTraversal, WindowReduction,
};
use mwsj_datagen::Dataset;
use mwsj_obs::{AnytimeCurve, ResourceReport};
use mwsj_query::{ConflictState, QueryGraph, Solution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Seed-stream indices (`derive_seed(seed, …)`): one per consumer, so
/// changing one consumer never shifts another's inputs. `SEED_DATA + j`
/// seeds the data of instance `j`; the probes use the indices in between.
const SEED_OPS: usize = 0;
const SEED_DATA: usize = 16;

/// The files of one join instance.
#[derive(Debug)]
pub struct InstanceInputs {
    /// One CSV file per query variable.
    pub paths: Vec<PathBuf>,
    /// The planted exact solution (exact-join row only).
    pub planted: Option<Solution>,
}

/// The generated inputs of one run: the query and, per instance, one CSV
/// file per variable. The directory is removed when the value is dropped.
#[derive(Debug)]
pub struct Inputs {
    /// The query graph (the same for every instance).
    pub graph: QueryGraph,
    /// The workload's independent join instances.
    pub instances: Vec<InstanceInputs>,
    /// Total bytes of the CSV files.
    pub csv_bytes: u64,
    /// Σ cardinalities over all instances.
    pub objects: u64,
    dir: PathBuf,
}

impl Inputs {
    /// The run's scratch directory (holds the CSV files; removed on drop).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Generates the workload's data from `seed` and writes it as CSV under
/// `out_root` (untimed: this stands for files the user already has).
pub fn generate_inputs(w: &Workload, seed: u64, out_root: &Path) -> Result<Inputs, String> {
    let dir = out_root.join(format!("{}-{seed}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut inputs = Inputs {
        graph: w.shape.graph(w.n_vars),
        instances: Vec::new(),
        csv_bytes: 0,
        objects: 0,
        dir,
    };
    for j in 0..w.instances {
        let generated = draw_instance(w, &inputs.graph, derive_seed(seed, SEED_DATA + j))?;
        let mut paths = Vec::new();
        for (v, dataset) in generated.datasets.iter().enumerate() {
            let path = inputs.dir.join(format!("instance{j}-var{v}.csv"));
            dataset
                .write_csv_file(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            inputs.csv_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            inputs.objects += dataset.len() as u64;
            paths.push(path);
        }
        inputs.instances.push(InstanceInputs {
            paths,
            planted: generated.planted,
        });
    }
    Ok(inputs)
}

/// Most data seeds tried for one instance of a heuristic row.
const MAX_DRAWS: usize = 32;

/// Generates the data of one instance from `data_seed`. A heuristic stops
/// the moment it finds an exact solution, so a heuristic row needs data
/// that has none: the density makes one unlikely, not impossible (least so
/// on clustered data), so every draw is checked with an exact join and a
/// draw that has a solution is replaced by the next one of the seed's
/// stream. The first draw is `data_seed` itself; the choice depends on
/// nothing but the seed. Rows that plant a solution are left as drawn.
fn draw_instance(
    w: &Workload,
    graph: &QueryGraph,
    data_seed: u64,
) -> Result<mwsj_datagen::Workload, String> {
    let must_be_unsolvable = !w.plant && w.ops.iter().any(|o| o.kind.is_heuristic());
    let unbounded = SearchBudget::iterations(u64::MAX);
    for draw in 0..MAX_DRAWS {
        let draw_seed = match draw {
            0 => data_seed,
            _ => derive_seed(data_seed, draw),
        };
        let generated = w.spec(draw_seed).generate();
        if !must_be_unsolvable {
            return Ok(generated);
        }
        let instance = Instance::new(graph.clone(), generated.datasets.iter())
            .map_err(|e| format!("Instance::new: {e}"))?;
        let join = Pjm::default().run(&instance, &unbounded, 1);
        if join.complete && join.solutions.is_empty() {
            return Ok(generated);
        }
    }
    Err(format!(
        "{}: {MAX_DRAWS} draws from data seed {data_seed} all have an exact solution",
        w.name
    ))
}

/// One instance as setup leaves it: the R*-tree view always, the grid view
/// when the workload uses the grid (both share the data).
#[derive(Debug)]
pub struct BuiltInstance {
    /// Backend = R*-tree.
    pub rtree: Instance,
    /// Backend = grid, when the workload needs it.
    pub grid: Option<Instance>,
}

impl BuiltInstance {
    /// The view answering queries with `backend`.
    pub fn on(&self, backend: BackendKind) -> &Instance {
        match backend {
            BackendKind::RTree => &self.rtree,
            BackendKind::Grid => self.grid.as_ref().expect("workload built no grid"),
        }
    }
}

/// Everything setup built.
#[derive(Debug)]
pub struct Built {
    /// One entry per instance of the workload.
    pub instances: Vec<BuiltInstance>,
}

impl Built {
    /// `fill_resource_report` total over Σ cardinalities.
    pub fn bytes_per_object(&self, objects: u64) -> f64 {
        let bytes: u64 = self
            .instances
            .iter()
            .map(|built| {
                let mut report = ResourceReport::new();
                built
                    .grid
                    .as_ref()
                    .unwrap_or(&built.rtree)
                    .fill_resource_report(&mut report);
                report.total_bytes()
            })
            .sum();
        bytes as f64 / objects as f64
    }
}

/// Everything a user pays before the first step, for every instance: CSV
/// files → `Dataset::read_csv_file` → `Instance::new` (rect copy, STR bulk
/// load, flat freeze) → `with_backend` (grid build, grid rows only).
/// Returns what was built and the wall seconds of every stage call, in
/// order (they are the children of the `setup` span and add up to it).
pub fn setup(
    w: &Workload,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<(Built, Chunks), String> {
    let mut chunks = Chunks::new();
    let (built, _) = tracer.span("setup", |t| -> Result<Built, String> {
        let mut instances = Vec::with_capacity(inputs.instances.len());
        for files in &inputs.instances {
            let mut datasets = Vec::with_capacity(files.paths.len());
            for path in &files.paths {
                let (dataset, secs) = t.span("datagen.from_csv", |_| Dataset::read_csv_file(path));
                chunks.push(("datagen.from_csv", secs));
                datasets.push(dataset.map_err(|e| format!("read {}: {e}", path.display()))?);
            }
            let (instance, secs) = t.span("core.instance_new", |_| {
                Instance::new(inputs.graph.clone(), datasets)
            });
            chunks.push(("core.instance_new", secs));
            let rtree = instance.map_err(|e| format!("Instance::new: {e}"))?;
            let grid = w.needs_grid().then(|| {
                let (grid, secs) = t.span("core.with_backend", |_| {
                    rtree.clone().with_backend(BackendKind::Grid)
                });
                chunks.push(("core.with_backend", secs));
                grid
            });
            instances.push(BuiltInstance { rtree, grid });
        }
        Ok(Built { instances })
    });
    Ok((built?, chunks))
}

/// What one entry of the operation list did, summed over its repetitions
/// and recounted by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// Which op.
    pub kind: OpKind,
    /// Wall seconds of each repetition.
    pub rep_walls: Vec<f64>,
    /// Algorithm steps.
    pub steps: u64,
    /// Index node / cell accesses.
    pub node_accesses: u64,
    /// Window-cache hits (heuristics).
    pub cache_hits: u64,
    /// Window-cache misses (heuristics).
    pub cache_misses: u64,
    /// Σ over repetitions of the step at which the final best was reached
    /// (anytime ops).
    pub steps_to_best: u64,
    /// Σ over repetitions of the similarity of the returned best,
    /// recomputed from the data (anytime ops).
    pub similarity: f64,
    /// Σ over repetitions of the similarity-vs-steps AUC (anytime ops).
    pub auc: f64,
    /// The exact solution set, sorted (exact ops).
    pub solutions: Vec<Vec<usize>>,
    /// Why the op counts as failed, if it does.
    pub failure: Option<String>,
}

impl OpOutcome {
    fn empty(kind: OpKind) -> Self {
        OpOutcome {
            kind,
            rep_walls: Vec::new(),
            steps: 0,
            node_accesses: 0,
            cache_hits: 0,
            cache_misses: 0,
            steps_to_best: 0,
            similarity: 0.0,
            auc: 0.0,
            solutions: Vec::new(),
            failure: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }

    /// Mean `(best similarity, quality AUC)` the op's repetitions
    /// delivered. An exact join that returns a verified, non-empty
    /// solution set has delivered similarity 1; it has no anytime curve,
    /// so it scores the same on both.
    pub fn quality(&self) -> (f64, f64) {
        if self.kind.is_anytime() {
            let reps = self.rep_walls.len().max(1) as f64;
            (self.similarity / reps, self.auc / reps)
        } else if self.failure.is_none() && !self.solutions.is_empty() {
            (1.0, 1.0)
        } else {
            (0.0, 0.0)
        }
    }

    /// Everything that must repeat exactly between samples (all but wall).
    fn counts(&self) -> (u64, u64, u64, u64, u64, u64, u64, &[Vec<usize>]) {
        (
            self.steps,
            self.node_accesses,
            self.cache_hits,
            self.cache_misses,
            self.steps_to_best,
            self.similarity.to_bits(),
            self.auc.to_bits(),
            &self.solutions,
        )
    }
}

/// One pass over the workload's operation list.
#[derive(Debug, Clone)]
pub struct Sample {
    /// One outcome per entry of the list.
    pub ops: Vec<OpOutcome>,
}

impl Sample {
    /// Algorithm steps of the whole list.
    pub fn steps(&self) -> u64 {
        self.ops.iter().map(|o| o.steps).sum()
    }

    /// Wall seconds of every op repetition, in order, named after the op.
    pub fn chunks(&self) -> Chunks {
        self.ops
            .iter()
            .flat_map(|o| o.rep_walls.iter().map(|&secs| (o.kind.name(), secs)))
            .collect()
    }

    /// Mean `(best similarity, quality AUC)` over the ops.
    pub fn quality(&self) -> (f64, f64) {
        let n = self.ops.len() as f64;
        let (similarity, auc) = self
            .ops
            .iter()
            .map(OpOutcome::quality)
            .fold((0.0, 0.0), |acc, q| (acc.0 + q.0, acc.1 + q.1));
        (similarity / n, auc / n)
    }

    /// Operations executed (repetitions count one each).
    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|o| o.rep_walls.len() as u64).sum()
    }

    /// Failure messages of this sample.
    pub fn failures(&self) -> impl Iterator<Item = String> + '_ {
        self.ops.iter().filter_map(|o| {
            o.failure
                .as_ref()
                .map(|why| format!("{}: {why}", o.kind.name()))
        })
    }

    /// Marks every op whose counts differ from `reference` (the first
    /// sample) as failed: under pinned step budgets any difference is a
    /// determinism bug, not noise.
    pub fn check_repeats(&mut self, reference: &Sample) {
        for (mine, first) in self.ops.iter_mut().zip(&reference.ops) {
            if mine.counts() != first.counts() {
                mine.fail("counters differ between samples".into());
            }
        }
    }
}

/// Runs the pinned operation list once (span `solve`, one child span per
/// op repetition) and checks every output. Every sample of a run does
/// exactly the same work.
pub fn run_sample(
    w: &Workload,
    built: &Built,
    inputs: &Inputs,
    seed: u64,
    tracer: &mut Tracer,
) -> Sample {
    let (mut ops, _) = tracer.span("solve", |t| {
        w.ops
            .iter()
            .enumerate()
            .map(|(i, op)| run_op(w, op, built, derive_seed(derive_seed(seed, SEED_OPS), i), t))
            .collect::<Vec<_>>()
    });
    check_exact_ops_agree(&mut ops, &inputs.instances[0]);
    Sample { ops }
}

/// Runs one entry of the list. Repetition `r` runs on instance
/// `r mod instances` with its own seed, so the repetitions of a heuristic
/// are independently seeded restarts (exact joins and IBB draw no random
/// numbers: their repetitions are identical). A panic inside the engine is
/// caught and counted as a failed op.
fn run_op(w: &Workload, op: &Op, built: &Built, seed: u64, tracer: &mut Tracer) -> OpOutcome {
    let backend = op.kind.forced_backend().unwrap_or(w.backend);
    let mut out = OpOutcome::empty(op.kind);
    for rep in 0..op.reps {
        let instance = built.instances[rep as usize % built.instances.len()].on(backend);
        let rep_seed = derive_seed(seed, rep as usize);
        let (result, secs) = tracer.span(op.kind.name(), |_| {
            catch_unwind(AssertUnwindSafe(|| execute(op, instance, rep_seed)))
        });
        out.rep_walls.push(secs);
        match result {
            Err(panic) => out.fail(format!("panicked: {}", panic_message(&panic))),
            Ok(Executed::Anytime(run)) => check_anytime(op, instance, &run, &mut out),
            Ok(Executed::Exact(join)) => check_exact(instance, join, rep, &mut out),
        }
    }
    out
}

enum Executed {
    Anytime(Box<RunOutcome>),
    Exact(ExactJoinOutcome),
}

fn execute(op: &Op, instance: &Instance, seed: u64) -> Executed {
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = SearchBudget::iterations(op.steps);
    // Exact joins run to completion: a budget must be set, so set one
    // that cannot be reached.
    let unbounded = SearchBudget::iterations(u64::MAX);
    match op.kind {
        OpKind::Ils => Executed::Anytime(Box::new(
            Ils::new(IlsConfig::default()).run(instance, &steps, &mut rng),
        )),
        OpKind::Gils => Executed::Anytime(Box::new(
            Gils::new(GilsConfig::default()).run(instance, &steps, &mut rng),
        )),
        OpKind::Sea => Executed::Anytime(Box::new(
            Sea::new(SeaConfig::default_for(instance)).run(instance, &steps, &mut rng),
        )),
        OpKind::Ibb => Executed::Anytime(Box::new(
            Ibb::new(IbbConfig::default()).run(instance, &steps),
        )),
        OpKind::Wr | OpKind::WrGrid => {
            Executed::Exact(WindowReduction::new().run(instance, &unbounded, usize::MAX))
        }
        OpKind::St => {
            Executed::Exact(SynchronousTraversal::new().run(instance, &unbounded, usize::MAX))
        }
        OpKind::Pjm | OpKind::PjmGrid => {
            Executed::Exact(Pjm::default().run(instance, &unbounded, usize::MAX))
        }
    }
}

/// Guards of a heuristic / IBB run. Nothing reported by the run is taken
/// on trust: violations are recounted from the data, similarity and the
/// AUC are recomputed from the recount and the trace.
fn check_anytime(op: &Op, instance: &Instance, run: &RunOutcome, out: &mut OpOutcome) {
    let graph = instance.graph();
    let recount = ConflictState::evaluate(graph, &run.best, instance.rect_of()).total_violations();
    if recount != run.best_violations {
        out.fail(format!(
            "best_violations = {} but the returned solution violates {recount} conditions",
            run.best_violations
        ));
    }
    if run.stats.steps < op.steps {
        if op.kind.is_heuristic() {
            out.fail(if recount == 0 {
                "instance has an exact solution, pick another seed".to_string()
            } else {
                format!("stopped after {} of {} steps", run.stats.steps, op.steps)
            });
        } else if !run.proven_optimal {
            out.fail(format!(
                "stopped after {} of {} steps without proving optimality",
                run.stats.steps, op.steps
            ));
        }
    }
    let mut curve = AnytimeCurve::new();
    for p in &run.trace {
        curve.record(p.step, p.elapsed.as_secs_f64() * 1000.0, p.similarity);
    }
    curve.set_totals(run.stats.steps, run.stats.node_accesses, 0.0);
    let similarity = graph.similarity_of_violations(recount);
    if (curve.final_similarity() - similarity).abs() > 1e-12 {
        out.fail(format!(
            "trace ends at similarity {} but the returned solution has {similarity}",
            curve.final_similarity()
        ));
    }
    out.steps += run.stats.steps;
    out.node_accesses += run.stats.node_accesses;
    out.cache_hits += run.stats.cache.hits();
    out.cache_misses += run.stats.cache.misses();
    out.steps_to_best += curve.points().last().map_or(0, |p| p.step);
    out.similarity += similarity;
    out.auc += curve.auc_steps();
}

/// Guards of one exact-join repetition: complete, every solution exact
/// (recounted), no duplicates, and the same set as the previous repetition.
fn check_exact(instance: &Instance, join: ExactJoinOutcome, rep: u32, out: &mut OpOutcome) {
    if !join.complete {
        out.fail("enumeration did not complete".into());
    }
    let graph = instance.graph();
    if let Some(bad) = join
        .solutions
        .iter()
        .find(|s| ConflictState::evaluate(graph, s, instance.rect_of()).total_violations() != 0)
    {
        out.fail(format!("returned a non-exact solution {bad}"));
    }
    let mut solutions: Vec<Vec<usize>> = join
        .solutions
        .iter()
        .map(|s| s.as_slice().to_vec())
        .collect();
    solutions.sort_unstable();
    if solutions.windows(2).any(|pair| pair[0] == pair[1]) {
        out.fail("returned a duplicate solution".into());
    }
    if rep > 0 && solutions != out.solutions {
        out.fail("solution set differs between repetitions".into());
    }
    out.steps += join.stats.steps;
    out.node_accesses += join.stats.node_accesses;
    out.solutions = solutions;
}

/// WR, ST and PJM on either backend must enumerate one and the same set,
/// and it must contain the planted solution.
fn check_exact_ops_agree(ops: &mut [OpOutcome], inputs: &InstanceInputs) {
    let Some(reference) = ops
        .iter()
        .find(|o| !o.kind.is_anytime())
        .map(|o| (o.kind, o.solutions.clone()))
    else {
        return;
    };
    for op in ops.iter_mut().filter(|o| !o.kind.is_anytime()) {
        if op.solutions != reference.1 {
            op.fail(format!(
                "found {} solutions where {} found {}",
                op.solutions.len(),
                reference.0.name(),
                reference.1.len()
            ));
        }
        if let Some(planted) = &inputs.planted {
            if op
                .solutions
                .binary_search(&planted.as_slice().to_vec())
                .is_err()
            {
                op.fail("missed the planted solution".into());
            }
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
