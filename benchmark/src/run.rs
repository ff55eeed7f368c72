//! One benchmark run: a workload, a seed, a measuring time and a tracing
//! flag in; named metrics, an operation tally and a correctness verdict out.
//!
//! The untraced run yields the end-to-end metrics; the traced run yields
//! the per-layer metrics and the span file. Single process, closed loop,
//! one operation at a time.

use crate::metrics::{self, MetricDef};
use crate::pipeline::{generate_inputs, run_sample, setup, Built, Inputs, OpOutcome, Sample};
use crate::probes::{layer_probes, setup_stages, Values};
use crate::stats::{steady_total, summarize, Chunks, Summary};
use crate::trace::Tracer;
use crate::workloads::Workload;
use mwsj_obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Setups (and direct stage passes) of a traced run.
const TRACED_SETUP_SAMPLES: usize = 3;
/// Fewest timed setups and solve samples of an untraced run, whatever
/// `--seconds` says. One setup is made and discarded first; there is no
/// warm-up solve sample: the chunk-wise floor shrugs off a slow first one.
const MIN_SAMPLES: usize = 5;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Benchmark seed: the same seed gives the same inputs and op seeds.
    pub seed: u64,
    /// How long to keep taking solve samples.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Smoke-test mode: one sample of everything, no warm-ups.
    pub quick: bool,
    /// Where the CSV inputs go (a sub-directory per run, removed after).
    pub out_root: PathBuf,
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name, unit and direction.
    pub def: MetricDef,
    /// The value (for timings the [`steady_total`] of the passes).
    pub value: f64,
    /// Median / quartiles / n of the passes' plain totals behind a timing.
    pub summary: Option<Summary>,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Operations executed (setups and op repetitions, warm-ups included).
    pub attempted: u64,
    /// Operations that failed a guard.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Every declared metric of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// The span file of a traced run (JSON Lines).
    pub spans_jsonl: Option<String>,
    /// `(span name, share covered by child spans)` of every `setup` and
    /// `solve` span of a traced run.
    pub coverage: Vec<(String, f64)>,
}

impl RunReport {
    /// `true` when every output passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (`name → {value, unit}`).
    pub fn contract_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(m.value)),
                                    ("unit".into(), Json::Str(m.def.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The metrics with direction and, for timings, the median, quartiles
    /// and count of the passes' plain totals (the value itself is the
    /// steadied total, see [`steady_total`]).
    pub fn detail_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.def.unit.into())),
                        ("better".into(), Json::Str(m.def.better.name().into())),
                    ];
                    if let Some(s) = m.summary {
                        fields.push(("total_median".into(), Json::Num(s.median)));
                        fields.push(("total_q1".into(), Json::Num(s.q1)));
                        fields.push(("total_q3".into(), Json::Num(s.q3)));
                        fields.push(("n".into(), Json::Num(s.n as f64)));
                    }
                    (m.def.name.clone(), Json::Obj(fields))
                })
                .collect(),
        )
    }
}

/// Tally of executed and failed operations.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn sample(&mut self, label: &str, sample: &Sample) {
        self.attempted += sample.attempted();
        self.failures
            .extend(sample.failures().map(|f| format!("{label} {f}")));
    }
}

/// Runs workload `w` once under `opts`. `Err` means the run could not be
/// carried out at all (inputs unwritable, setup failed); failed operations
/// are reported in the `Ok` report.
pub fn run_workload(w: &Workload, opts: &RunOpts) -> Result<RunReport, String> {
    let w = if opts.quick { w.quick() } else { w.clone() };
    let inputs = generate_inputs(&w, opts.seed, &opts.out_root)?;
    let mut tally = Tally::default();
    let mut on = Tracer::new(opts.traced, w.name);
    let values = if opts.traced {
        traced_run(&w, opts, &inputs, &mut tally, &mut on)?
    } else {
        untraced_run(&w, opts, &inputs, &mut tally)?
    };
    let defs = if opts.traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let metrics = defs
        .into_iter()
        .map(|def| {
            // A per-layer metric of a layer this workload never enters
            // reads 0: that *is* the bypass.
            let (value, summary) = values
                .get(def.name.as_str())
                .copied()
                .unwrap_or((0.0, None));
            Metric {
                def,
                value,
                summary,
            }
        })
        .collect();
    let coverage = on
        .spans()
        .iter()
        .filter(|s| s.name == "setup" || s.name == "solve")
        .map(|s| (s.name.clone(), on.child_coverage(s.id)))
        .collect();
    Ok(RunReport {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failures.len() as u64,
        failures: tally.failures,
        metrics,
        spans_jsonl: opts.traced.then(|| on.to_jsonl()),
        coverage,
    })
}

type Measured = BTreeMap<String, (f64, Option<Summary>)>;

/// A timing: [`steady_total`] of the passes' chunks (only those called
/// `name`, if given) as the value, with the quartiles and count of the
/// passes' plain totals beside it.
fn timing(passes: &[Chunks], name: Option<&str>) -> (f64, Option<Summary>) {
    let totals: Vec<f64> = passes
        .iter()
        .map(|pass| {
            pass.iter()
                .filter(|(chunk, _)| name.is_none_or(|n| n == *chunk))
                .map(|(_, secs)| secs)
                .sum()
        })
        .collect();
    (steady_total(passes, name), Some(summarize(&totals)))
}

/// Runs setup once more: frees the instance `built` holds (so two never
/// coexist), builds a fresh one into it and returns the stage walls.
fn setup_again(
    w: &Workload,
    inputs: &Inputs,
    built: &mut Option<Built>,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<Chunks, String> {
    drop(built.take());
    tally.attempted += 1;
    let (fresh, chunks) = setup(w, inputs, tracer)?;
    *built = Some(fresh);
    Ok(chunks)
}

/// Takes one solve sample on `tracer`. Every sample of a run does the same
/// work, so its counts are checked against `reference` (the run's first
/// sample).
fn take_sample(
    w: &Workload,
    built: &Built,
    inputs: &Inputs,
    seed: u64,
    reference: &mut Option<Sample>,
    tracer: &mut Tracer,
) -> Sample {
    let mut sample = run_sample(w, built, inputs, seed, tracer);
    sample.check_repeats(reference.get_or_insert_with(|| sample.clone()));
    sample
}

fn untraced_run(
    w: &Workload,
    opts: &RunOpts,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut off = Tracer::new(false, w.name);
    let min_samples = if opts.quick { 1 } else { MIN_SAMPLES };
    let mut built = None;
    if !opts.quick {
        // Warm-up, discarded: the first setup of a process pays for growing
        // the heap.
        setup_again(w, inputs, &mut built, tally, &mut off)?;
    }
    // Setups and solve samples alternate, so both are spread over the whole
    // measuring time and a slow spell of the host cannot sit on all of
    // either. Every sample therefore runs on a freshly built instance.
    let mut reference = None;
    let (mut setup_passes, mut samples) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while samples.len() < min_samples || started.elapsed().as_secs_f64() < opts.seconds {
        setup_passes.push(setup_again(w, inputs, &mut built, tally, &mut off)?);
        let fresh = built.as_ref().expect("setup_again leaves an instance");
        samples.push(take_sample(
            w,
            fresh,
            inputs,
            opts.seed,
            &mut reference,
            &mut off,
        ));
    }
    let built = built.expect("at least one setup");
    for (i, sample) in samples.iter().enumerate() {
        tally.sample(&format!("sample {i}"), sample);
    }

    let (best_similarity, quality_auc) = samples[0].quality();
    let solve_passes: Vec<Chunks> = samples.iter().map(Sample::chunks).collect();
    let solve = timing(&solve_passes, None);
    let steps = samples[0].steps() as f64;
    let rate = solve.1.map(|s| Summary {
        median: steps / s.median,
        q1: steps / s.q3,
        q3: steps / s.q1,
        n: s.n,
    });
    let footprint = built.bytes_per_object(inputs.objects);
    Ok([
        ("setup_s", timing(&setup_passes, None)),
        ("solve_s", solve),
        ("steps_per_s", (steps / solve.0, rate)),
        ("quality_auc", (quality_auc, None)),
        ("best_similarity", (best_similarity, None)),
        ("bytes_per_object", (footprint, None)),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect())
}

fn traced_run(
    w: &Workload,
    opts: &RunOpts,
    inputs: &Inputs,
    tally: &mut Tally,
    on: &mut Tracer,
) -> Result<Measured, String> {
    let mut off = Tracer::new(false, w.name);
    let (passes, min_pairs) = if opts.quick {
        (1, 1)
    } else {
        (TRACED_SETUP_SAMPLES, 2)
    };
    let mut measured = Measured::new();
    let mut timed = |name: &str, value: (f64, Option<Summary>)| {
        measured.insert(name.to_string(), value);
    };

    // Setup, traced: its stages as setup calls them.
    let mut built = None;
    let mut setup_passes = Vec::new();
    for _ in 0..passes {
        setup_passes.push(setup_again(w, inputs, &mut built, tally, on)?);
    }
    let built = built.expect("at least one setup");
    let from_csv = timing(&setup_passes, Some("datagen.from_csv"));
    timed(
        "datagen.csv_mb_per_s",
        (inputs.csv_bytes as f64 / 1e6 / from_csv.0, None),
    );
    timed("datagen.from_csv_s", from_csv);
    timed(
        "core.instance_new_s",
        timing(&setup_passes, Some("core.instance_new")),
    );

    // The index builds, called directly on the first instance's data.
    let first = &built.instances[0];
    let objects: usize = (0..first.rtree.n_vars())
        .map(|v| first.rtree.cardinality(v))
        .sum();
    let (stage_passes, sizes): (Vec<Chunks>, Vec<Values>) =
        (0..passes).map(|_| setup_stages(&first.rtree, on)).unzip();
    let bulk_load = timing(&stage_passes, Some("rtree.bulk_load"));
    timed(
        "rtree.bulk_load_ns_per_obj",
        (bulk_load.0 * 1e9 / objects as f64, None),
    );
    timed("rtree.bulk_load_s", bulk_load);
    timed(
        "rtree.flat_freeze_s",
        timing(&stage_passes, Some("rtree.flat_freeze")),
    );
    timed(
        "rtree.grid_build_s",
        timing(&stage_passes, Some("rtree.grid_build")),
    );
    for (name, value) in &sizes[0] {
        timed(name, (*value, None));
    }

    // Ops: untraced and traced samples alternate, so both see the same
    // machine state; their ratio is the tracing overhead.
    let (mut plain, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let mut reference = None;
    let started = Instant::now();
    while traced.len() < min_pairs || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        plain.push(take_sample(
            w,
            &built,
            inputs,
            opts.seed,
            &mut reference,
            &mut off,
        ));
        traced.push(take_sample(
            w,
            &built,
            inputs,
            opts.seed,
            &mut reference,
            on,
        ));
    }
    for (label, samples) in [("untraced sample", &plain), ("traced sample", &traced)] {
        for (i, sample) in samples.iter().enumerate() {
            tally.sample(&format!("{label} {i}"), sample);
        }
    }
    let chunks_of = |samples: &[Sample]| samples.iter().map(Sample::chunks).collect::<Vec<_>>();
    let traced_passes = chunks_of(&traced);
    timed(
        "trace.overhead_ratio",
        (
            steady_total(&traced_passes, None) / steady_total(&chunks_of(&plain), None),
            None,
        ),
    );
    for op in &traced[0].ops {
        let wall = timing(&traced_passes, Some(op.kind.name()));
        for (name, value) in op_metrics(op, wall) {
            timed(&name, value);
        }
    }

    // Probes.
    let primary = first.on(w.backend);
    for (name, value) in layer_probes(w, &first.rtree, primary, opts.seed, inputs.dir(), on) {
        timed(name, (value, None));
    }
    Ok(measured)
}

/// `core.<op>.*` of one op: wall from the traced spans, counts from the
/// (sample-invariant) outcome.
fn op_metrics(
    op: &OpOutcome,
    wall: (f64, Option<Summary>),
) -> Vec<(String, (f64, Option<Summary>))> {
    let wall_ns = wall.0 * 1e9;
    let steps = op.steps as f64;
    let accesses = op.node_accesses as f64;
    let lookups = (op.cache_hits + op.cache_misses).max(1) as f64;
    let reps = op.rep_walls.len().max(1) as f64;
    let fields: [(&str, (f64, Option<Summary>)); 10] = [
        ("wall_s", wall),
        ("steps", (steps, None)),
        ("ns_per_step", (wall_ns / steps.max(1.0), None)),
        ("node_accesses", (accesses, None)),
        ("accesses_per_step", (accesses / steps.max(1.0), None)),
        ("ns_per_access", (wall_ns / accesses.max(1.0), None)),
        ("cache_hit_ratio", (op.cache_hits as f64 / lookups, None)),
        ("steps_to_best", (op.steps_to_best as f64 / reps, None)),
        ("best_similarity", (op.quality().0, None)),
        ("solutions", (op.solutions.len() as f64, None)),
    ];
    metrics::op_metrics(op.kind)
        .into_iter()
        .map(|def| {
            let field = def.name.rsplit('.').next().expect("split yields an item");
            let (_, value) = fields
                .iter()
                .find(|(name, _)| *name == field)
                .expect("every declared op field is computed");
            (def.name, *value)
        })
        .collect()
}
