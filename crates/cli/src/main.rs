//! `mwsj` — command-line multiway spatial join processing.
//!
//! [`HELP`] (printed by `mwsj help`) is the one usage listing: every
//! subcommand with its flags. Datasets are CSV files of
//! `min_x,min_y,max_x,max_y` rows (see `mwsj-datagen`). This file is the
//! dispatch plus the commands that run a search (`generate`, `info`,
//! `solve`, `join`, `explain`, `hard-density`); `report`, `watch` and
//! `bench` — the readers of what those runs write — have their own modules.

mod args;
mod bench;
mod query_spec;
mod report;
mod watch;

use args::Args;
use mwsj_core::obs::to_folded;
use mwsj_core::{
    metric, AnytimeSearch, BackendKind, EventSink, Gils, GilsConfig, Ibb, IbbConfig, Ils,
    IlsConfig, Instance, JsonlSink, MetricsSnapshot, ObsHandle, Pjm, Portfolio, RunEvent,
    RunOutcome, Sea, SeaConfig, SearchBudget, SearchContext, SynchronousTraversal, TelemetryConfig,
    TwoStep, TwoStepConfig, WindowReduction,
};
use mwsj_datagen::{Dataset, DatasetSpec, Distribution, QueryShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Why a command stopped: a message for stderr, or stdout itself failed.
/// Every command writes through the one locked stdout `main` hands it, so a
/// reader that goes away (`mwsj join … | head -1`) surfaces here as an
/// `io::Error` and not as `println!`'s panic.
pub enum Failure {
    Message(String),
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Message(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Message(message.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(error: std::io::Error) -> Self {
        Failure::Stdout(error)
    }
}

fn main() -> ExitCode {
    let mut stdout = std::io::stdout().lock();
    let result = run(&mut stdout).and_then(|()| Ok(stdout.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Nobody is reading any more: what was asked for has been delivered.
        Err(Failure::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(stdout: &mut impl Write) -> Result<(), Failure> {
    let args = Args::parse(std::env::args().skip(1)).map_err(|e| e.to_string())?;
    let options_only = args.spec().is_some_and(|spec| !spec.positionals);
    match args.command.as_deref() {
        Some(_) if options_only && !args.positionals.is_empty() => Err(
            args::ArgError::UnexpectedArgument(args.positionals[0].clone())
                .to_string()
                .into(),
        ),
        Some("generate") => cmd_generate(&args, stdout),
        Some("info") => cmd_info(&args, stdout),
        Some("solve") => cmd_solve(&args, stdout),
        Some("explain") => cmd_explain(&args, stdout),
        Some("join") => cmd_join(&args, stdout),
        Some("report") => report::cmd_report(&args, stdout),
        Some("watch") => Ok(watch::cmd_watch(&args)?),
        Some("bench") => bench::cmd_bench(&args, stdout),
        Some("hard-density") => cmd_hard_density(&args, stdout),
        Some("help") | None => Ok(write!(stdout, "{}", HELP)?),
        Some(other) => Err(format!("unknown command '{other}' (try 'mwsj help')").into()),
    }
}

const HELP: &str = "\
mwsj — approximate multiway spatial join processing (EDBT 2002)

USAGE:
  mwsj generate --out FILE --n N --density D [--distribution uniform|clustered|skewed|zipf] [--seed S]
  mwsj info --data FILE [--data FILE]...
  mwsj solve --data FILE [--data FILE]... --query SPEC [--algo ils|gils|sea|sea-hybrid|ibb|two-step]
             [--seconds S | --iterations I] [--seed S] [--top K]
                                            two-step: ILS gets a tenth of each limit given
                                            (at least 1 step, at most 0.5 s), then IBB,
                                            bounded by its result, the whole budget
             [--restarts K]                 K seeded restarts, one after another, each
                                            with 1/K of the budget (heuristics only;
                                            1 <= K <= 1000)
             [--backend rtree|grid]         spatial index backend: R*-trees (default) or a
                                            PBSM-style uniform grid (identical results,
                                            different cost profile; see mwsj explain)
             [--metrics-out FILE]           structured JSONL run events + metrics, each
                                            line flushed as it is written (tail it live
                                            with mwsj watch)
             [--trace-out FILE]             convergence trace as JSONL trace points
             [--profile-out FILE]           per-phase wall-clock profile (folded stacks,
                                            flamegraph-ready)
             [--progress-every N]           emit a 'progress' heartbeat event every N
                                            steps (requires --metrics-out)
             [--stall-steps N | --stall-secs S]
                                            watchdog: emit 'stall_detected' after N steps
                                            (or S seconds) without improvement
             [--stall-abort]                stop a stalled run (stop reason
                                            'stall_aborted')
  mwsj join --data FILE [--data FILE]... --query SPEC [--algo wr|st|pjm] [--limit K] [--seconds S]
            [--backend rtree|grid] [--metrics-out FILE]
                                            --algo st descends the R*-trees and ignores
                                            --backend; it takes overlap queries only.
                                            Solutions print in the algorithm's own
                                            enumeration order (deterministic; it differs
                                            between algorithms and backends and is not
                                            sorted); --limit K keeps its first K
  mwsj explain --data FILE [--data FILE]... --query SPEC [--backend rtree|grid] [--metrics-out FILE]
                                            pre-run cost & selectivity report, no solving:
                                            per-edge selectivity estimates (with exact
                                            observed selectivities when the pair count is
                                            affordable), per-variable window hit rates,
                                            predicted node accesses per window query, and
                                            R*-tree structural quality per level (plus grid
                                            cell-occupancy stats and the predicted number
                                            of entries one query's in-cell sweep tests
                                            with --backend grid); output is byte-stable
                                            for a fixed dataset. --metrics-out writes the
                                            same report as one schema-validated
                                            'explain_report' JSONL event
  mwsj report FILE                          validate + summarise a metrics JSONL file
                                            (or a BENCH_*.json bench snapshot)
  mwsj watch FILE [--poll-ms MS] [--timeout-secs S] [--no-tty]
                                            tail a live metrics JSONL file (any
                                            --metrics-out): in-place status view on a
                                            TTY, one line per update with --no-tty;
                                            exits when the run ends
  mwsj bench snapshot [--tier base|large] [--label L] [--out FILE]
                                            run a pinned suite tier (ILS/GILS/SEA/two-step)
                                            under step budgets into BENCH_<L>.json: work
                                            counters, best similarity, quality AUC and
                                            steps-to-tau per algorithm, memory / cache /
                                            explain tables per instance. No clock is read:
                                            two snapshots of one commit are byte-identical.
                                            base = n=4 toy scale; large = paper scale
                                            (N>=10k, n<=10, all shapes)
  mwsj bench compare BASELINE CANDIDATE     regression gate: every recorded member must match
                                            (integers exactly, derived floats to round-off);
                                            speed is measured by benchmark/ (BENCHMARK.json)
  mwsj hard-density --shape chain|clique|star|cycle|random --vars N --n CARD [--target SOL]

QUERY SPECS:
  chain | clique | cycle | star            sized by the number of --data files
  \"0-1,1-2:contains,0-2:within:0.05\"       explicit edges with optional predicates
";

fn load_datasets(args: &Args) -> Result<Vec<Dataset>, String> {
    let paths = args.values("data");
    if paths.is_empty() {
        return Err("at least one --data FILE is required".into());
    }
    paths
        .iter()
        .map(|p| Dataset::read_csv_file(p).map_err(|e| format!("{p}: {e}")))
        .collect()
}

/// The budget `--seconds` / `--iterations` ask for, or `None` when neither
/// was given: whether a flag is present is never read off its value, and
/// each command brings its own default.
fn budget_from(args: &Args) -> Result<Option<SearchBudget>, String> {
    let limit = args.seconds("seconds")?;
    let iterations: Option<u64> = args
        .value("iterations")
        .map(|_| args.parse_or("iterations", 0, "an iteration count"))
        .transpose()
        .map_err(|e| e.to_string())?;
    if iterations == Some(0) {
        return Err("--iterations must be at least 1".into());
    }
    Ok(match (limit, iterations) {
        (Some(limit), Some(iterations)) => {
            Some(SearchBudget::time_and_iterations(limit, iterations))
        }
        (None, Some(iterations)) => Some(SearchBudget::iterations(iterations)),
        (Some(limit), None) => Some(SearchBudget::time(limit)),
        (None, None) => None,
    })
}

/// Applies `--backend rtree|grid` to a freshly built instance — shared by
/// `solve`, `join` and `explain`.
fn apply_backend(args: &Args, instance: Instance) -> Result<Instance, String> {
    let backend = match args.value("backend") {
        None => BackendKind::RTree,
        Some(name) => BackendKind::parse(name)
            .ok_or_else(|| format!("unknown backend '{name}' (expected rtree|grid)"))?,
    };
    Ok(instance.with_backend(backend))
}

/// Creates the JSONL file an output option names; an error names the path.
fn create_sink(path: &str) -> Result<JsonlSink, String> {
    JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_generate(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let out = args.required("out").map_err(|e| e.to_string())?.to_string();
    let n: usize = args
        .parse_or("n", 10_000, "an object count")
        .map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let density = args.positive("density", 0.05, "a density")?;
    let seed: u64 = args
        .parse_or("seed", 0, "a seed")
        .map_err(|e| e.to_string())?;
    let distribution = match args.value("distribution").unwrap_or("uniform") {
        "uniform" => Distribution::Uniform,
        "clustered" => Distribution::Clustered {
            clusters: 9,
            sigma: 0.03,
        },
        "skewed" => Distribution::Skewed { exponent: 2.0 },
        "zipf" => Distribution::ZipfClustered {
            clusters: 16,
            sigma: 0.02,
            exponent: 1.1,
        },
        other => return Err(format!("unknown distribution '{other}'").into()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = DatasetSpec {
        cardinality: n,
        density,
        distribution,
        constant_extent: false,
    }
    .generate(&mut rng);
    ds.write_csv_file(&out).map_err(|e| e.to_string())?;
    writeln!(stdout, "wrote {n} objects (density {density}) to {out}")?;
    Ok(())
}

fn cmd_info(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    for path in args.values("data") {
        let ds = Dataset::read_csv_file(path).map_err(|e| format!("{path}: {e}"))?;
        let bbox = ds
            .rects()
            .iter()
            .fold(mwsj_geom::Rect::EMPTY, |acc, r| acc.union(r));
        // `Rect`'s own `Display`, but a coordinate near `f64::MAX` in
        // exponent form rather than in its 309 digits.
        let [x0, x1, y0, y1] = [bbox.min.x, bbox.max.x, bbox.min.y, bbox.max.y].map(|c| {
            if c.abs() >= 1e16 {
                format!("{c:e}")
            } else {
                c.to_string()
            }
        });
        writeln!(
            stdout,
            "{path}: {} objects, realized density {}, bbox [{x0}, {x1}]x[{y0}, {y1}]",
            ds.len(),
            report::fixed(ds.realized_density(), 4),
        )?;
    }
    if args.values("data").is_empty() {
        return Err("at least one --data FILE is required".into());
    }
    Ok(())
}

fn cmd_solve(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let datasets = load_datasets(args)?;
    let n_vars = datasets.len();
    let query = args.required("query").map_err(|e| e.to_string())?;
    let graph = query_spec::parse_query(query, n_vars).map_err(|e| e.to_string())?;
    let instance = apply_backend(
        args,
        Instance::new(graph, datasets).map_err(|e| e.to_string())?,
    )?;
    let budget = budget_from(args)?.unwrap_or(SearchBudget::seconds(2.0));
    let seed: u64 = args
        .parse_or("seed", 42, "a seed")
        .map_err(|e| e.to_string())?;
    let top: usize = args
        .parse_or("top", 1, "a count")
        .map_err(|e| e.to_string())?;
    let restarts: usize = args
        .parse_or("restarts", 1, "a restart count")
        .map_err(|e| e.to_string())?;
    if restarts == 0 {
        return Err("--restarts must be at least 1".into());
    }
    if restarts > MAX_RESTARTS {
        return Err(format!("--restarts must be at most {MAX_RESTARTS} (got {restarts})").into());
    }

    let algo = args.value("algo").unwrap_or("ils");
    let portfolio = restarts > 1;

    let metrics_path = args.value("metrics-out").map(str::to_string);
    let trace_path = args.value("trace-out").map(str::to_string);
    let profile_path = args.value("profile-out").map(str::to_string);

    // Live telemetry: progress heartbeats and the stall watchdog.
    let progress_every: u64 = args
        .parse_or("progress-every", 0, "a step count")
        .map_err(|e| e.to_string())?;
    let stall_steps: u64 = args
        .parse_or("stall-steps", 0, "a step count")
        .map_err(|e| e.to_string())?;
    let stall_secs = args.seconds("stall-secs")?;
    let stall_abort = args.flag("stall-abort");
    if stall_abort && stall_steps == 0 && stall_secs.is_none() {
        return Err(
            "--stall-abort needs a stall window (--stall-steps N or --stall-secs S)".into(),
        );
    }
    let telemetry = TelemetryConfig {
        progress_every: (progress_every > 0).then_some(progress_every),
        stall_window_steps: (stall_steps > 0).then_some(stall_steps),
        stall_window_secs: stall_secs.map(|window| window.as_secs_f64()),
        stall_abort,
    };
    if telemetry.progress_every.is_some() && metrics_path.is_none() {
        return Err("--progress-every needs --metrics-out FILE to stream to".into());
    }
    // Every output file exists before the search starts: a bad path costs
    // the error, not the run.
    let obs = match &metrics_path {
        Some(path) => ObsHandle::enabled().with_sink(Arc::new(create_sink(path)?)),
        // No event sink requested, but the profile still needs live phase
        // timers; a fully disabled handle records nothing.
        None if profile_path.is_some() => ObsHandle::timer_only(),
        None => ObsHandle::disabled(),
    };
    let trace_sink = trace_path.as_deref().map(create_sink).transpose()?;
    let profile_file = profile_path
        .as_deref()
        .map(|path| std::fs::File::create(path).map_err(|e| format!("{path}: {e}")))
        .transpose()?;
    obs.emit(mwsj_core::run_start(
        algo, &instance, &budget, restarts, seed,
    ));
    let ctx = SearchContext::local(budget)
        .with_obs(obs.clone())
        .with_telemetry(telemetry);

    let heuristic = HeuristicRun {
        instance: &instance,
        ctx: &ctx,
        seed,
        restarts,
    };
    let outcome = match algo {
        "ils" => heuristic.run(Ils::new(IlsConfig::default()), stdout)?,
        "gils" => heuristic.run(Gils::new(GilsConfig::default()), stdout)?,
        "sea" => heuristic.run(Sea::new(SeaConfig::default_for(&instance)), stdout)?,
        "sea-hybrid" => heuristic.run(
            Sea::new(SeaConfig::default_for(&instance).with_ils_seeding()),
            stdout,
        )?,
        "ibb" | "two-step" if portfolio => {
            return Err(
                format!("--restarts applies to the anytime heuristics, not '{algo}'").into(),
            )
        }
        "ibb" => Ibb::new(IbbConfig::new()).search(&instance, &ctx),
        "two-step" => {
            let step_one = TwoStepConfig::Ils(IlsConfig::default(), two_step_stage_budget(&budget));
            let mut rng = StdRng::seed_from_u64(seed);
            TwoStep::new(step_one)
                .search(&instance, &ctx, &mut rng)
                .combined()
        }
        other => return Err(format!("unknown algorithm '{other}'").into()),
    };

    // The frame of the run: the library emits only what happens inside one.
    mwsj_core::emit_run_end(&obs, &instance, &outcome);
    let phases = obs.timer.snapshot();
    obs.emit(RunEvent::Metrics {
        snapshot: obs.metrics.snapshot(),
    });
    obs.emit(RunEvent::Phases {
        phases: phases.clone(),
    });
    if let Some(sink) = &trace_sink {
        for p in &outcome.trace {
            sink.emit(&RunEvent::TracePoint {
                step: p.step,
                similarity: p.similarity,
                elapsed_secs: p.elapsed.as_secs_f64(),
            });
        }
    }

    writeln!(
        stdout,
        "best solution: {} (similarity {:.3}, {} of {} conditions violated{})",
        outcome.best,
        outcome.best_similarity,
        outcome.best_violations,
        instance.graph().edge_count(),
        if outcome.proven_optimal {
            ", proven optimal"
        } else {
            ""
        }
    )?;
    writeln!(
        stdout,
        "stats: {:?} elapsed, {} steps, {} node accesses, {} local maxima",
        outcome.stats.elapsed,
        outcome.stats.steps,
        outcome.stats.node_accesses,
        outcome.stats.local_maxima
    )?;
    if top > 1 {
        writeln!(
            stdout,
            "top {} distinct solutions:",
            top.min(outcome.top_solutions.len())
        )?;
        for (rank, (sol, violations)) in outcome.top_solutions.iter().take(top).enumerate() {
            writeln!(
                stdout,
                "  {:>2}. {} ({} violations)",
                rank + 1,
                sol,
                violations
            )?;
        }
    }
    if let Some(path) = &metrics_path {
        writeln!(
            stdout,
            "wrote run events to {path} (inspect with 'mwsj report {path}')"
        )?;
    }
    if let Some(path) = &trace_path {
        writeln!(
            stdout,
            "wrote {} trace points to {path}",
            outcome.trace.len()
        )?;
    }
    if let (Some(path), Some(mut file)) = (&profile_path, profile_file) {
        let folded = to_folded(&phases);
        file.write_all(folded.as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            stdout,
            "wrote phase profile to {path} ({} folded stack lines, flamegraph-ready)",
            folded.lines().count()
        )?;
    }
    Ok(())
}

/// Step one's share of a `solve --algo two-step` budget: a tenth of each
/// limit that was given — at least one step, at most half a second — so
/// that a step budget reads no clock in either stage. Step two gets the
/// whole budget.
fn two_step_stage_budget(budget: &SearchBudget) -> SearchBudget {
    SearchBudget {
        time_limit: budget
            .time_limit
            .map(|limit| (limit / 10).min(Duration::from_millis(500))),
        max_steps: budget.max_steps.map(|steps| (steps / 10).max(1)),
    }
}

/// The most restarts `solve --restarts` takes: far more than any budget
/// can feed, and few enough that the per-restart outcomes fit in memory.
const MAX_RESTARTS: usize = 1_000;

/// What `solve` runs an anytime heuristic with.
struct HeuristicRun<'a> {
    instance: &'a Instance,
    ctx: &'a SearchContext,
    seed: u64,
    restarts: usize,
}

impl HeuristicRun<'_> {
    /// Runs `algo` once from the seed — or, with `--restarts K` above 1, as
    /// a portfolio of K seeded restarts reporting through the same handle.
    fn run<A: AnytimeSearch>(
        &self,
        algo: A,
        stdout: &mut impl Write,
    ) -> Result<RunOutcome, Failure> {
        if self.restarts == 1 {
            let mut rng = StdRng::seed_from_u64(self.seed);
            return Ok(algo.search(self.instance, self.ctx, &mut rng));
        }
        let outcome =
            Portfolio::new(algo, self.restarts).search(self.instance, self.ctx, self.seed);
        writeln!(
            stdout,
            "portfolio: {} restarts (per-restart best: {})",
            outcome.restarts.len(),
            outcome
                .restarts
                .iter()
                .map(|r| r.outcome.best_violations.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        Ok(outcome.merged)
    }
}

/// `mwsj explain` — the pre-run side of the cost & selectivity audit:
/// builds the instance, prints the estimate report, and never solves.
/// Deterministic: repeated invocations on the same inputs are
/// byte-identical (the report is a pure function of the datasets).
fn cmd_explain(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let datasets = load_datasets(args)?;
    let n_vars = datasets.len();
    let query = args.required("query").map_err(|e| e.to_string())?;
    let graph = query_spec::parse_query(query, n_vars).map_err(|e| e.to_string())?;
    let instance = apply_backend(
        args,
        Instance::new(graph, datasets).map_err(|e| e.to_string())?,
    )?;
    let report = mwsj_core::build_explain_report(&instance);
    write!(stdout, "{}", report::explain_text(&report))?;
    if let Some(path) = args.value("metrics-out") {
        create_sink(path)?.emit(&RunEvent::ExplainReport {
            report: report.clone(),
        });
        writeln!(
            stdout,
            "wrote explain report to {path} (inspect with 'mwsj report {path}')"
        )?;
    }
    Ok(())
}

fn cmd_join(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let datasets = load_datasets(args)?;
    let n_vars = datasets.len();
    let query = args.required("query").map_err(|e| e.to_string())?;
    let graph = query_spec::parse_query(query, n_vars).map_err(|e| e.to_string())?;
    let instance = apply_backend(
        args,
        Instance::new(graph, datasets).map_err(|e| e.to_string())?,
    )?;
    // Exact joins default to a generous budget.
    let budget = budget_from(args)?.unwrap_or(SearchBudget::seconds(60.0));
    let limit: usize = args
        .parse_or("limit", 100, "a solution limit")
        .map_err(|e| e.to_string())?;

    let algo = args.value("algo").unwrap_or("wr");
    // The MBR filter of the synchronous descent is complete for overlap
    // only, and the library asserts it.
    let overlap_only = |e: &mwsj_query::Edge| e.pred == mwsj_geom::Predicate::Intersects;
    if algo == "st" && !instance.graph().edges().iter().all(overlap_only) {
        return Err("--algo st supports overlap (intersects) queries only".into());
    }
    let metrics_path = args.value("metrics-out").map(str::to_string);
    let obs = match &metrics_path {
        Some(path) => ObsHandle::enabled().with_sink(Arc::new(create_sink(path)?)),
        None => ObsHandle::disabled(),
    };
    // Seed 0: exact joins are deterministic; no RNG is involved.
    obs.emit(mwsj_core::run_start(algo, &instance, &budget, 1, 0));
    let outcome = match algo {
        "wr" => WindowReduction::new().run_with_obs(&instance, &budget, limit, &obs),
        "st" => SynchronousTraversal::new().run_with_obs(&instance, &budget, limit, &obs),
        "pjm" => Pjm::default().run_with_obs(&instance, &budget, limit, &obs),
        other => return Err(format!("unknown exact algorithm '{other}'").into()),
    };
    // The arc-consistency pass's reads belong to the instance, not to the
    // run: they are their own counter.
    if let Some(reads) = instance.core_node_accesses() {
        obs.metrics.absorb(&MetricsSnapshot {
            counters: vec![(metric::CORE_NODE_ACCESSES.into(), reads)],
            ..MetricsSnapshot::default()
        });
    }
    obs.emit(RunEvent::Metrics {
        snapshot: obs.metrics.snapshot(),
    });
    obs.emit(RunEvent::Phases {
        phases: obs.timer.snapshot(),
    });
    obs.emit(outcome.run_end(&instance));

    writeln!(
        stdout,
        "{} exact solutions{} in {:?} ({} node accesses)",
        outcome.solutions.len(),
        if outcome.complete { "" } else { " (truncated)" },
        outcome.stats.elapsed,
        outcome.stats.node_accesses
    )?;
    // What the arc-consistency pass left of each dataset and what it read
    // (it does not run under `--limit 0`).
    if let (Some(sizes), Some(reads)) = (instance.core_sizes(), instance.core_node_accesses()) {
        let domains: Vec<String> = (sizes.iter().enumerate())
            .map(|(v, size)| format!("{size}/{}", instance.cardinality(v)))
            .collect();
        writeln!(
            stdout,
            "core: {} ({reads} node accesses)",
            domains.join(" ")
        )?;
    }
    for sol in outcome.solutions.iter().take(limit) {
        writeln!(stdout, "  {sol}")?;
    }
    if let Some(path) = &metrics_path {
        writeln!(
            stdout,
            "wrote run events to {path} (inspect with 'mwsj report {path}')"
        )?;
    }
    Ok(())
}

fn cmd_hard_density(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let shape = match args.required("shape").map_err(|e| e.to_string())? {
        "chain" => QueryShape::Chain,
        "clique" => QueryShape::Clique,
        "star" => QueryShape::Star,
        "cycle" => QueryShape::Cycle,
        "random" => QueryShape::Random,
        other => return Err(format!("unknown shape '{other}'").into()),
    };
    let vars: usize = args
        .parse_or("vars", 5, "a variable count")
        .map_err(|e| e.to_string())?;
    // The sizes `solve` accepts for a shape, refused in its words.
    let min_vars = if shape == QueryShape::Cycle { 3 } else { 2 };
    if vars < min_vars {
        return Err(format!(
            "invalid query graph: a {} query needs at least {min_vars} datasets, got {vars}",
            shape.name()
        )
        .into());
    }
    let n: usize = args
        .parse_or("n", 100_000, "a cardinality")
        .map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let target = args.positive("target", 1.0, "a solution count")?;
    let d = mwsj_datagen::hard_region_density(shape, vars, n, target);
    writeln!(
        stdout,
        "{} query over {vars} datasets of {n} objects: density {d:.6} gives E[solutions] = {target}",
        shape.name()
    )?;
    writeln!(
        stdout,
        "(average per-axis extent |r| = {:.6})",
        mwsj_datagen::extent_for_density(n, d)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::two_step_stage_budget;
    use mwsj_core::SearchBudget;
    use std::time::Duration;

    #[test]
    fn two_step_stage_budget_is_a_tenth_of_what_was_given() {
        let ms = Duration::from_millis;
        for (given, stage) in [
            // Steps only: no clock limit appears.
            (
                SearchBudget::iterations(2_000),
                SearchBudget::iterations(200),
            ),
            (SearchBudget::iterations(5), SearchBudget::iterations(1)),
            (SearchBudget::time(ms(100)), SearchBudget::time(ms(10))),
            (SearchBudget::time(ms(60_000)), SearchBudget::time(ms(500))),
            (
                SearchBudget::time_and_iterations(ms(2_000), 30),
                SearchBudget::time_and_iterations(ms(200), 3),
            ),
        ] {
            assert_eq!(two_step_stage_budget(&given), stage, "{given:?}");
        }
    }
}
