//! Command line of the benchmark. Three uses:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` — one run; the last
//!   line of standard output is the result object of the benchmark contract
//!   (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports the
//!   end-to-end metrics, `--trace 1` the per-layer metrics.
//! * no `--trace` — every workload (or the `--workload` named) untraced and
//!   traced, printed as one JSON document.
//! * `--self-check [--runs R]` — the suite twice, compared against the
//!   bounds of `BENCHMARK.json`.

use mwsj_benchmark::run::{run_workload, RunOpts};
use mwsj_benchmark::suite::{benchmark_dir, run_suite, self_check};
use mwsj_benchmark::workloads;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: mwsj-benchmark [--workload NAME] [--seed N] [--seconds T] [--trace 0|1]
                      [--trace-out FILE] [--quick] [--self-check [--runs R]]";

/// Default seed (the paper's year) and measuring time of a run.
const DEFAULT_SEED: u64 = 2002;
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    trace_out: Option<PathBuf>,
    quick: bool,
    self_check: bool,
    runs: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        trace_out: None,
        quick: false,
        self_check: false,
        runs: 1,
    };
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(&flag, value()?)?,
            "--seconds" => args.seconds = number(&flag, value()?)?,
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--runs" => args.runs = number(&flag, value()?)?,
            "--quick" => args.quick = true,
            "--self-check" => args.self_check = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if args.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let selected = match &args.workload {
        None => workloads::all(),
        Some(name) => vec![workloads::by_name(name).ok_or_else(|| {
            let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
            format!(
                "unknown workload '{name}'; the workloads are {}",
                names.join(", ")
            )
        })?],
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: if args.quick { 0.0 } else { args.seconds },
        traced: args.trace.unwrap_or(false),
        quick: args.quick,
        out_root: benchmark_dir().join("out"),
    };
    let write_spans = |spans: &str| match &args.trace_out {
        Some(path) => {
            std::fs::write(path, spans).map_err(|e| format!("write {}: {e}", path.display()))
        }
        None => Ok(()),
    };

    if args.self_check {
        return self_check(&selected, &opts, args.runs);
    }
    if args.trace.is_none() {
        let (doc, spans, correct) = run_suite(&selected, &opts)?;
        write_spans(&spans)?;
        println!("{}", doc.dump_pretty());
        return Ok(correct);
    }
    let [workload] = selected.as_slice() else {
        return Err(format!("--trace needs --workload\n{USAGE}"));
    };
    let report = run_workload(workload, &opts)?;
    for failure in &report.failures {
        eprintln!("{}: FAILED {failure}", report.workload);
    }
    write_spans(report.spans_jsonl.as_deref().unwrap_or(""))?;
    // Quartiles and sample counts first; the contract's result object is
    // the last line.
    println!("{}", report.detail_json().dump());
    println!("{}", report.contract_json().dump());
    // The result object carries the verdict; a run that printed one is a
    // completed run.
    Ok(true)
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("mwsj-benchmark: some operations failed their checks");
            ExitCode::from(2)
        }
        Err(message) => {
            eprintln!("mwsj-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
