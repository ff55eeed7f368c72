//! Whole-suite drivers: every workload untraced and traced as one JSON
//! document, and `--self-check`, which runs the suite twice and holds the
//! two sets of runs against the bounds of `BENCHMARK.json`.

use crate::metrics::Better;
use crate::run::{run_workload, RunOpts, RunReport};
use crate::stats::summarize;
use crate::workloads::Workload;
use mwsj_obs::Json;
use std::path::{Path, PathBuf};

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when the binary was built.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Runs each workload untraced then traced and returns the suite document
/// plus the concatenated span file. The `bool` is `false` when any
/// operation failed.
pub fn run_suite(workloads: &[Workload], opts: &RunOpts) -> Result<(Json, String, bool), String> {
    let mut rows = Vec::new();
    let mut spans = String::new();
    let mut correct = true;
    for w in workloads {
        let run = |traced: bool| {
            run_workload(
                w,
                &RunOpts {
                    traced,
                    ..opts.clone()
                },
            )
        };
        let end_to_end = run(false)?;
        let per_layer = run(true)?;
        for report in [&end_to_end, &per_layer] {
            for failure in &report.failures {
                eprintln!("{}: FAILED {failure}", w.name);
            }
            correct &= report.correct();
        }
        spans.push_str(per_layer.spans_jsonl.as_deref().unwrap_or(""));
        rows.push(Json::Obj(vec![
            ("name".into(), Json::Str(w.name.into())),
            ("why".into(), Json::Str(w.why.into())),
            (
                "correct".into(),
                Json::Bool(end_to_end.correct() && per_layer.correct()),
            ),
            (
                "attempted".into(),
                Json::Num((end_to_end.attempted + per_layer.attempted) as f64),
            ),
            (
                "failed".into(),
                Json::Num((end_to_end.failed + per_layer.failed) as f64),
            ),
            (
                "failures".into(),
                Json::Arr(
                    end_to_end
                        .failures
                        .iter()
                        .chain(&per_layer.failures)
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("end_to_end".into(), end_to_end.detail_json()),
            ("per_layer".into(), per_layer.detail_json()),
            (
                "span_coverage".into(),
                Json::Arr(
                    per_layer
                        .coverage
                        .iter()
                        .map(|(name, share)| {
                            Json::Obj(vec![
                                ("span".into(), Json::Str(name.clone())),
                                ("covered_by_children".into(), Json::Num(*share)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("mwsj-pipeline".into())),
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("seconds".into(), Json::Num(opts.seconds)),
        ("quick".into(), Json::Bool(opts.quick)),
        ("available_parallelism".into(), Json::Num(threads as f64)),
        ("workloads".into(), Json::Arr(rows)),
    ]);
    Ok((doc, spans, correct))
}

/// The regression bound of every end-to-end metric, read from
/// `BENCHMARK.json`.
fn read_bounds(benchmark_json: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name/bound".to_string())
        })
        .collect()
}

/// Runs the whole suite twice (`runs` untraced runs per workload and set,
/// run `i` on seed `seed + i`) and prints, per workload and end-to-end
/// metric, the two medians, their difference in the worse direction, the
/// inter-quartile spread of each set and the bound. Returns `false` when a
/// median moved, or (with ≥ 4 runs) a spread other than `setup_s`'s
/// reached, beyond the metric's bound, when a value that must repeat
/// exactly did not, or when an operation failed.
pub fn self_check(workloads: &[Workload], opts: &RunOpts, runs: usize) -> Result<bool, String> {
    let bounds = read_bounds(&benchmark_dir().join("../BENCHMARK.json"))?;
    let mut sets: Vec<Vec<Vec<RunReport>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for w in workloads {
            let mut reports = Vec::new();
            for i in 0..runs {
                eprintln!("self-check: set {set}, {}, run {i}", w.name);
                reports.push(run_workload(
                    w,
                    &RunOpts {
                        seed: opts.seed + i as u64,
                        traced: false,
                        ..opts.clone()
                    },
                )?);
            }
            per_workload.push(reports);
        }
        sets.push(per_workload);
    }

    let mut ok = true;
    println!(
        "| workload | metric | median A | median B | B worse by | IQR/median A | IQR/median B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (wi, w) in workloads.iter().enumerate() {
        let (a, b) = (&sets[0][wi], &sets[1][wi]);
        for report in a.iter().chain(b) {
            for failure in &report.failures {
                println!("{}: FAILED {failure}", w.name);
                ok = false;
            }
        }
        for (mi, metric) in a[0].metrics.iter().enumerate() {
            let name = &metric.def.name;
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let column = |reports: &[RunReport]| -> Vec<f64> {
                reports.iter().map(|r| r.metrics[mi].value).collect()
            };
            let (sa, sb) = (summarize(&column(a)), summarize(&column(b)));
            let worse_by = match metric.def.better {
                Better::Lower => (sb.median - sa.median) / sa.median,
                Better::Higher => (sa.median - sb.median) / sa.median,
            };
            let mut verdict = "ok";
            if worse_by > bound {
                verdict = "MEDIAN MOVED";
            } else if runs >= 4 && name != "setup_s" && sa.rel_iqr().max(sb.rel_iqr()) > bound {
                verdict = "SPREAD OVER BOUND";
            } else if metric.def.exact && column(a) != column(b) {
                verdict = "NOT EXACT";
            }
            ok &= verdict == "ok";
            println!(
                "| {} | {name} | {:.6} | {:.6} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {verdict} |",
                w.name,
                sa.median,
                sb.median,
                worse_by * 100.0,
                sa.rel_iqr() * 100.0,
                sb.rel_iqr() * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}
