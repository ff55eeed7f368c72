//! Smoke tests of the benchmark itself, on `--quick` sized workloads: the
//! documents parse, the emitted metric names are exactly those
//! `BENCHMARK.json` declares, spans account for their parents, counts
//! repeat, and the guards fire.

use mwsj_benchmark::metrics::{end_to_end, per_layer, MetricDef};
use mwsj_benchmark::pipeline::{generate_inputs, setup};
use mwsj_benchmark::run::{run_workload, RunOpts, RunReport};
use mwsj_benchmark::suite::{benchmark_dir, run_suite};
use mwsj_benchmark::trace::Tracer;
use mwsj_benchmark::workloads::{self, OpKind};
use mwsj_core::{Pjm, SearchBudget};
use mwsj_obs::Json;
use std::process::Command;

fn opts(tag: &str, traced: bool) -> RunOpts {
    RunOpts {
        seed: 2002,
        seconds: 0.0,
        traced,
        quick: true,
        // One directory per test: tests run on parallel threads.
        out_root: benchmark_dir().join("out").join(tag),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `(name, unit, better)` of every entry of one `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn of_defs(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string(), d.better.name().to_string()))
        .collect()
}

#[test]
fn suite_document_matches_benchmark_json() {
    let text = std::fs::read_to_string(benchmark_dir().join("../BENCHMARK.json")).unwrap();
    let declared_doc = Json::parse(&text).unwrap();
    assert_eq!(declared(&declared_doc, "end_to_end"), of_defs(end_to_end()));
    assert_eq!(declared(&declared_doc, "per_layer"), of_defs(per_layer()));
    let declared_workloads: Vec<(String, String)> = declared_doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("why"))
        })
        .collect();
    let own: Vec<(String, String)> = workloads::all()
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(declared_workloads, own);

    // The emitted document: parses, and carries exactly the declared names.
    let (doc, spans, correct) = run_suite(&workloads::all(), &opts("suite", false)).unwrap();
    assert!(correct, "an operation failed on a quick run");
    let doc = Json::parse(&doc.dump_pretty()).expect("suite document is valid JSON");
    let rows = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 5);
    for row in rows {
        for (family, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let emitted: Vec<&str> = row
                .get(family)
                .and_then(Json::as_object)
                .unwrap()
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(emitted, want);
            assert!(emitted.iter().all(|n| well_formed(n)));
        }
        // Child spans account for their `setup` / `solve` parent.
        for span in row.get("span_coverage").and_then(Json::as_array).unwrap() {
            let share = span
                .get("covered_by_children")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(share >= 0.95, "{span:?}");
        }
    }
    // The span file: one JSON object per line, parents precede children.
    assert!(!spans.is_empty());
    for line in spans.lines() {
        let span = Json::parse(line).expect("span line is valid JSON");
        let id = span.get("id").and_then(Json::as_u64).unwrap();
        if let Some(parent) = span.get("parent").and_then(Json::as_u64) {
            assert!(parent < id);
        }
        assert!(
            span.get("end_ns").and_then(Json::as_u64)
                >= span.get("start_ns").and_then(Json::as_u64)
        );
    }
}

fn exact_values(report: &RunReport) -> Vec<(&str, u64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.def.exact)
        .map(|m| (m.def.name.as_str(), m.value.to_bits()))
        .collect()
}

#[test]
fn counts_repeat_across_two_runs() {
    for w in workloads::all() {
        for traced in [false, true] {
            let a = run_workload(&w, &opts("repeat", traced)).unwrap();
            let b = run_workload(&w, &opts("repeat", traced)).unwrap();
            assert!(a.correct() && b.correct(), "{:?}", a.failures);
            assert_eq!(a.attempted, b.attempted);
            assert_eq!(exact_values(&a), exact_values(&b), "{}", w.name);
            assert!(!exact_values(&a).is_empty());
        }
    }
}

#[test]
fn a_seed_with_an_exact_solution_trips_the_early_stop_guard() {
    // Plant a solution on a heuristic row: ILS finds it and stops before
    // its budget, which the harness must call out by name.
    let mut w = workloads::by_name("chain-100k-rtree").unwrap().quick();
    w.plant = true;
    w.target_solutions = 50.0;
    w.ops.retain(|o| o.kind == OpKind::Ils);
    w.ops[0].steps = 200_000;
    let report = run_workload(
        &w,
        &RunOpts {
            quick: false,
            ..opts("guard", false)
        },
    )
    .unwrap();
    assert!(!report.correct());
    assert!(report.failed >= 1 && report.failed <= report.attempted);
    assert!(
        report
            .failures
            .iter()
            .all(|f| f.contains("instance has an exact solution, pick another seed")),
        "{:?}",
        report.failures
    );
}

#[test]
fn a_draw_with_an_exact_solution_is_replaced_before_the_run() {
    // The first Zipf draw of this seed has an exact solution (ILS found it
    // in every sample); the inputs handed to the run must have none.
    let w = workloads::by_name("zipf-50k-grid").unwrap();
    let out_root = benchmark_dir().join("out").join("redraw");
    let inputs = generate_inputs(&w, 1077020359, &out_root).unwrap();
    let mut off = Tracer::new(false, w.name);
    let (built, _) = setup(&w, &inputs, &mut off).unwrap();
    let unbounded = SearchBudget::iterations(u64::MAX);
    let join = Pjm::default().run(&built.instances[0].rtree, &unbounded, 1);
    assert!(join.complete && join.solutions.is_empty());
    // Same seed, same replacement.
    let again = generate_inputs(&w, 1077020359, &out_root.join("again")).unwrap();
    for (a, b) in inputs.instances[0]
        .paths
        .iter()
        .zip(&again.instances[0].paths)
    {
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    }
}

#[test]
fn the_command_line_prints_the_contract_result_last() {
    let exe = env!("CARGO_BIN_EXE_mwsj-benchmark");
    for (trace, defs) in [("0", end_to_end()), ("1", per_layer())] {
        let out = Command::new(exe)
            .args(["--workload", "exact-50k", "--seed", "7", "--seconds", "0"])
            .args(["--trace", trace, "--quick"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = result
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, want);
        for (def, (_, metric)) in defs.iter().zip(metrics) {
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
            assert!(metric.get("value").and_then(Json::as_f64).is_some());
        }
    }
    // Bad arguments are an error, not a run.
    let out = Command::new(exe)
        .args(["--workload", "nope", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
