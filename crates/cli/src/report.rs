//! `mwsj report` — validate a metrics JSONL file (or a bench snapshot) and
//! render a human-readable summary; also the explain-report renderer
//! shared with `mwsj explain`.
//!
//! Everything is rendered from typed [`RunEvent`]s: the file is parsed by
//! the derived reader first, so a malformed line is an error with its line
//! number and field path, never a defaulted `?` or `0` in the summary.

use crate::args::Args;
use crate::Failure;
use mwsj_core::obs::{schema, BenchSnapshot, ExplainReport};
use mwsj_core::RunEvent;
use std::collections::BTreeMap;
use std::io::Write;

/// Validates a metrics JSONL file against the declared schema and prints
/// a summary of its contents.
pub fn cmd_report(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let path = args
        .arg()
        .ok_or("usage: mwsj report FILE (a --metrics-out JSONL file or a bench snapshot)")?;
    if let Some(extra) = args.positionals.get(1) {
        return Err(
            format!("unexpected argument '{extra}' (mwsj report takes exactly one file)").into(),
        );
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    write!(stdout, "{}", report_text(path, &text)?)?;
    Ok(())
}

/// The full `mwsj report` output for the file contents `text`.
pub fn report_text(path: &str, text: &str) -> Result<String, String> {
    if text.trim().is_empty() {
        return Err(format!(
            "{path}: empty metrics file — the run wrote no events \
             (interrupted before the first event, or the wrong file?)"
        ));
    }
    // A bench snapshot is a single pretty-printed JSON object, not JSONL:
    // a file that says it is one is read as one, so what is wrong with it
    // is reported in the snapshot's terms (section, record, field).
    if BenchSnapshot::sniff(text) {
        let snapshot = BenchSnapshot::parse(text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(snapshot_lines(path, &snapshot).join("\n") + "\n");
    }
    let events = schema::parse_jsonl(text).map_err(|(line, e)| {
        // A file cut off mid-write ends in a partial JSON line with no
        // trailing newline; point that out instead of a bare parse error.
        let last_line = text.trim_end().lines().count();
        if line == last_line && !text.ends_with('\n') {
            format!("{path}:{line}: {e} (the file ends mid-line and appears truncated)")
        } else {
            format!("{path}:{line}: {e}")
        }
    })?;
    let mut lines = vec![format!("{path}: {} events, schema OK", events.len())];
    // Lifecycle events are only counted; the key's rank fixes their order.
    let mut lifecycle: BTreeMap<(u8, &str), usize> = BTreeMap::new();
    for event in &events {
        event_lines(event, &mut lines);
        let counted = match event {
            RunEvent::Improvement { .. } => (0, "improvements"),
            RunEvent::RestartEnd { .. } => (1, "restarts finished"),
            RunEvent::BudgetExhausted { .. } => (2, "budget exhaustions"),
            RunEvent::TracePoint { .. } => (3, "trace points"),
            RunEvent::Progress { .. } => (4, "progress heartbeats"),
            RunEvent::StallDetected { .. } => (5, "stalls detected"),
            RunEvent::StallAborted { .. } => (6, "stall aborts"),
            RunEvent::StagnationReseed { .. } => (7, "stagnation reseeds"),
            _ => continue,
        };
        *lifecycle.entry(counted).or_default() += 1;
    }
    if !lifecycle.is_empty() {
        let seen: Vec<String> = lifecycle
            .iter()
            .map(|((_, label), n)| format!("{n} {label}"))
            .collect();
        lines.push(format!("events: {}", seen.join(", ")));
    }
    Ok(lines.join("\n") + "\n")
}

/// The summary lines one event contributes (lifecycle events only count).
fn event_lines(event: &RunEvent, lines: &mut Vec<String>) {
    match event {
        RunEvent::RunStart {
            algo,
            n_vars,
            edges,
            restarts,
            seed,
            budget_steps,
            budget_secs,
            ..
        } => {
            let mut line =
                format!("run: {algo} on {n_vars} variables / {edges} edges, seed {seed}");
            if *restarts > 1 {
                line += &format!(", {restarts} portfolio restarts");
            }
            if let Some(steps) = budget_steps {
                line += &format!(", budget {steps} steps");
            }
            if let Some(secs) = budget_secs {
                line += &format!(", budget {secs}s");
            }
            lines.push(line);
        }
        RunEvent::StallAborted {
            steps,
            elapsed_secs,
            ..
        } => lines.push(format!(
            "stall abort: run stopped after {steps} steps ({elapsed_secs:.3}s) without improvement"
        )),
        RunEvent::Metrics { snapshot } => {
            lines.push("counters:".into());
            for (name, value) in &snapshot.counters {
                lines.push(format!("  {name:<24} {value}"));
            }
        }
        RunEvent::ExplainReport { report } => explain_lines(report, lines),
        RunEvent::ResourceReport { report } => {
            lines.push("memory:".into());
            for (name, bytes) in report.components() {
                lines.push(format!("  {name:<24} {bytes:>12} bytes"));
            }
            lines.push(format!(
                "  {:<24} {:>12} bytes",
                "total",
                report.total_bytes()
            ));
        }
        RunEvent::Phases { phases } => {
            if !phases.is_empty() {
                lines.push("phases:".into());
            }
            for p in phases {
                lines.push(format!(
                    "  {:<28} {:>6} calls {:>10} steps {:>9.4}s",
                    p.path,
                    p.calls,
                    p.steps,
                    p.wall.as_secs_f64()
                ));
            }
        }
        RunEvent::RunEnd {
            best_violations,
            best_similarity,
            steps,
            node_accesses,
            elapsed_secs,
            proven_optimal,
            ..
        } => lines.push(format!(
            "result: similarity {best_similarity:.3} ({best_violations} violations{}), \
             {steps} steps, {node_accesses} node accesses, {elapsed_secs:.3}s",
            if *proven_optimal {
                ", proven optimal"
            } else {
                ""
            }
        )),
        _ => {}
    }
}

/// Renders an [`ExplainReport`] — shared by `mwsj explain` (estimates
/// only) and `mwsj report` (estimate vs actual when the run attached the
/// observed side).
pub fn explain_text(report: &ExplainReport) -> String {
    let mut lines = Vec::new();
    explain_lines(report, &mut lines);
    lines.join("\n") + "\n"
}

/// What stands for a float that is not finite. The event stream carries
/// one as `null`, which reads back as NaN whatever it was, so `mwsj explain`
/// (printing the report it built) and `mwsj report` (printing the one it
/// read) can only agree on a spelling that does not tell ±∞ from NaN.
const NON_FINITE: &str = "non-finite";

/// `x` to `decimals` places; a magnitude of 1e16 or more in exponent form
/// instead of its hundreds of digits, a non-finite one as [`NON_FINITE`].
pub fn fixed(x: f64, decimals: usize) -> String {
    match x.abs() {
        m if !m.is_finite() => NON_FINITE.into(),
        m if m >= 1e16 => format!("{x:.decimals$e}"),
        _ => format!("{x:.decimals$}"),
    }
}

/// `x` in exponent form, six places.
fn scientific(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6e}")
    } else {
        NON_FINITE.into()
    }
}

fn explain_lines(report: &ExplainReport, lines: &mut Vec<String>) {
    lines.push(format!(
        "explain: {} model, E[solutions] = {}",
        report.model,
        fixed(report.expected_solutions, 4)
    ));
    lines.push("edges (estimated vs observed selectivity):".into());
    lines.push(format!(
        "  {:<6} {:<12} {:>13} {:>13} {:>10} {:>8}",
        "edge", "predicate", "estimated", "observed", "pairs", "error"
    ));
    for e in &report.edges {
        let (obs, pairs, err) = match (e.observed_selectivity, e.observed_pairs) {
            (Some(sel), Some(pairs)) => (
                scientific(sel),
                pairs.to_string(),
                match e.error_factor() {
                    Some(f) if f.is_finite() => format!("{}x", fixed(f, 2)),
                    Some(_) => NON_FINITE.into(),
                    None => "-".into(),
                },
            ),
            _ => ("-".into(), "-".into(), "-".into()),
        };
        lines.push(format!(
            "  {:<6} {:<12} {:>13} {:>13} {:>10} {:>8}",
            format!("{}-{}", e.a, e.b),
            e.predicate,
            scientific(e.estimated_selectivity),
            obs,
            pairs,
            err
        ));
    }
    lines.push("variables (window cost model and R*-tree quality):".into());
    for v in &report.vars {
        lines.push(format!(
            "  var{}: N={}, avg extent {}, E[window hits] {}, \
             predicted accesses/query {}",
            v.var,
            v.cardinality,
            fixed(v.avg_extent, 6),
            fixed(v.expected_window_hits, 4),
            fixed(v.predicted_accesses_per_query, 2)
        ));
        let t = &v.tree;
        lines.push(format!(
            "    tree: height {}, {} nodes, avg fill {}",
            t.height,
            t.nodes,
            fixed(t.avg_fill, 3)
        ));
        let fmt3 = |xs: &[f64]| {
            xs.iter()
                .map(|&x| fixed(x, 3))
                .collect::<Vec<_>>()
                .join(" ")
        };
        lines.push(format!(
            "    per level (leaf->root): fill [{}], overlap [{}], dead space [{}], perimeter [{}]",
            fmt3(&t.fill_per_level),
            fmt3(&t.overlap_factor_per_level),
            fmt3(&t.dead_space_per_level),
            fmt3(&t.perimeter_per_level)
        ));
    }
    if let Some(total) = report.observed_node_accesses {
        lines.push(format!(
            "observed node accesses: {total} total, {} attributed per variable",
            report.attributed_accesses()
        ));
        for v in &report.vars {
            let levels = v
                .accesses_per_level
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            lines.push(format!(
                "  var{}: {} accesses (per level, leaf->root: {levels})",
                v.var, v.observed_accesses
            ));
        }
    }
}

/// Summarises a `BENCH_*.json` snapshot for `mwsj report`, ordered by
/// shape, then variable count — numeric, so `chain-n10-…` sorts after
/// `chain-n4-…` instead of between `n1` and `n2` as the names would —
/// then name.
fn snapshot_lines(path: &str, snapshot: &BenchSnapshot) -> Vec<String> {
    let mut lines = vec![format!(
        "{path}: bench snapshot '{}', {} instances",
        snapshot.label,
        snapshot.instances.len()
    )];
    let mut order: Vec<usize> = (0..snapshot.instances.len()).collect();
    order.sort_by_key(|&i| {
        let inst = &snapshot.instances[i];
        (&inst.shape, inst.n_vars, &inst.name)
    });
    for &i in &order {
        let inst = &snapshot.instances[i];
        lines.push(format!(
            "  {} ({} n={} N={} seed={})",
            inst.name, inst.shape, inst.n_vars, inst.cardinality, inst.seed
        ));
        for algo in &inst.algos {
            let steps = algo.counter("steps").unwrap_or(0);
            let accesses = algo.counter("node_accesses").unwrap_or(0);
            lines.push(format!(
                "    {:<18} similarity {:.3}  {steps} steps  {accesses} node accesses",
                algo.algo, algo.best_similarity
            ));
        }
        for mem in snapshot.memory.iter().filter(|m| m.instance == inst.name) {
            lines.push(format!("    memory: {} bytes resident", mem.total_bytes));
        }
        for cache in snapshot.cache.iter().filter(|c| c.instance == inst.name) {
            lines.push(format!(
                "    {:<18} cache: {} hits, {} misses, {} skipped, {} reassign / {} \
                 penalty invalidations, {} bytes",
                cache.algo,
                cache.hits,
                cache.misses,
                cache.skipped,
                cache.invalidations_reassign,
                cache.invalidations_penalty,
                cache.bytes
            ));
        }
        for rec in snapshot.explain.iter().filter(|e| e.instance == inst.name) {
            let worst = rec
                .report
                .edges
                .iter()
                .filter_map(|e| e.error_factor())
                .fold(None::<f64>, |acc, f| Some(acc.map_or(f, |a| a.max(f))));
            lines.push(format!(
                "    explain: {} model, E[solutions] {:.4}, worst edge estimate error {}",
                rec.report.model,
                rec.report.expected_solutions,
                worst.map_or("-".into(), |f| format!("{f:.2}x"))
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watch::View;

    /// Hostile input is always an error that names the line and the
    /// offending field — never a panic, never a rendered `?` / `0` / `inf`
    /// — for all three readers: the JSONL parser, `report` and `watch`.
    #[test]
    fn hostile_lines_are_errors_for_every_reader() {
        let run_end = |similarity: &str, secs: &str| {
            format!(
                "{{\"event\":\"run_end\",\"best_violations\":0,\"best_similarity\":{similarity},\
                 \"steps\":1,\"node_accesses\":1,\"local_maxima\":0,\"improvements\":0,\
                 \"restarts\":0,\"elapsed_secs\":{secs},\"proven_optimal\":false}}"
            )
        };
        let table: Vec<(String, &str)> = vec![
            (
                r#"{"event":"phases","phases":[42,{"path":7}]}"#.into(),
                "phases[0]: expected object",
            ),
            (
                r#"{"event":"phases","phases":[{"path":7}]}"#.into(),
                "phases[0].path: expected string",
            ),
            (
                r#"{"event":"metrics","counters":{"a":"x"}}"#.into(),
                "counters.a: expected non-negative integer",
            ),
            (
                r#"{"event":"resource_report","total_bytes":5,"components":{"rtree.var000":"lots"}}"#
                    .into(),
                "components.rtree.var000: expected non-negative integer",
            ),
            (run_end("1e999", "-1"), "best_similarity: expected finite number"),
            (run_end("1", "-1"), "elapsed_secs: expected non-negative number"),
            // A negative counter, an integer past u64::MAX.
            (
                r#"{"event":"restart_start","restart":-3,"seed":1}"#.into(),
                "restart: expected non-negative integer",
            ),
            (
                r#"{"event":"restart_start","restart":0,"seed":18446744073709551616}"#.into(),
                "seed: expected non-negative integer",
            ),
            (r#"{"event":"warp_drive"}"#.into(), "unknown event kind"),
            (r#"[1,2,3]"#.into(), "not a JSON object"),
            (r#""run_end""#.into(), "not a JSON object"),
            // A writer killed mid-line.
            (r#"{"event":"improvem"#.into(), "JSON error"),
        ];
        for (row, expected) in &table {
            let text = format!("{}\n{row}", r#"{"event":"phases","phases":[]}"#);

            let (line, err) = schema::parse_jsonl(&text).expect_err(row);
            assert_eq!(line, 2, "{row}");
            assert!(err.to_string().contains(expected), "{row}: {err}");

            let err = report_text("hostile.jsonl", &text).expect_err(row);
            assert!(
                err.contains("hostile.jsonl:2: ") && err.contains(expected),
                "{row}: {err}"
            );

            let mut view = View::default();
            view.ingest(r#"{"event":"phases","phases":[]}"#, "hostile.jsonl")
                .expect("first line is fine");
            let err = view.ingest(row, "hostile.jsonl").expect_err(row);
            assert!(
                err.contains("hostile.jsonl:2: ") && err.contains(expected),
                "{row}: {err}"
            );
        }
        // An empty file is a report error; for the parser and the watcher
        // it is simply zero events so far.
        assert!(report_text("empty.jsonl", " \n").is_err());
        assert_eq!(schema::parse_jsonl(" \n"), Ok(vec![]));
    }

    #[test]
    fn valid_stream_renders_typed_fields() {
        let text = concat!(
            r#"{"event":"run_start","algo":"ILS","n_vars":3,"edges":2,"restarts":1,"seed":16045690984503098047,"budget_steps":50}"#,
            "\n",
            r#"{"event":"stall_aborted","steps":40,"elapsed_secs":0.5}"#,
            "\n"
        );
        let out = report_text("run.jsonl", text).unwrap();
        assert!(
            out.contains("seed 16045690984503098047, budget 50 steps"),
            "{out}"
        );
        assert!(out.ends_with("events: 1 stall aborts\n"), "{out}");
    }

    /// A `metrics` line as older builds wrote it, with the `gauges` and
    /// `histograms` members this build no longer writes: readers ignore
    /// unknown members, so old artifacts still report their counters.
    #[test]
    fn a_metrics_line_written_before_the_accumulator_still_reports() {
        let counters = concat!(
            r#"{"event":"metrics","counters":{"search.improvements":0,"search.local_maxima":0,"#,
            r#""search.node_accesses":4240,"search.restarts":0,"search.steps":1430}"#,
        );
        let old = concat!(
            r#","gauges":{},"histograms":{"search.steps_per_run":{"count":1,"sum":1430,"#,
            r#""min":1430,"max":1430,"buckets":[[11,1]]}}}"#,
        );
        let out = report_text("wr.jsonl", &format!("{counters}{old}\n")).unwrap();
        assert_eq!(
            out,
            "wr.jsonl: 1 events, schema OK\n\
             counters:\n\
             \x20 search.improvements      0\n\
             \x20 search.local_maxima      0\n\
             \x20 search.node_accesses     4240\n\
             \x20 search.restarts          0\n\
             \x20 search.steps             1430\n"
        );
        // And this build writes the same counters, byte for byte.
        let stats = mwsj_core::RunStats {
            steps: 1430,
            node_accesses: 4240,
            ..Default::default()
        };
        let rewritten = RunEvent::Metrics {
            snapshot: stats.metrics(),
        };
        assert_eq!(rewritten.to_json(), format!("{counters}}}"));
    }
}
