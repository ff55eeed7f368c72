//! `mwsj bench` — the pinned benchmark suite as a `BENCH_<label>.json`
//! performance snapshot, and the noise-aware regression gate over two
//! such snapshots (see `DESIGN.md` "Benchmark snapshots").

use crate::args::Args;
use mwsj_core::obs::{
    compare, BenchSnapshot, CompareConfig, DEFAULT_WALL_SLACK_MS, DEFAULT_WALL_TOLERANCE,
};

/// Dispatches `mwsj bench <snapshot|compare>`.
pub fn cmd_bench(args: &Args) -> Result<(), String> {
    const USAGE: &str =
        "usage: mwsj bench snapshot [--tier base|large] [--label L] [--reps N] [--out FILE]\n   \
                         or: mwsj bench compare BASELINE.json CANDIDATE.json \
                         [--wall-tolerance T] [--wall-slack-ms S]";
    match args.arg() {
        Some("snapshot") => cmd_bench_snapshot(args),
        Some("compare") => cmd_bench_compare(args),
        Some(other) => Err(format!("unknown bench subcommand '{other}'\n{USAGE}")),
        None => Err(USAGE.into()),
    }
}

/// Runs the pinned benchmark suite and writes a `BENCH_<label>.json`
/// performance snapshot (see `DESIGN.md` "Benchmark snapshots").
fn cmd_bench_snapshot(args: &Args) -> Result<(), String> {
    if let Some(extra) = args.positionals.get(1) {
        return Err(format!(
            "unexpected argument '{extra}' (bench snapshot takes options only)"
        ));
    }
    let tier = match args.value("tier") {
        None => mwsj_bench::BenchTier::Base,
        Some(name) => mwsj_bench::BenchTier::parse(name)
            .ok_or_else(|| format!("unknown tier '{name}' (expected 'base' or 'large')"))?,
    };
    // The default label/output track the tier, so `--tier large` writes
    // BENCH_large.json next to the base tier's BENCH_baseline.json.
    let default_label = match tier {
        mwsj_bench::BenchTier::Base => "snapshot",
        mwsj_bench::BenchTier::Large => "large",
    };
    let label = args.value("label").unwrap_or(default_label);
    let reps: usize = args
        .parse_or("reps", mwsj_bench::DEFAULT_REPS, "a repetition count")
        .map_err(|e| e.to_string())?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let out = args
        .value("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("BENCH_{label}.json"));
    let snapshot = mwsj_bench::run_suite(tier, label, reps, |case, algo| {
        eprintln!("bench: {case} / {algo}");
    })?;
    std::fs::write(&out, snapshot.to_string_pretty()).map_err(|e| format!("{out}: {e}"))?;
    let records: usize = snapshot.instances.iter().map(|i| i.algos.len()).sum();
    println!(
        "wrote benchmark snapshot '{label}' to {out} ({} instances, {records} algo records, {} reps)",
        snapshot.instances.len(),
        snapshot.reps,
    );
    println!("gate a change with 'mwsj bench compare BENCH_baseline.json {out}'");
    Ok(())
}

/// Compares two benchmark snapshots: deterministic work counters must
/// match exactly; wall-clock medians may drift up to the tolerance band.
fn cmd_bench_compare(args: &Args) -> Result<(), String> {
    let (baseline_path, candidate_path) = match &args.positionals[..] {
        [_, b, c] => (b.as_str(), c.as_str()),
        _ => {
            return Err("usage: mwsj bench compare BASELINE.json CANDIDATE.json \
                 [--wall-tolerance T] [--wall-slack-ms S]"
                .into())
        }
    };
    let tolerance: f64 = args
        .parse_or(
            "wall-tolerance",
            DEFAULT_WALL_TOLERANCE,
            "a fraction (e.g. 0.25 for +25%)",
        )
        .map_err(|e| e.to_string())?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err("--wall-tolerance must be a non-negative fraction".into());
    }
    let slack_ms: f64 = args
        .parse_or(
            "wall-slack-ms",
            DEFAULT_WALL_SLACK_MS,
            "a duration in milliseconds (e.g. 5.0)",
        )
        .map_err(|e| e.to_string())?;
    if !slack_ms.is_finite() || slack_ms < 0.0 {
        return Err("--wall-slack-ms must be a non-negative duration".into());
    }
    let load = |path: &str| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    println!(
        "comparing '{}' ({baseline_path}) -> '{}' ({candidate_path}), \
         wall tolerance +{:.0}% or +{:.1}ms",
        baseline.label,
        candidate.label,
        tolerance * 100.0,
        slack_ms
    );
    let report = compare(
        &baseline,
        &candidate,
        CompareConfig {
            wall_tolerance: tolerance,
            wall_slack_ms: slack_ms,
        },
    );
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} regression check(s) failed (see report above)",
            report.failures()
        ))
    }
}
