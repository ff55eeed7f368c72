//! `mwsj bench` — the pinned benchmark suite as a clock-free
//! `BENCH_<label>.json` snapshot, and the exact-or-fail regression gate
//! over two such snapshots (see `DESIGN.md` "Benchmark snapshots").

use crate::args::Args;
use crate::Failure;
use mwsj_core::obs::{compare, BenchSnapshot};
use std::io::Write;

/// Dispatches `mwsj bench <snapshot|compare>`.
pub fn cmd_bench(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    const USAGE: &str =
        "usage: mwsj bench snapshot [--tier base|large] [--label L] [--out FILE]\n   \
                         or: mwsj bench compare BASELINE.json CANDIDATE.json";
    match args.arg() {
        Some("snapshot") => cmd_bench_snapshot(args, stdout),
        Some("compare") => cmd_bench_compare(args, stdout),
        Some(other) => Err(format!("unknown bench subcommand '{other}'\n{USAGE}").into()),
        None => Err(USAGE.into()),
    }
}

/// Runs the pinned benchmark suite and writes a `BENCH_<label>.json`
/// snapshot (see `DESIGN.md` "Benchmark snapshots").
fn cmd_bench_snapshot(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    if let Some(extra) = args.positionals.get(1) {
        return Err(
            format!("unexpected argument '{extra}' (bench snapshot takes options only)").into(),
        );
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
    let out = args
        .value("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("BENCH_{label}.json"));
    let snapshot = mwsj_bench::run_suite(tier, label, |case, algo| {
        eprintln!("bench: {case} / {algo}");
    })?;
    std::fs::write(&out, snapshot.to_string_pretty()).map_err(|e| format!("{out}: {e}"))?;
    writeln!(
        stdout,
        "wrote benchmark snapshot '{label}' to {out} ({} instances, {} algo records)",
        snapshot.instances.len(),
        snapshot.algo_records(),
    )?;
    writeln!(
        stdout,
        "gate a change with 'mwsj bench compare BENCH_baseline.json {out}'"
    )?;
    Ok(())
}

/// Compares two benchmark snapshots: every recorded member must match
/// (integers exactly, derived floats to round-off).
fn cmd_bench_compare(args: &Args, stdout: &mut impl Write) -> Result<(), Failure> {
    let (baseline_path, candidate_path) = match &args.positionals[..] {
        [_, b, c] => (b.as_str(), c.as_str()),
        _ => return Err("usage: mwsj bench compare BASELINE.json CANDIDATE.json".into()),
    };
    let load = |path: &str| -> Result<BenchSnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchSnapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    writeln!(
        stdout,
        "comparing '{}' ({baseline_path}) -> '{}' ({candidate_path})",
        baseline.label, candidate.label
    )?;
    let report = compare(&baseline, &candidate);
    write!(stdout, "{}", report.render())?;
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} regression check(s) failed (see report above)",
            report.failures()
        )
        .into())
    }
}
