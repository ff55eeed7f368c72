//! Tier-1 run of the counter gate: the base tier of the pinned suite, run
//! here, must compare clean against the committed `BENCH_baseline.json` —
//! every member of the document: workload seeds and shapes, every work
//! counter, `best_similarity`, `auc_steps`, `steps_to`, and the memory,
//! cache and explain tables.
//!
//! This is `mwsj bench snapshot` + `mwsj bench compare` without the
//! binary. A snapshot has no clock in it, so the check is the same on any
//! machine; `compare` diffs the two documents (integers exactly, other
//! numbers within 1e-9, `null` only against `null`) rather than their
//! bytes because the explain estimates go through `libm`, which may round
//! differently elsewhere. After an intended trajectory change, re-baseline
//! with `mwsj bench snapshot --label baseline --out BENCH_baseline.json`.

use mwsj::core::obs::{compare, BenchSnapshot};
use mwsj_bench::{run_suite, BenchTier};

#[test]
fn base_tier_matches_the_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let committed = BenchSnapshot::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let fresh = run_suite(BenchTier::Base, "baseline", |_, _| {}).expect("suite runs");
    let report = compare(&committed, &fresh);
    assert!(report.passed(), "{}", report.render());
}
