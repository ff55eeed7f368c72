//! Noise-aware comparison of two benchmark snapshots — the regression
//! gate behind `mwsj bench compare`.
//!
//! The comparison treats the two metric families of a snapshot
//! differently, following the workspace determinism contract:
//!
//! * **Deterministic fields** — work counters, `best_similarity`,
//!   `auc_steps`, `steps_to` and the memory / cache / explain sections —
//!   must match *exactly* (integers) or to floating-point round-off
//!   (derived values), through the comparison derived from the records'
//!   declarations ([`Field::diff`] skips `[measured]` fields). Any drift
//!   means the algorithms themselves changed and fails the gate outright.
//! * **Measured fields** — the wall-clock medians — are compared with a
//!   relative tolerance band (default +25%) widened by an absolute slack
//!   (default +5ms): a candidate fails only when it exceeds both, so
//!   sub-millisecond jitter on tiny workloads does not read as a
//!   regression. Only the median of the recorded repetitions is gated;
//!   per-rep values and the wall-axis AUC are reported for context but
//!   never fail the comparison, since they are too noisy on shared CI
//!   runners.
//!
//! Missing or extra (instance, algorithm) pairs fail the gate: a
//! disappearing benchmark is a regression of coverage, not noise.

use crate::record::{Field, Record};
use crate::snapshot::{AlgoRecord, BenchSnapshot};
use std::fmt::Write as _;

/// Relative wall-clock slowdown tolerated by default (0.25 = +25%).
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.25;

/// Absolute wall-clock slack tolerated by default, in milliseconds.
///
/// Sub-10ms medians on shared runners jitter by fractions of a
/// millisecond, which a purely relative band misreads as a regression
/// (0.01ms on a 0.04ms median is +25%). A candidate therefore fails the
/// wall gate only when it exceeds **both** the relative band and this
/// absolute slack over the baseline.
pub const DEFAULT_WALL_SLACK_MS: f64 = 5.0;

/// Noise floor for the wall gate, in milliseconds: the relative band is
/// evaluated against `max(baseline, floor)`, because a percentage of a
/// 0.02ms median is pure scheduler jitter under *any* tolerance — this is
/// what lets `--wall-slack-ms 0` (relative-band-only gating, used by the
/// large-tier CI job) stay flake-free on instances that converge in
/// microseconds. A genuine regression still fails: the candidate must
/// exceed both `max(baseline, floor)·(1+tolerance)` and
/// `baseline + slack`.
pub const WALL_NOISE_FLOOR_MS: f64 = 1.0;

/// Comparison configuration.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Maximum tolerated relative wall-clock slowdown of the median
    /// (`0.25` fails candidates more than 25% slower than baseline).
    pub wall_tolerance: f64,
    /// Absolute wall-clock slack in milliseconds; a candidate median
    /// within `baseline + wall_slack_ms` never fails the wall gate even
    /// when the relative band is exceeded (noise floor for tiny
    /// workloads).
    pub wall_slack_ms: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            wall_tolerance: DEFAULT_WALL_TOLERANCE,
            wall_slack_ms: DEFAULT_WALL_SLACK_MS,
        }
    }
}

/// Severity of one comparison line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or informational only).
    Ok,
    /// A regression or determinism violation; fails the gate.
    Fail,
}

/// One finding of the comparison.
#[derive(Debug, Clone)]
pub struct CompareLine {
    /// `instance/algo` scope (empty for snapshot-level findings).
    pub scope: String,
    /// Severity.
    pub verdict: Verdict,
    /// Human-readable description.
    pub message: String,
}

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every finding, in suite order.
    pub lines: Vec<CompareLine>,
}

impl CompareReport {
    fn push(&mut self, scope: &str, verdict: Verdict, message: String) {
        self.lines.push(CompareLine {
            scope: scope.to_string(),
            verdict,
            message,
        });
    }

    /// Number of failing findings.
    pub fn failures(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.verdict == Verdict::Fail)
            .count()
    }

    /// `true` when no finding fails the gate.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Renders the report as the text `mwsj bench compare` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let tag = match line.verdict {
                Verdict::Ok => "ok  ",
                Verdict::Fail => "FAIL",
            };
            if line.scope.is_empty() {
                let _ = writeln!(out, "{tag}  {}", line.message);
            } else {
                let _ = writeln!(out, "{tag}  {}: {}", line.scope, line.message);
            }
        }
        let _ = match self.failures() {
            0 => writeln!(out, "\nresult: PASS ({} checks)", self.lines.len()),
            n => writeln!(
                out,
                "\nresult: FAIL ({n} of {} checks failed)",
                self.lines.len()
            ),
        };
        out
    }
}

/// Compares `candidate` against `baseline` under `cfg` (see module docs
/// for the semantics).
pub fn compare(
    baseline: &BenchSnapshot,
    candidate: &BenchSnapshot,
    cfg: CompareConfig,
) -> CompareReport {
    let mut report = CompareReport::default();
    // Suite-keyed instances must tell the truth about themselves:
    // `random-n10-hard` recording `n_vars: 1` means some tool sliced the
    // key instead of parsing it (see [`crate::suite_key`]). Both sides are
    // checked — a poisoned baseline is as useless as a poisoned candidate.
    for (side, snap) in [("baseline", baseline), ("candidate", candidate)] {
        for inst in &snap.instances {
            let Some(key) = crate::suite_key::SuiteKey::parse(&inst.name) else {
                continue;
            };
            if key.n_vars != inst.n_vars {
                report.push(
                    &inst.name,
                    Verdict::Fail,
                    format!(
                        "{side} suite key declares n={} but the record says n_vars={}",
                        key.n_vars, inst.n_vars
                    ),
                );
            }
            if key.shape != inst.shape {
                report.push(
                    &inst.name,
                    Verdict::Fail,
                    format!(
                        "{side} suite key declares shape '{}' but the record says '{}'",
                        key.shape, inst.shape
                    ),
                );
            }
        }
    }
    let instances = (&baseline.instances[..], &candidate.instances[..]);
    for_each_pair(&mut report, "instance", instances, |i| i.name.clone(), {
        |report, scope, base_inst, cand_inst| {
            if (cand_inst.n_vars, cand_inst.cardinality, &cand_inst.shape)
                != (base_inst.n_vars, base_inst.cardinality, &base_inst.shape)
            {
                report.push(
                    scope,
                    Verdict::Fail,
                    format!(
                        "workload metadata drifted: baseline {}×n{} '{}', candidate {}×n{} '{}'",
                        base_inst.cardinality,
                        base_inst.n_vars,
                        base_inst.shape,
                        cand_inst.cardinality,
                        cand_inst.n_vars,
                        cand_inst.shape
                    ),
                );
            }
            let algos = (&base_inst.algos[..], &cand_inst.algos[..]);
            let algo_scope = |a: &AlgoRecord| format!("{scope}/{}", a.algo);
            for_each_pair(
                report,
                "algorithm",
                algos,
                algo_scope,
                |report, scope, b, c| compare_algo(report, scope, b, c, cfg),
            );
        }
    });
    // The deterministic sections: byte counts (`MemoryFootprint`
    // contract), window-cache work counters and the estimate side of the
    // explain audit are pure functions of the pinned suite, so every
    // declared non-measured field must match (integers exactly, derived
    // floats to round-off).
    compare_section(
        &mut report,
        "memory",
        (&baseline.memory, &candidate.memory),
        |m| format!("{}/memory", m.instance),
        |m| {
            format!(
                "memory identical ({} components, {} bytes)",
                m.components.len(),
                m.total_bytes
            )
        },
    );
    compare_section(
        &mut report,
        "cache",
        (&baseline.cache, &candidate.cache),
        |c| format!("{}/{}/cache", c.instance, c.algo),
        |c| {
            format!(
                "cache counters identical ({} hits, {} misses)",
                c.hits, c.misses
            )
        },
    );
    compare_section(
        &mut report,
        "explain",
        (&baseline.explain, &candidate.explain),
        |e| format!("{}/explain", e.instance),
        |e| {
            let r = &e.report;
            format!(
                "explain identical ({} model, {} edges, {} vars)",
                r.model,
                r.edges.len(),
                r.vars.len()
            )
        },
    );
    report
}

/// Pairs two keyed record lists by `scope` (which also labels the
/// findings) and hands every matched pair to `both`. A record on one
/// side only fails the gate: a disappearing benchmark is a regression of
/// coverage, a new one needs a re-snapshot.
fn for_each_pair<R>(
    report: &mut CompareReport,
    what: &str,
    (baseline, candidate): (&[R], &[R]),
    scope: impl Fn(&R) -> String,
    mut both: impl FnMut(&mut CompareReport, &str, &R, &R),
) {
    for base in baseline {
        let name = scope(base);
        match candidate.iter().find(|c| scope(c) == name) {
            Some(cand) => both(report, &name, base, cand),
            None => report.push(
                &name,
                Verdict::Fail,
                format!("{what} missing from candidate snapshot"),
            ),
        }
    }
    for cand in candidate {
        let name = scope(cand);
        if !baseline.iter().any(|b| scope(b) == name) {
            report.push(
                &name,
                Verdict::Fail,
                format!("{what} not present in baseline (re-snapshot the baseline)"),
            );
        }
    }
}

/// Gates one keyed snapshot section exact-or-fail with the records'
/// derived [`Record::drift`]; `identical` words the passing line.
fn compare_section<R: Record>(
    report: &mut CompareReport,
    what: &str,
    sections: (&[R], &[R]),
    scope: impl Fn(&R) -> String,
    identical: impl Fn(&R) -> String,
) {
    let records = format!("{what} record");
    for_each_pair(
        report,
        &records,
        sections,
        scope,
        |report, scope, base, cand| match base.drift(cand) {
            drift if drift.is_empty() => report.push(scope, Verdict::Ok, identical(base)),
            drift => report.push(
                scope,
                Verdict::Fail,
                format!("{what} drift: {}", drift.join(", ")),
            ),
        },
    );
}

fn compare_algo(
    report: &mut CompareReport,
    scope: &str,
    base: &AlgoRecord,
    cand: &AlgoRecord,
    cfg: CompareConfig,
) {
    // Deterministic counters: exact or fail.
    let mut counter_drift = Vec::new();
    base.counters.diff(&cand.counters, "", &mut counter_drift);
    if counter_drift.is_empty() {
        report.push(
            scope,
            Verdict::Ok,
            format!("counters identical ({})", summarize_counters(base)),
        );
    } else {
        report.push(
            scope,
            Verdict::Fail,
            format!("deterministic counter drift: {}", counter_drift.join(", ")),
        );
    }

    // Derived deterministic values: floats to round-off, steps-to-τ exactly.
    let mut drift = Vec::new();
    base.best_similarity
        .diff(&cand.best_similarity, "best_similarity", &mut drift);
    base.auc_steps
        .diff(&cand.auc_steps, "auc_steps", &mut drift);
    base.steps_to.diff(&cand.steps_to, "steps_to", &mut drift);
    if !drift.is_empty() {
        report.push(
            scope,
            Verdict::Fail,
            format!("deterministic summary drift: {}", drift.join(", ")),
        );
    }

    // Measured wall clock: median within the tolerance band. The band is
    // relative-OR-absolute — a candidate fails only when it exceeds both
    // `baseline * (1 + tolerance)` and `baseline + slack`, so sub-slack
    // jitter on tiny workloads never trips the gate.
    let (b, c) = (base.wall_ms_median, cand.wall_ms_median);
    if b > 0.0 {
        let ratio = c / b;
        let msg = format!(
            "wall median {b:.2}ms -> {c:.2}ms ({:+.1}%, tolerance +{:.0}% or +{:.1}ms)",
            (ratio - 1.0) * 100.0,
            cfg.wall_tolerance * 100.0,
            cfg.wall_slack_ms
        );
        let verdict = if c > b.max(WALL_NOISE_FLOOR_MS) * (1.0 + cfg.wall_tolerance)
            && c > b + cfg.wall_slack_ms
        {
            Verdict::Fail
        } else {
            Verdict::Ok
        };
        report.push(scope, verdict, msg);
    } else {
        report.push(
            scope,
            Verdict::Ok,
            format!("wall median {b:.2}ms -> {c:.2}ms (baseline too small to gate)"),
        );
    }
}

fn summarize_counters(algo: &AlgoRecord) -> String {
    let steps = algo.counter("steps").unwrap_or(0);
    let accesses = algo.counter("node_accesses").unwrap_or(0);
    format!("{steps} steps, {accesses} node accesses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::AnytimeCurve;
    use crate::snapshot::{InstanceRecord, TAUS};

    fn record(algo: &str, steps: u64, wall_ms: f64) -> AlgoRecord {
        let mut curve = AnytimeCurve::new();
        curve.record(0, 0.0, 0.5);
        curve.record(steps / 2, wall_ms / 2.0, 1.0);
        curve.set_totals(steps, steps * 3, wall_ms);
        AlgoRecord::from_curve(
            algo,
            vec![("steps".into(), steps), ("node_accesses".into(), steps * 3)],
            1.0,
            &curve,
            vec![wall_ms],
            vec![],
        )
    }

    fn snapshot(label: &str, algos: Vec<AlgoRecord>) -> BenchSnapshot {
        BenchSnapshot {
            label: label.into(),
            reps: 1,
            instances: vec![InstanceRecord {
                name: "chain-4".into(),
                shape: "chain".into(),
                n_vars: 4,
                cardinality: 100,
                seed: 1,
                algos,
            }],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let b = snapshot("b", vec![record("ILS", 100, 10.0)]);
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("result: PASS"));
    }

    #[test]
    fn counter_drift_fails() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let b = snapshot("b", vec![record("ILS", 101, 10.0)]);
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("counter drift"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn wall_slowdown_within_band_passes_beyond_fails() {
        // Baselines well above the absolute slack, so the relative band
        // is what decides.
        let a = snapshot("a", vec![record("ILS", 100, 100.0)]);
        let mut fast = record("ILS", 100, 100.0);
        fast.wall_ms_median = 120.0; // +20% < +25%
        let report = compare(&a, &snapshot("b", vec![fast]), CompareConfig::default());
        assert!(report.passed(), "{}", report.render());

        let mut slow = record("ILS", 100, 100.0);
        slow.wall_ms_median = 130.0; // +30% > +25%, +30ms > slack
        let report = compare(&a, &snapshot("b", vec![slow]), CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("wall median"),
            "{}",
            report.render()
        );

        // A wider band admits it.
        let mut slow = record("ILS", 100, 100.0);
        slow.wall_ms_median = 130.0;
        let report = compare(
            &a,
            &snapshot("b", vec![slow]),
            CompareConfig {
                wall_tolerance: 0.5,
                ..CompareConfig::default()
            },
        );
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn absolute_slack_floors_the_relative_band_on_tiny_workloads() {
        // +75% relative, but only +0.03ms absolute: inside the slack.
        let a = snapshot("a", vec![record("ILS", 100, 0.04)]);
        let mut jittery = record("ILS", 100, 0.04);
        jittery.wall_ms_median = 0.07;
        let report = compare(&a, &snapshot("b", vec![jittery]), CompareConfig::default());
        assert!(report.passed(), "{}", report.render());

        // The slack is additive, not a substitute: past both bounds fails.
        let mut slow = record("ILS", 100, 0.04);
        slow.wall_ms_median = 8.0;
        let report = compare(&a, &snapshot("b", vec![slow]), CompareConfig::default());
        assert!(!report.passed(), "{}", report.render());

        // Zero slack restores the purely relative gate — for medians
        // above the noise floor.
        let a = snapshot("a", vec![record("ILS", 100, 4.0)]);
        let mut slow = record("ILS", 100, 4.0);
        slow.wall_ms_median = 7.0; // +75% > +25%, above the 1ms floor
        let report = compare(
            &a,
            &snapshot("b", vec![slow]),
            CompareConfig {
                wall_slack_ms: 0.0,
                ..CompareConfig::default()
            },
        );
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn sub_millisecond_medians_never_flake_the_relative_gate() {
        // Relative-band-only config (the large-tier CI job): an 87%
        // "regression" on a 0.02ms median is scheduler jitter, not signal
        // — the noise floor absorbs it.
        let relative_only = CompareConfig {
            wall_tolerance: 0.6,
            wall_slack_ms: 0.0,
        };
        let a = snapshot("a", vec![record("ILS", 100, 0.02)]);
        let mut jittery = record("ILS", 100, 0.02);
        jittery.wall_ms_median = 0.04; // +100%, far below the floor
        let report = compare(&a, &snapshot("b", vec![jittery]), relative_only);
        assert!(report.passed(), "{}", report.render());

        // A genuine blow-up from a tiny baseline still fails: the floor
        // caps the denominator, it does not waive the gate.
        let mut blown = record("ILS", 100, 0.02);
        blown.wall_ms_median = 5.0; // > 1ms·1.6 and > baseline + 0
        let report = compare(&a, &snapshot("b", vec![blown]), relative_only);
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn speedups_always_pass_the_wall_gate() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let mut fast = record("ILS", 100, 10.0);
        fast.wall_ms_median = 2.0;
        let report = compare(&a, &snapshot("b", vec![fast]), CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn missing_and_extra_records_fail() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0), record("GILS", 50, 5.0)]);
        let b = snapshot("b", vec![record("ILS", 100, 10.0), record("SEA", 70, 7.0)]);
        let report = compare(&a, &b, CompareConfig::default());
        let rendered = report.render();
        assert_eq!(report.failures(), 2, "{rendered}");
        assert!(rendered.contains("GILS"), "{rendered}");
        assert!(rendered.contains("SEA"), "{rendered}");

        let empty = BenchSnapshot {
            label: "e".into(),
            reps: 1,
            instances: vec![],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        };
        let report = compare(&a, &empty, CompareConfig::default());
        assert!(!report.passed());
    }

    #[test]
    fn derived_float_and_threshold_drift_fail() {
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let mut drifted = record("ILS", 100, 10.0);
        drifted.auc_steps += 0.01;
        let report = compare(&a, &snapshot("b", vec![drifted]), CompareConfig::default());
        assert!(!report.passed());
        assert!(report.render().contains("auc_steps"), "{}", report.render());

        let mut drifted = record("ILS", 100, 10.0);
        drifted.steps_to = TAUS.iter().map(|&t| (format!("{t:.2}"), None)).collect();
        let report = compare(&a, &snapshot("b", vec![drifted]), CompareConfig::default());
        assert!(!report.passed());
        assert!(report.render().contains("steps_to"), "{}", report.render());
    }

    fn keyed_snapshot(label: &str, name: &str, n_vars: u64, shape: &str) -> BenchSnapshot {
        BenchSnapshot {
            label: label.into(),
            reps: 1,
            instances: vec![InstanceRecord {
                name: name.into(),
                shape: shape.into(),
                n_vars,
                cardinality: 10_000,
                seed: 1,
                algos: vec![record("ILS", 100, 10.0)],
            }],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        }
    }

    #[test]
    fn multi_digit_suite_keys_validate_against_record_metadata() {
        // Consistent n=10 key: passes — a parser slicing one digit would
        // have read n=1 and failed this.
        let a = keyed_snapshot("a", "random-n10-hard", 10, "random");
        let b = keyed_snapshot("b", "random-n10-hard", 10, "random");
        assert!(compare(&a, &b, CompareConfig::default()).passed());

        // A record whose metadata contradicts its key fails the gate.
        let bad = keyed_snapshot("b", "random-n10-hard", 1, "random");
        let report = compare(&a, &bad, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("suite key declares n=10"),
            "{}",
            report.render()
        );

        let bad = keyed_snapshot("b", "random-n10-hard", 10, "chain");
        let report = compare(&a, &bad, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("suite key declares shape"),
            "{}",
            report.render()
        );
    }

    fn with_sections(mut snap: BenchSnapshot) -> BenchSnapshot {
        snap.memory = vec![crate::snapshot::MemoryRecord {
            instance: "chain-4".into(),
            components: vec![("rtree.var000".into(), 4096)],
            total_bytes: 4096,
        }];
        snap.cache = vec![crate::snapshot::CacheRecord {
            instance: "chain-4".into(),
            algo: "ILS".into(),
            hits: 10,
            misses: 20,
            invalidations_reassign: 3,
            invalidations_penalty: 0,
            bytes: 512,
        }];
        snap.explain = vec![crate::snapshot::ExplainRecord {
            instance: "chain-4".into(),
            report: crate::explain::tests::sample_report(false),
        }];
        snap
    }

    #[test]
    fn identical_memory_and_cache_sections_pass() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("memory identical"), "{rendered}");
        assert!(rendered.contains("cache counters identical"), "{rendered}");
        assert!(rendered.contains("explain identical"), "{rendered}");
    }

    #[test]
    fn explain_estimate_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.explain[0].report.edges[0].estimated_selectivity += 0.001;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("explain drift: edges[0].estimated_selectivity"),
            "{}",
            report.render()
        );

        // Round-off-scale float differences stay inside the gate.
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.explain[0].report.vars[0].avg_extent += 1e-12;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn explain_tree_quality_drift_fails() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.explain[0].report.vars[1].tree.overlap_factor_per_level[0] += 0.1;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("vars[1].tree.overlap_factor_per_level[0]"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn memory_byte_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.memory[0].components[0].1 += 1;
        b.memory[0].total_bytes += 1;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("memory drift: components.rtree.var000 4096 -> 4097"),
            "{rendered}"
        );
    }

    #[test]
    fn cache_counter_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100, 10.0)]));
        b.cache[0].hits += 1;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("cache drift: hits 10 -> 11"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_memory_or_cache_section_fails_both_ways() {
        let with = with_sections(snapshot("a", vec![record("ILS", 100, 10.0)]));
        let without = snapshot("b", vec![record("ILS", 100, 10.0)]);
        // Baseline has the sections, candidate lost them: regression.
        let report = compare(&with, &without, CompareConfig::default());
        assert_eq!(report.failures(), 3, "{}", report.render());
        assert!(report.render().contains("missing from candidate"));
        // Candidate grew sections the baseline lacks: re-snapshot.
        let report = compare(&without, &with, CompareConfig::default());
        assert_eq!(report.failures(), 3, "{}", report.render());
        assert!(report.render().contains("not present in baseline"));
    }

    #[test]
    fn workload_metadata_drift_between_snapshots_fails() {
        // Same (unkeyed) instance name, different workload parameters:
        // the counters are not comparable, so the gate must fail even
        // though each snapshot is self-consistent.
        let a = snapshot("a", vec![record("ILS", 100, 10.0)]);
        let mut b = snapshot("b", vec![record("ILS", 100, 10.0)]);
        b.instances[0].n_vars = 5;
        let report = compare(&a, &b, CompareConfig::default());
        assert!(!report.passed());
        assert!(
            report.render().contains("workload metadata drifted"),
            "{}",
            report.render()
        );
    }
}
