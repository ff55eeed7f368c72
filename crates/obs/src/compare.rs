//! Comparison of two benchmark snapshots — the regression gate behind
//! `mwsj bench compare` and the root `tests/counter_gate.rs`.
//!
//! A snapshot has no clock in it (see [`crate::snapshot`]): every member —
//! work counters, `best_similarity`, `auc_steps`, `steps_to` and the
//! memory / cache / explain sections — is a pure function of the commit,
//! so every record is gated the same way, through the comparison derived
//! from its declaration ([`Record::drift`]): integers, strings and shapes
//! must match *exactly*, derived floats to round-off (the explain
//! estimates go through `libm`). Any drift means the algorithms themselves
//! changed and fails the gate outright; there is no tolerance to tune.
//!
//! Missing or extra (instance, algorithm) pairs fail the gate: a
//! disappearing benchmark is a regression of coverage.

use crate::record::Record;
use crate::snapshot::BenchSnapshot;
use std::fmt::Write as _;

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

/// Compares `candidate` against `baseline` (see module docs for the
/// semantics).
pub fn compare(baseline: &BenchSnapshot, candidate: &BenchSnapshot) -> CompareReport {
    let mut report = CompareReport::default();
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
            compare_section(
                report,
                "algorithm",
                (&base_inst.algos, &cand_inst.algos),
                |a| format!("{scope}/{}", a.algo),
                |a| {
                    format!(
                        "counters identical ({} steps, {} node accesses)",
                        a.counter("steps").unwrap_or(0),
                        a.counter("node_accesses").unwrap_or(0)
                    )
                },
            );
        }
    });
    // The sections: byte counts (`MemoryFootprint` contract), window-cache
    // work counters and the estimate side of the explain audit.
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
                "cache counters identical ({} hits, {} misses, {} skipped)",
                c.hits, c.misses, c.skipped
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

/// Gates one keyed list of records (an instance's algorithms, or a
/// snapshot section) exact-or-fail with the records' derived
/// [`Record::drift`]; `identical` words the passing line.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::AnytimeCurve;
    use crate::snapshot::{AlgoRecord, InstanceRecord, TAUS};

    fn record(algo: &str, steps: u64) -> AlgoRecord {
        let mut curve = AnytimeCurve::new();
        curve.record(0, 0.0, 0.5);
        curve.record(steps / 2, 0.0, 1.0);
        curve.set_totals(steps, steps * 3, 0.0);
        AlgoRecord::from_curve(
            algo,
            vec![("steps".into(), steps), ("node_accesses".into(), steps * 3)],
            1.0,
            &curve,
        )
    }

    fn snapshot(label: &str, algos: Vec<AlgoRecord>) -> BenchSnapshot {
        BenchSnapshot {
            label: label.into(),
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
        let a = snapshot("a", vec![record("ILS", 100)]);
        let b = snapshot("b", vec![record("ILS", 100)]);
        let report = compare(&a, &b);
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("result: PASS"));
    }

    #[test]
    fn counter_drift_fails() {
        let a = snapshot("a", vec![record("ILS", 100)]);
        let b = snapshot("b", vec![record("ILS", 101)]);
        let report = compare(&a, &b);
        assert!(!report.passed());
        assert!(
            report.render().contains(
                "algorithm drift: counters.node_accesses 300 -> 303, counters.steps 100 -> 101"
            ),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_and_extra_records_fail() {
        let a = snapshot("a", vec![record("ILS", 100), record("GILS", 50)]);
        let b = snapshot("b", vec![record("ILS", 100), record("SEA", 70)]);
        let report = compare(&a, &b);
        let rendered = report.render();
        assert_eq!(report.failures(), 2, "{rendered}");
        assert!(rendered.contains("GILS"), "{rendered}");
        assert!(rendered.contains("SEA"), "{rendered}");

        let empty = BenchSnapshot {
            label: "e".into(),
            instances: vec![],
            memory: vec![],
            cache: vec![],
            explain: vec![],
        };
        let report = compare(&a, &empty);
        assert!(!report.passed());
    }

    #[test]
    fn derived_float_and_threshold_drift_fail() {
        let a = snapshot("a", vec![record("ILS", 100)]);
        let mut drifted = record("ILS", 100);
        drifted.auc_steps += 0.01;
        let report = compare(&a, &snapshot("b", vec![drifted]));
        assert!(!report.passed());
        assert!(report.render().contains("auc_steps"), "{}", report.render());

        let mut drifted = record("ILS", 100);
        drifted.steps_to = TAUS.iter().map(|&t| (format!("{t:.2}"), None)).collect();
        let report = compare(&a, &snapshot("b", vec![drifted]));
        assert!(!report.passed());
        assert!(report.render().contains("steps_to"), "{}", report.render());
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
            skipped: 7,
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
        let a = with_sections(snapshot("a", vec![record("ILS", 100)]));
        let b = with_sections(snapshot("b", vec![record("ILS", 100)]));
        let report = compare(&a, &b);
        assert!(report.passed(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("memory identical"), "{rendered}");
        assert!(rendered.contains("cache counters identical"), "{rendered}");
        assert!(rendered.contains("explain identical"), "{rendered}");
    }

    #[test]
    fn explain_estimate_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100)]));
        b.explain[0].report.edges[0].estimated_selectivity += 0.001;
        let report = compare(&a, &b);
        assert!(!report.passed());
        assert!(
            report
                .render()
                .contains("explain drift: edges[0].estimated_selectivity"),
            "{}",
            report.render()
        );

        // Round-off-scale float differences stay inside the gate.
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100)]));
        b.explain[0].report.vars[0].avg_extent += 1e-12;
        let report = compare(&a, &b);
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn explain_tree_quality_drift_fails() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100)]));
        b.explain[0].report.vars[1].tree.overlap_factor_per_level[0] += 0.1;
        let report = compare(&a, &b);
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
        let a = with_sections(snapshot("a", vec![record("ILS", 100)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100)]));
        b.memory[0].components[0].1 += 1;
        b.memory[0].total_bytes += 1;
        let report = compare(&a, &b);
        assert!(!report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("memory drift: components.rtree.var000 4096 -> 4097"),
            "{rendered}"
        );
    }

    #[test]
    fn cache_counter_drift_fails_exactly() {
        let a = with_sections(snapshot("a", vec![record("ILS", 100)]));
        let mut b = with_sections(snapshot("b", vec![record("ILS", 100)]));
        b.cache[0].hits += 1;
        let report = compare(&a, &b);
        assert!(!report.passed());
        assert!(
            report.render().contains("cache drift: hits 10 -> 11"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_memory_or_cache_section_fails_both_ways() {
        let with = with_sections(snapshot("a", vec![record("ILS", 100)]));
        let without = snapshot("b", vec![record("ILS", 100)]);
        // Baseline has the sections, candidate lost them: regression.
        let report = compare(&with, &without);
        assert_eq!(report.failures(), 3, "{}", report.render());
        assert!(report.render().contains("missing from candidate"));
        // Candidate grew sections the baseline lacks: re-snapshot.
        let report = compare(&without, &with);
        assert_eq!(report.failures(), 3, "{}", report.render());
        assert!(report.render().contains("not present in baseline"));
    }

    #[test]
    fn workload_metadata_drift_between_snapshots_fails() {
        // Same (unkeyed) instance name, different workload parameters:
        // the counters are not comparable, so the gate must fail even
        // though each snapshot is self-consistent.
        let a = snapshot("a", vec![record("ILS", 100)]);
        let mut b = snapshot("b", vec![record("ILS", 100)]);
        b.instances[0].n_vars = 5;
        let report = compare(&a, &b);
        assert!(!report.passed());
        assert!(
            report.render().contains("workload metadata drifted"),
            "{}",
            report.render()
        );
    }
}
