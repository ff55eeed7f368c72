//! Comparison of two benchmark snapshots — the regression gate behind
//! `mwsj bench compare` and the root `tests/counter_gate.rs`.
//!
//! A snapshot has no clock in it (see [`crate::snapshot`]): every member —
//! workload seeds and shapes, work counters, `best_similarity`,
//! `auc_steps`, `steps_to` and the memory / cache / explain sections — is
//! a pure function of the commit. So the gate compares the two snapshots
//! as the documents they are: each side is written with
//! [`BenchSnapshot::to_string_pretty`] and re-parsed with [`Json::parse`],
//! and the two trees are walked together.
//!
//! * Objects are compared member by member; a member on one side only is
//!   a difference.
//! * An array of records — objects whose first member is a string — is
//!   paired by that string (`instance`, `algo`), or by the first two
//!   members where the first repeats (cache records: `instance`, `algo`),
//!   so a record on one side only fails by name. Every other array is
//!   compared by position.
//! * Two integers must match exactly, any other two numbers within 1e-9
//!   (the explain estimates go through `libm`); `null` equals only `null`,
//!   and strings and booleans must match exactly. A float that is not
//!   finite is written as `null`, so it never equals a number.
//! * The top-level `label` is skipped.
//!
//! Any difference fails the gate; there is no tolerance to tune.

use crate::json::Json;
use crate::record::join;
use crate::snapshot::BenchSnapshot;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Absolute tolerance on two numbers that are not both integers
/// (round-off only).
const FLOAT_EPS: f64 = 1e-9;

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// One `path: baseline -> candidate` line per difference, in document
    /// order.
    differences: Vec<String>,
    /// Values compared, plus members present on one side only.
    checks: usize,
}

impl CompareReport {
    /// Number of differences.
    pub fn failures(&self) -> usize {
        self.differences.len()
    }

    /// `true` when the two snapshots do not differ.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Renders the report as the text `mwsj bench compare` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.differences {
            let _ = writeln!(out, "FAIL  {line}");
        }
        let _ = match self.failures() {
            0 => writeln!(out, "result: PASS ({} checks)", self.checks),
            n => writeln!(out, "\nresult: FAIL ({n} of {} checks failed)", self.checks),
        };
        out
    }
}

/// Compares `candidate` against `baseline` (see the module docs for the
/// rules).
pub fn compare(baseline: &BenchSnapshot, candidate: &BenchSnapshot) -> CompareReport {
    let document = |snapshot: &BenchSnapshot| {
        let mut doc = Json::parse(&snapshot.to_string_pretty()).expect("a written snapshot parses");
        if let Json::Obj(members) = &mut doc {
            members.retain(|(key, _)| key != "label");
        }
        doc
    };
    let mut report = CompareReport::default();
    let (base, cand) = (document(baseline), document(candidate));
    diff(Some(&base), Some(&cand), "", &mut report);
    report
}

/// Appends every difference between `base` and `cand` (`None`: the
/// member is absent on that side) below `path`.
fn diff(base: Option<&Json>, cand: Option<&Json>, path: &str, report: &mut CompareReport) {
    match (base, cand) {
        (Some(Json::Obj(b)), Some(Json::Obj(c))) => {
            diff_members(members(b), members(c), path, report);
        }
        (Some(Json::Arr(b)), Some(Json::Arr(c))) => {
            let width = record_key_width(b, c);
            diff_members(elements(b, width), elements(c, width), path, report);
        }
        _ => {
            report.checks += 1;
            let same = match (base, cand) {
                (Some(Json::Int(b)), Some(Json::Int(c))) => b == c,
                (Some(b), Some(c)) => match (b.as_f64(), c.as_f64()) {
                    (Some(b), Some(c)) => (b - c).abs() <= FLOAT_EPS,
                    _ => b == c,
                },
                _ => false,
            };
            let shown = |value: Option<&Json>| match value {
                None => "<absent>".to_string(),
                Some(Json::Obj(_)) => "{…}".to_string(),
                Some(Json::Arr(_)) => "[…]".to_string(),
                Some(scalar) => scalar.dump(),
            };
            if !same {
                let line = format!("{path}: {} -> {}", shown(base), shown(cand));
                report.differences.push(line);
            }
        }
    }
}

/// Pairs the two sides' members by path segment and compares each pair;
/// a segment on one side only is a difference. Segments repeat only in a
/// malformed record array, whose i-th record of a key pairs with the
/// other side's i-th.
fn diff_members(
    base: Vec<(String, &Json)>,
    mut cand: Vec<(String, &Json)>,
    path: &str,
    report: &mut CompareReport,
) {
    for (segment, b) in base {
        let partner = cand.iter().position(|(s, _)| *s == segment);
        let c = partner.map(|i| cand.remove(i).1);
        diff(Some(b), c, &join(path, &segment), report);
    }
    for (segment, c) in cand {
        diff(None, Some(c), &join(path, &segment), report);
    }
}

/// How many leading members key a record of these two arrays: 0 when
/// they are not record arrays (position keys them), 1 when every leading
/// string is unique on each side, else 2.
fn record_key_width(base: &[Json], cand: &[Json]) -> usize {
    fn lead(item: &Json) -> Option<&str> {
        item.as_object()?.first()?.1.as_str()
    }
    let unique = |items: &[Json]| {
        let leads = items.iter().map(lead).collect::<Option<BTreeSet<_>>>();
        leads.map(|leads| leads.len() == items.len())
    };
    match (unique(base), unique(cand)) {
        (Some(true), Some(true)) => 1,
        (Some(_), Some(_)) => 2,
        _ => 0,
    }
}

/// An object's members with their keys as path segments.
fn members(members: &[(String, Json)]) -> Vec<(String, &Json)> {
    members.iter().map(|(k, v)| (k.clone(), v)).collect()
}

/// An array's elements with their path segments: `[i]` by position, or
/// the record's first `width` members (`["chain-n4-hard","ILS"]`).
fn elements(items: &[Json], width: usize) -> Vec<(String, &Json)> {
    let segment = |i: usize, item: &Json| match (width, item.as_object()) {
        (1.., Some(members)) => {
            let key: Vec<_> = members.iter().take(width).map(|(_, v)| v.dump()).collect();
            format!("[{}]", key.join(","))
        }
        _ => format!("[{i}]"),
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| (segment(i, item), item))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::AnytimeCurve;
    use crate::snapshot::{AlgoRecord, CacheRecord, InstanceRecord, MemoryRecord};

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

    fn instance(name: &str, algos: Vec<AlgoRecord>) -> InstanceRecord {
        InstanceRecord {
            name: name.into(),
            shape: "chain".into(),
            n_vars: 4,
            cardinality: 100,
            seed: 1,
            algos,
        }
    }

    fn cache(algo: &str, hits: u64) -> CacheRecord {
        CacheRecord {
            instance: "chain-4".into(),
            algo: algo.into(),
            hits,
            misses: 20,
            invalidations_reassign: 3,
            invalidations_penalty: 0,
            skipped: 7,
            bytes: 512,
        }
    }

    /// One instance with two algorithms, and every section.
    fn full(label: &str) -> BenchSnapshot {
        BenchSnapshot {
            label: label.into(),
            instances: vec![instance(
                "chain-4",
                vec![record("ILS", 100), record("GILS", 50)],
            )],
            memory: vec![MemoryRecord {
                instance: "chain-4".into(),
                components: vec![("rtree.var000".into(), 4096)],
                total_bytes: 4096,
            }],
            cache: vec![cache("ILS", 10), cache("GILS", 30)],
            explain: vec![crate::snapshot::ExplainRecord {
                instance: "chain-4".into(),
                report: crate::explain::tests::sample_report(false),
            }],
        }
    }

    /// The report's lines, asserting it failed.
    fn failing(a: &BenchSnapshot, b: &BenchSnapshot) -> Vec<String> {
        let report = compare(a, b);
        assert!(!report.passed(), "{}", report.render());
        report.differences
    }

    #[test]
    fn identical_snapshots_pass_whatever_their_labels() {
        let report = compare(&full("a"), &full("b"));
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks > 100, "{}", report.checks);
        assert!(report.render().starts_with("result: PASS ("));
    }

    #[test]
    fn counter_drift_fails_naming_the_member() {
        let mut b = full("b");
        b.instances[0].algos[0].counters[1].1 += 1;
        b.memory[0].components[0].1 += 1;
        b.cache[1].hits += 1;
        assert_eq!(
            failing(&full("a"), &b),
            [
                r#"suite["chain-4"].algos["ILS"].counters.steps: 100 -> 101"#,
                r#"memory["chain-4"].components.rtree.var000: 4096 -> 4097"#,
                r#"cache["chain-4","GILS"].hits: 30 -> 31"#,
            ]
        );
        let rendered = compare(&full("a"), &b).render();
        assert!(rendered.contains("\nresult: FAIL (3 of "), "{rendered}");
    }

    #[test]
    fn workload_seed_shape_size_and_cardinality_are_gated() {
        let a = full("a");
        let mut b = full("b");
        b.instances[0].seed += 1;
        b.instances[0].shape = "clique".into();
        b.instances[0].n_vars = 5;
        b.instances[0].cardinality = 101;
        assert_eq!(
            failing(&a, &b),
            [
                r#"suite["chain-4"].shape: "chain" -> "clique""#,
                r#"suite["chain-4"].n_vars: 4 -> 5"#,
                r#"suite["chain-4"].cardinality: 100 -> 101"#,
                r#"suite["chain-4"].seed: 1 -> 2"#,
            ]
        );
    }

    #[test]
    fn a_float_that_becomes_null_or_non_finite_fails() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = full("b");
            b.instances[0].algos[1].best_similarity = value;
            assert_eq!(
                failing(&full("a"), &b),
                [r#"suite["chain-4"].algos["GILS"].best_similarity: 1 -> null"#]
            );
            // And the other way round: null is equal to null only.
            assert_eq!(
                failing(&b, &full("a")),
                [r#"suite["chain-4"].algos["GILS"].best_similarity: null -> 1"#]
            );
            assert!(compare(&b, &b).passed());
        }
    }

    #[test]
    fn derived_floats_match_to_round_off() {
        let mut b = full("b");
        b.instances[0].algos[0].auc_steps += 1e-12;
        b.explain[0].report.vars[0].avg_extent += 1e-12;
        assert!(compare(&full("a"), &b).passed());

        b.explain[0].report.edges[0].estimated_selectivity += 0.001;
        b.explain[0].report.vars[1].tree.overlap_factor_per_level[0] += 0.1;
        let lines = failing(&full("a"), &b);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with(r#"explain["chain-4"].edges[0].estimated_selectivity: "#));
        assert!(lines[1]
            .starts_with(r#"explain["chain-4"].vars[1].tree.overlap_factor_per_level[0]: "#));

        let mut b = full("b");
        b.instances[0].algos[0].steps_to[0].1 = None;
        assert_eq!(
            failing(&full("a"), &b),
            [r#"suite["chain-4"].algos["ILS"].steps_to.0.50: 0 -> null"#]
        );
    }

    #[test]
    fn records_pair_by_name_not_position() {
        let a = full("a");
        let mut b = full("b");
        b.instances[0].algos.reverse();
        b.cache.reverse();
        assert!(compare(&a, &b).passed(), "{}", compare(&a, &b).render());

        // A record on one side only fails by its name.
        b.instances[0].algos[0].algo = "SEA".into();
        assert_eq!(
            failing(&a, &b),
            [
                r#"suite["chain-4"].algos["GILS"]: {…} -> <absent>"#,
                r#"suite["chain-4"].algos["SEA"]: <absent> -> {…}"#,
            ]
        );
    }

    #[test]
    fn missing_and_extra_records_fail_in_every_section() {
        let a = full("a");
        let mut b = full("b");
        b.instances
            .push(instance("clique-4", vec![record("ILS", 10)]));
        b.memory.clear();
        b.cache.retain(|c| c.algo == "ILS");
        b.explain.clear();
        assert_eq!(
            failing(&a, &b),
            [
                r#"suite["clique-4"]: <absent> -> {…}"#,
                r#"memory["chain-4"]: {…} -> <absent>"#,
                r#"cache["chain-4","GILS"]: {…} -> <absent>"#,
                r#"explain["chain-4"]: {…} -> <absent>"#,
            ]
        );
        assert_eq!(failing(&b, &a).len(), 4);
    }

    #[test]
    fn missing_and_extra_members_fail() {
        let a = full("a");
        let mut b = full("b");
        b.instances[0].algos[0]
            .counters
            .retain(|(k, _)| k != "steps");
        b.memory[0].components.push(("support.var000".into(), 12));
        assert_eq!(
            failing(&a, &b),
            [
                r#"suite["chain-4"].algos["ILS"].counters.steps: 100 -> <absent>"#,
                r#"memory["chain-4"].components.support.var000: <absent> -> 12"#,
            ]
        );
        // Beneath the typed records: a member of the document itself.
        let doc = |text: &str| Json::parse(text).unwrap();
        let (a, b) = (doc(r#"{"a":1,"b":[1,2]}"#), doc(r#"{"b":[1],"c":true}"#));
        let mut report = CompareReport::default();
        diff(Some(&a), Some(&b), "", &mut report);
        assert_eq!(
            report.differences,
            [
                "a: 1 -> <absent>",
                "b[1]: 2 -> <absent>",
                "c: <absent> -> true"
            ]
        );
    }
}
