//! The `BENCH_<label>.json` counter-snapshot format.
//!
//! One snapshot records what the pinned suite's step-budgeted runs did,
//! in the paper's cost units: per instance × algorithm, the **work
//! counters** (steps, node accesses, …), the best similarity and the
//! step-axis quality AUC and steps-to-τ of the anytime curve, plus the
//! per-instance memory, cache and explain tables. Every member is a pure
//! function of (commit, tier): there is **no clock reading in the file**,
//! so two snapshots of one commit are byte-identical and any difference
//! `mwsj bench compare` finds is a change in the code. Wall-clock time is
//! measured by `benchmark/` (BENCHMARK.json), at run lengths with a known
//! noise floor.
//!
//! Like the JSONL run events, every record here is declared once with
//! `record!` (see [`crate::record`]); [`BenchSnapshot::parse`] — the
//! derived reader plus the format/version/non-empty checks — is the
//! schema (`mwsj report` runs it on any file that [`BenchSnapshot::sniff`]s
//! as a snapshot). `mwsj bench compare` reads both files with it, then
//! diffs the documents they write back ([`mod@crate::compare`]).

use crate::curve::AnytimeCurve;
use crate::explain::ExplainReport;
use crate::json::{Json, JsonError, JsonWriter};
use crate::record::{record, FieldDoc, FieldError, Record};
use std::fmt;

/// The top-level `format` discriminator of snapshot files.
pub const SNAPSHOT_FORMAT: &str = "mwsj-bench-snapshot";
/// Current snapshot schema version (1 carried wall-clock members).
pub const SNAPSHOT_VERSION: u64 = 2;

/// The similarity thresholds every snapshot reports `steps_to` for.
pub const TAUS: [f64; 3] = [0.5, 0.9, 1.0];

/// Formats a τ threshold as its canonical JSON map key (`"0.50"`).
pub fn tau_key(tau: f64) -> String {
    format!("{tau:.2}")
}

/// The top-level sections a snapshot document may contain (the declared
/// members of the header and of [`BenchSnapshot`]); anything else is
/// rejected by [`BenchSnapshot::parse`] with an error naming the
/// offending section.
pub fn snapshot_sections() -> Vec<&'static str> {
    let mut fields: Vec<FieldDoc> = Vec::new();
    SnapshotHeader::schema(&mut fields);
    BenchSnapshot::schema(&mut fields);
    fields.iter().map(|f| f.key).collect()
}

record! {
    /// The two discriminating members every snapshot file starts with.
    #[derive(Debug)]
    pub(crate) struct SnapshotHeader {
        /// Always [`SNAPSHOT_FORMAT`].
        format: String,
        /// Always [`SNAPSHOT_VERSION`].
        version: u64,
    }
}

record! {
    /// One suite snapshot: the pinned instances and their per-algorithm
    /// records.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchSnapshot {
        /// Snapshot label (e.g. `"baseline"`, `"ci"`).
        pub label: String,
        /// Per-instance records.
        pub instances: Vec<InstanceRecord> as "suite",
        /// Deterministic per-instance memory tables (the `memory` section).
        pub memory: Vec<MemoryRecord>,
        /// Deterministic per-record cache-efficiency counters (the `cache`
        /// section).
        pub cache: Vec<CacheRecord>,
        /// Deterministic per-instance workload explain reports (the `explain`
        /// section): the pre-run estimate side only — selectivities, hit
        /// rates, predicted accesses, tree quality — a pure function of the
        /// pinned instance.
        pub explain: Vec<ExplainRecord>,
    }
}

record! {
    /// Deterministic pre-run explain report of one suite instance.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ExplainRecord {
        /// The suite instance this report describes.
        pub instance: String,
        /// The estimate-side [`ExplainReport`] of the pinned instance.
        pub report: ExplainReport [flat],
    }
}

record! {
    /// Deterministic memory footprint of one suite instance's resident
    /// structures, component by component (`rects.var000`, `rtree.var000`, …). Bytes are length-based (`MemoryFootprint` contract), so the same
    /// pinned instance always reports the same table on every machine.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MemoryRecord {
        /// The suite instance this table describes.
        pub instance: String,
        /// Component → bytes, ascending by component name.
        pub components: Vec<(String, u64)>,
        /// Sum over `components`.
        pub total_bytes: u64,
    }
}

record! {
    /// Deterministic window-cache efficiency counters of one instance ×
    /// algorithm record. All-zero records (algorithms that run without the
    /// cache) are still recorded so regressions that silently disable the
    /// cache fail the gate.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CacheRecord {
        /// The suite instance.
        pub instance: String,
        /// The algorithm name.
        pub algo: String,
        /// Queries answered from the memoised result without a traversal.
        pub hits: u64,
        /// Queries that ran the index traversal.
        pub misses: u64,
        /// Misses caused by a neighbour-assignment change.
        pub invalidations_reassign: u64,
        /// Misses caused by a penalty-version bump alone.
        pub invalidations_penalty: u64,
        /// Questions the support bits' bound answered before the cache.
        pub skipped: u64,
        /// Cache resident bytes at run end (summed across merged restarts).
        pub bytes: u64,
    }
}

record! {
    /// One pinned suite instance and the algorithms measured on it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct InstanceRecord {
        /// Stable instance name (e.g. `"chain-4x300-sol1"`).
        pub name: String as "instance",
        /// Query shape (`"chain"`, `"clique"`, …).
        pub shape: String,
        /// Number of query variables / datasets.
        pub n_vars: u64,
        /// Objects per dataset.
        pub cardinality: u64,
        /// Workload RNG seed.
        pub seed: u64,
        /// Per-algorithm measurements, in suite order.
        pub algos: Vec<AlgoRecord>,
    }
}

record! {
    /// Measurements of one algorithm on one instance.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AlgoRecord {
        /// Algorithm name (`"ILS"`, `"GILS"`, `"SEA"`, `"two-step"`).
        pub algo: String,
        /// Deterministic work counters, ascending by name.
        pub counters: Vec<(String, u64)>,
        /// Best similarity reached (deterministic under a step budget).
        pub best_similarity: f64,
        /// Quality AUC over the step axis (deterministic).
        pub auc_steps: f64,
        /// Steps to reach each τ of [`TAUS`] (`None` = never), keyed by
        /// [`tau_key`]. Deterministic.
        pub steps_to: Vec<(String, Option<u64>)>,
    }
}

impl AlgoRecord {
    /// Builds a record from a finished curve (with totals set).
    /// `counters` may be in any order.
    pub fn from_curve(
        algo: &str,
        mut counters: Vec<(String, u64)>,
        best_similarity: f64,
        curve: &AnytimeCurve,
    ) -> AlgoRecord {
        counters.sort();
        AlgoRecord {
            algo: algo.to_string(),
            counters,
            best_similarity,
            auc_steps: curve.auc_steps(),
            steps_to: TAUS
                .iter()
                .map(|&tau| (tau_key(tau), curve.steps_to(tau)))
                .collect(),
        }
    }

    /// Looks up a deterministic counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// A snapshot parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The file is empty (or whitespace only).
    Empty,
    /// The file is not valid JSON — `trailing` is set when the input ends
    /// mid-document, which usually means a truncated file.
    Json {
        /// The underlying parse error.
        error: JsonError,
        /// `true` when the document appears cut off at the end.
        truncated: bool,
    },
    /// The JSON is valid but violates the snapshot schema.
    Schema(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Empty => write!(f, "empty snapshot file"),
            SnapshotError::Json { error, truncated } => {
                write!(f, "{error}")?;
                if *truncated {
                    write!(f, " — file appears truncated")?;
                }
                Ok(())
            }
            SnapshotError::Schema(msg) => write!(f, "snapshot schema violation: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FieldError> for SnapshotError {
    fn from(error: FieldError) -> Self {
        SnapshotError::Schema(error.to_string())
    }
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Schema(msg.into()))
}

impl BenchSnapshot {
    /// Serialises the snapshot as indented JSON (the on-disk
    /// `BENCH_<label>.json` form, trailing newline included).
    pub fn to_string_pretty(&self) -> String {
        let header = SnapshotHeader {
            format: SNAPSHOT_FORMAT.to_string(),
            version: SNAPSHOT_VERSION,
        };
        let mut w = JsonWriter::pretty();
        w.open('{');
        header.write_fields(&mut w);
        self.write_fields(&mut w);
        w.close('}');
        w.finish() + "\n"
    }

    /// Parses and schema-validates a snapshot document: the derived typed
    /// reader checks every declared field all the way down (unknown extra
    /// fields are allowed, unknown top-level sections are not).
    pub fn parse(text: &str) -> Result<BenchSnapshot, SnapshotError> {
        if text.trim().is_empty() {
            return Err(SnapshotError::Empty);
        }
        let doc = Json::parse(text).map_err(|error| {
            let truncated = error.offset >= text.trim_end().len();
            SnapshotError::Json { error, truncated }
        })?;
        let top = doc
            .as_object()
            .ok_or_else(|| SnapshotError::Schema("snapshot must be a JSON object".into()))?;
        // The header first: a file of another version is refused as that,
        // not as whichever of its members this version does not know.
        let header = SnapshotHeader::from_json(&doc)?;
        if header.format != SNAPSHOT_FORMAT {
            return schema_err(format!(
                "\"format\" is {:?}, expected {SNAPSHOT_FORMAT:?}",
                header.format
            ));
        }
        if header.version != SNAPSHOT_VERSION {
            return schema_err(format!(
                "unsupported snapshot version {} (supported: {SNAPSHOT_VERSION})",
                header.version
            ));
        }
        let sections = snapshot_sections();
        if let Some((unknown, _)) = top.iter().find(|(k, _)| !sections.contains(&k.as_str())) {
            return schema_err(format!(
                "unknown top-level section {unknown:?} (known sections: {})",
                sections.join(", ")
            ));
        }
        let snapshot = BenchSnapshot::from_json(&doc)?;
        if snapshot.instances.is_empty() {
            return schema_err("\"suite\" must contain at least one instance");
        }
        if let Some(inst) = snapshot.instances.iter().find(|i| i.algos.is_empty()) {
            return schema_err(format!("instance {:?} has no algorithm records", inst.name));
        }
        Ok(snapshot)
    }

    /// `true` when `text` looks like a snapshot document rather than a
    /// JSONL event stream (how `mwsj report` routes its input).
    pub fn sniff(text: &str) -> bool {
        Json::parse(text)
            .is_ok_and(|doc| doc.get("format").and_then(Json::as_str) == Some(SNAPSHOT_FORMAT))
    }

    /// Total number of algorithm records across all instances.
    pub fn algo_records(&self) -> usize {
        self.instances.iter().map(|i| i.algos.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot(label: &str) -> BenchSnapshot {
        let mut curve = AnytimeCurve::new();
        curve.record(0, 0.1, 0.5);
        curve.record(40, 3.0, 1.0);
        curve.set_totals(100, 420, 9.0);
        let algo = AlgoRecord::from_curve(
            "ILS",
            vec![
                ("steps".into(), 100),
                ("node_accesses".into(), 420),
                ("best_violations".into(), 0),
            ],
            1.0,
            &curve,
        );
        BenchSnapshot {
            label: label.to_string(),
            instances: vec![InstanceRecord {
                name: "chain-4x300-sol1".into(),
                shape: "chain".into(),
                n_vars: 4,
                cardinality: 300,
                seed: 101,
                algos: vec![algo],
            }],
            memory: vec![MemoryRecord {
                instance: "chain-4x300-sol1".into(),
                components: vec![("rects.var000".into(), 4096), ("rtree.var000".into(), 8192)],
                total_bytes: 12_288,
            }],
            cache: vec![CacheRecord {
                instance: "chain-4x300-sol1".into(),
                algo: "ILS".into(),
                hits: 37,
                misses: 63,
                invalidations_reassign: 12,
                invalidations_penalty: 0,
                skipped: 5,
                bytes: 2048,
            }],
            explain: vec![ExplainRecord {
                instance: "chain-4x300-sol1".into(),
                report: crate::explain::tests::sample_report(false),
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot("baseline");
        let text = snap.to_string_pretty();
        let parsed = BenchSnapshot::parse(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.algo_records(), 1);
        assert!(BenchSnapshot::sniff(&text));
    }

    #[test]
    fn from_curve_computes_summaries() {
        let snap = sample_snapshot("x");
        let algo = &snap.instances[0].algos[0];
        assert_eq!(algo.counter("steps"), Some(100));
        assert_eq!(algo.counter("missing"), None);
        // sim 0.5 over steps [0,40), 1.0 over [40,100): AUC = 0.8.
        assert!((algo.auc_steps - 0.8).abs() < 1e-12);
        assert_eq!(
            algo.steps_to,
            vec![
                ("0.50".to_string(), Some(0)),
                ("0.90".to_string(), Some(40)),
                ("1.00".to_string(), Some(40)),
            ]
        );
        // Counters came unsorted; the record sorts them.
        assert_eq!(algo.counters[0].0, "best_violations");
    }

    #[test]
    fn parse_rejects_empty_and_truncated() {
        assert_eq!(BenchSnapshot::parse(""), Err(SnapshotError::Empty));
        assert_eq!(BenchSnapshot::parse("  \n"), Err(SnapshotError::Empty));
        let full = sample_snapshot("t").to_string_pretty();
        let cut = &full[..full.len() / 2];
        match BenchSnapshot::parse(cut) {
            Err(SnapshotError::Json { truncated, .. }) => assert!(truncated),
            other => panic!("expected truncated JSON error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_wrong_format_and_version() {
        let err = BenchSnapshot::parse(r#"{"format":"other","version":2}"#).unwrap_err();
        assert!(matches!(err, SnapshotError::Schema(_)), "{err}");
        // A version-1 file is refused as that, before its `reps` member
        // can read as an unknown section.
        let err = BenchSnapshot::parse(
            r#"{"format":"mwsj-bench-snapshot","version":1,"label":"x","reps":9,"suite":[]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "snapshot schema violation: unsupported snapshot version 1 (supported: 2)"
        );
    }

    #[test]
    fn parse_rejects_missing_fields_with_context() {
        let mut snap = sample_snapshot("x");
        snap.instances[0].algos[0].algo = "GILS".into();
        let text = snap
            .to_string_pretty()
            .replace("\"auc_steps\"", "\"renamed\"");
        let err = BenchSnapshot::parse(&text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("auc_steps") && msg.contains("GILS"), "{msg}");
    }

    #[test]
    fn parse_rejects_unknown_top_level_section() {
        let text = sample_snapshot("x")
            .to_string_pretty()
            .replacen("\"memory\"", "\"memroy\"", 1);
        let err = BenchSnapshot::parse(&text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("unknown top-level section \"memroy\"") && msg.contains("suite"),
            "{msg}"
        );
    }

    #[test]
    fn a_snapshot_missing_a_section_is_refused_naming_it() {
        let mut snap = sample_snapshot("old");
        snap.memory.clear();
        snap.cache.clear();
        snap.explain.clear();
        let full = snap.to_string_pretty();
        for (section, member) in [
            ("memory", ",\n  \"memory\": []"),
            ("cache", ",\n  \"cache\": []"),
            ("explain", ",\n  \"explain\": []"),
        ] {
            let text = full.replace(member, "");
            assert_ne!(text, full, "{section}");
            let err = BenchSnapshot::parse(&text).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("snapshot schema violation: {section}: missing required field")
            );
        }
    }

    #[test]
    fn memory_cache_explain_sections_round_trip() {
        let snap = sample_snapshot("m");
        let parsed = BenchSnapshot::parse(&snap.to_string_pretty()).unwrap();
        assert_eq!(parsed.memory, snap.memory);
        assert_eq!(parsed.cache, snap.cache);
        assert_eq!(parsed.explain, snap.explain);
        assert_eq!(parsed.memory[0].total_bytes, 12_288);
        assert_eq!(parsed.cache[0].hits, 37);
        assert_eq!(parsed.explain[0].report.model, "acyclic");
        assert!(!parsed.explain[0].report.has_observed());
    }

    #[test]
    fn explain_record_missing_report_field_fails_parse() {
        let text = sample_snapshot("x")
            .to_string_pretty()
            .replace("\"expected_solutions\"", "\"renamed_solutions\"");
        let err = BenchSnapshot::parse(&text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("explain[0 \"chain-4x300-sol1\"].expected_solutions: missing"),
            "{msg}"
        );
    }

    #[test]
    fn sniff_rejects_jsonl_streams() {
        assert!(!BenchSnapshot::sniff(
            "{\"event\":\"phases\",\"phases\":[]}\n{\"event\":\"phases\",\"phases\":[]}\n"
        ));
        assert!(!BenchSnapshot::sniff(
            "{\"event\":\"phases\",\"phases\":[]}"
        ));
        assert!(!BenchSnapshot::sniff("not json"));
    }
}
