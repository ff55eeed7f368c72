//! Validation of JSONL run-event files, and the schema table.
//!
//! There is no schema beside the declarations: [`RunEvent::parse_line`]
//! — derived from the one `events!` declaration in [`crate::events`] —
//! is the validator, and [`markdown_table`] renders the same
//! declarations as the table embedded in `DESIGN.md`. This module is the
//! thin front used by tests, `mwsj report` (which CI runs on every
//! artifact) and `mwsj watch`. Validation is deliberately *open*:
//! unknown extra fields are allowed (forward compatibility), but the
//! `event` discriminator must be known and every declared field must be
//! present with the right JSON type, all the way into nested records.

use crate::events::RunEvent;
use crate::json::{Json, JsonError};
use crate::record::{render_fields, FieldDoc, FieldError, Record};
use std::fmt;

/// A schema violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The line is valid JSON but not an object.
    NotAnObject,
    /// The object has no `"event"` string field.
    MissingEventField,
    /// The `"event"` value names no known event kind.
    UnknownEvent(String),
    /// A required field is missing.
    MissingField {
        /// The event kind.
        event: String,
        /// Path of the missing field (e.g. `phases[0].calls`).
        field: String,
    },
    /// A field is present with the wrong JSON type or an invalid value.
    WrongType {
        /// The event kind.
        event: String,
        /// Path of the offending field.
        field: String,
        /// What the reader expected, human-readable.
        expected: &'static str,
    },
}

impl SchemaError {
    /// Lifts a reader error into the event it occurred in.
    pub fn field(event: &str, error: FieldError) -> Self {
        let (event, field) = (event.to_string(), error.path);
        match error.expected {
            None => SchemaError::MissingField { event, field },
            Some(expected) => SchemaError::WrongType {
                event,
                field,
                expected,
            },
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Json(e) => write!(f, "{e}"),
            SchemaError::NotAnObject => write!(f, "line is not a JSON object"),
            SchemaError::MissingEventField => write!(f, "missing \"event\" string field"),
            SchemaError::UnknownEvent(kind) => write!(f, "unknown event kind {kind:?}"),
            SchemaError::MissingField { event, field } => {
                write!(f, "event {event:?}: {field}: missing required field")
            }
            SchemaError::WrongType {
                event,
                field,
                expected,
            } => write!(f, "event {event:?}: {field}: expected {expected}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl RunEvent {
    /// Parses and validates one JSONL line.
    pub fn parse_line(line: &str) -> Result<RunEvent, SchemaError> {
        RunEvent::from_json(&Json::parse(line).map_err(SchemaError::Json)?)
    }
}

/// Parses a whole JSONL document (empty lines are ignored) into its
/// events, or the 1-based line number of the first failure.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunEvent>, (usize, SchemaError)> {
    let lines = text.lines().enumerate();
    lines
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| RunEvent::parse_line(line).map_err(|e| (i + 1, e)))
        .collect()
}

/// The schema as markdown, rendered from the declarations: one table of
/// run events, one of the records nested in events and bench snapshots.
/// `DESIGN.md` embeds this text verbatim (pinned by a test).
pub fn markdown_table() -> String {
    use crate::{explain, snapshot, timer};
    fn record<R: Record>() -> (String, Vec<FieldDoc>) {
        let mut fields = Vec::new();
        R::schema(&mut fields);
        (R::kind(), fields)
    }
    let mut out = String::from("| `event` | fields |\n|---|---|\n");
    for (kind, fields) in RunEvent::schema() {
        out += &format!("| `{kind}` | {} |\n", render_fields(&fields));
    }
    out += "\n| record | fields |\n|---|---|\n";
    for (name, fields) in [
        record::<timer::PhaseSnapshot>(),
        record::<explain::EdgeExplain>(),
        record::<explain::VarExplain>(),
        record::<explain::TreeQuality>(),
        record::<snapshot::SnapshotHeader>(),
        record::<snapshot::BenchSnapshot>(),
        record::<snapshot::InstanceRecord>(),
        record::<snapshot::AlgoRecord>(),
        record::<snapshot::MemoryRecord>(),
        record::<snapshot::CacheRecord>(),
        record::<snapshot::ExplainRecord>(),
    ] {
        out += &format!("| `{name}` | {} |\n", render_fields(&fields));
    }
    out += "\n`†` measured wall-clock (non-negative; exempt from determinism; in \
            run events only, a bench snapshot has none) · `‡` estimate from the data's geometry \
            · a `†` or `‡` float is `null` when not finite, any other float refuses `null` \
            · `?` may be `null` · `{str: T}` object \
            keyed by name · nested records are validated recursively · unknown \
            extra members are allowed\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RunEvent;

    /// The kind of a valid line, or why it is not one.
    fn validate_line(line: &str) -> Result<&'static str, SchemaError> {
        RunEvent::parse_line(line).map(|event| event.kind())
    }

    #[test]
    fn emitted_events_validate() {
        let events = vec![
            RunEvent::RunStart {
                algo: "GILS".into(),
                n_vars: 4,
                edges: 3,
                restarts: 1,
                seed: 1,
                budget_steps: None,
                budget_secs: Some(2.0),
            },
            RunEvent::Improvement {
                restart: None,
                step: 5,
                violations: 1,
                similarity: 0.66,
                elapsed_secs: 0.01,
            },
            RunEvent::Progress {
                restart: Some(2),
                step: 100,
                steps_per_sec: 9000.0,
                elapsed_secs: 0.011,
                best_violations: Some(0),
                best_similarity: Some(1.0),
                node_accesses: 77,
                cache_hits: 5,
                cache_misses: 2,
                resident_bytes: 4096,
            },
            RunEvent::Progress {
                restart: None,
                step: 100,
                steps_per_sec: 0.0,
                elapsed_secs: 0.0,
                best_violations: None,
                best_similarity: None,
                node_accesses: 0,
                cache_hits: 0,
                cache_misses: 0,
                resident_bytes: 0,
            },
            RunEvent::StallDetected {
                restart: None,
                step: 700,
                steps_since_improvement: 600,
                secs_since_improvement: 0.4,
                elapsed_secs: 0.5,
            },
            RunEvent::StallAborted {
                restart: Some(1),
                steps: 710,
                elapsed_secs: 0.51,
            },
            RunEvent::StagnationReseed {
                restart: Some(0),
                step: 340,
                rounds: 64,
                elapsed_secs: 0.2,
            },
            RunEvent::Metrics {
                snapshot: crate::MetricsSnapshot::default(),
            },
            RunEvent::Phases { phases: vec![] },
            RunEvent::ExplainReport {
                report: crate::explain::ExplainReport {
                    model: "acyclic".into(),
                    expected_solutions: 1.0,
                    edges: vec![crate::explain::EdgeExplain {
                        a: 0,
                        b: 1,
                        predicate: "intersects".into(),
                        estimated_selectivity: 0.04,
                        observed_selectivity: Some(0.05),
                        observed_pairs: Some(2_000),
                    }],
                    vars: vec![crate::explain::VarExplain {
                        var: 0,
                        cardinality: 200,
                        avg_extent: 0.05,
                        expected_window_hits: 8.0,
                        predicted_accesses_per_query: 3.5,
                        observed_accesses: 42,
                        accesses_per_level: vec![32, 10],
                        tree: crate::explain::TreeQuality::default(),
                    }],
                    observed_node_accesses: Some(42),
                },
            },
            RunEvent::ResourceReport {
                report: {
                    let mut r = crate::resource::ResourceReport::new();
                    r.record("rtree.var000", 2048);
                    r
                },
            },
            RunEvent::RunEnd {
                best_violations: 1,
                best_similarity: 0.66,
                steps: 100,
                node_accesses: 42,
                local_maxima: 2,
                improvements: 1,
                restarts: 3,
                elapsed_secs: 0.1,
                proven_optimal: false,
            },
        ];
        for event in &events {
            assert_eq!(validate_line(&event.to_json()), Ok(event.kind()));
        }
    }

    #[test]
    fn rejects_unknown_event() {
        let err = validate_line(r#"{"event":"nope"}"#).unwrap_err();
        assert_eq!(err, SchemaError::UnknownEvent("nope".into()));
    }

    #[test]
    fn rejects_missing_and_mistyped_fields() {
        let err = validate_line(r#"{"event":"restart_start","restart":0}"#).unwrap_err();
        assert_eq!(
            err,
            SchemaError::MissingField {
                event: "restart_start".into(),
                field: "seed".into()
            }
        );
        let err = validate_line(r#"{"event":"restart_start","restart":0,"seed":-1}"#).unwrap_err();
        assert!(matches!(err, SchemaError::WrongType { .. }));
        // Optional field with the wrong type is still an error.
        let err = validate_line(
            r#"{"event":"improvement","step":1,"violations":0,"similarity":1,"elapsed_secs":0,"restart":"x"}"#,
        )
        .unwrap_err();
        assert!(matches!(err, SchemaError::WrongType { .. }));
    }

    #[test]
    fn rejects_non_json_and_non_objects() {
        assert!(matches!(
            validate_line("not json"),
            Err(SchemaError::Json(_))
        ));
        assert_eq!(validate_line("[1,2]"), Err(SchemaError::NotAnObject));
        assert_eq!(validate_line("{}"), Err(SchemaError::MissingEventField));
    }

    #[test]
    fn parse_jsonl_skips_blank_lines_and_reports_line_numbers() {
        let good = "{\"event\":\"phases\",\"phases\":[]}\n\n{\"event\":\"phases\",\"phases\":[]}\n";
        assert_eq!(parse_jsonl(good).unwrap().len(), 2);
        let bad = "{\"event\":\"phases\",\"phases\":[]}\nbroken\n";
        assert_eq!(parse_jsonl(bad).unwrap_err().0, 2);
    }

    #[test]
    fn unknown_extra_fields_are_allowed() {
        assert!(validate_line(r#"{"event":"phases","phases":[],"extra":1}"#).is_ok());
    }
}
