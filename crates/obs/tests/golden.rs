//! Golden bytes and round-trips of the declared records.
//!
//! `golden_events.jsonl` was written by the hand-kept `to_json` this crate
//! had before the declarations existed; the derived writer must reproduce
//! it byte for byte and the derived reader must read every line back.
//! Adding an event kind or a field means adding a line here and to the
//! golden file (see CONTRIBUTING.md).

use mwsj_obs::{
    BenchSnapshot, EdgeExplain, ExplainReport, GridQuality, HistogramSnapshot, MetricsSnapshot,
    PhaseSnapshot, ResourceReport, RunEvent, TreeQuality, VarExplain,
};
use proptest::prelude::*;
use std::time::Duration;

const GOLDEN: &str = include_str!("golden_events.jsonl");

fn explain_report(observed: bool) -> ExplainReport {
    ExplainReport {
        model: "acyclic".into(),
        expected_solutions: 1.25,
        edges: vec![EdgeExplain {
            a: 0,
            b: 1,
            predicate: "intersects".into(),
            estimated_selectivity: 0.04,
            observed_selectivity: observed.then_some(0.05),
            observed_pairs: observed.then_some(2_000),
        }],
        vars: (0..2)
            .map(|v| VarExplain {
                var: v,
                cardinality: 200,
                avg_extent: 0.05,
                expected_window_hits: 8.0,
                predicted_accesses_per_query: 3.5,
                observed_accesses: if observed { 40 + v } else { 0 },
                accesses_per_level: if observed { vec![30 + v, 10] } else { vec![] },
                tree: TreeQuality {
                    height: 2,
                    nodes: 14,
                    avg_fill: 0.9,
                    fill_per_level: vec![0.93, 0.81],
                    overlap_factor_per_level: vec![0.4, 0.02],
                    dead_space_per_level: vec![0.3, 0.1],
                    perimeter_per_level: vec![5.2, 2.1],
                },
                grid: (v == 1).then_some(GridQuality {
                    cells: 16,
                    occupied_cells: 12,
                    replication_factor: 1.4,
                    avg_occupancy: 23.3,
                    max_occupancy: 61,
                    predicted_cells_per_query: 5.5,
                    predicted_cost_per_query: 128.15,
                }),
            })
            .collect(),
        observed_node_accesses: observed.then_some(81),
    }
}

/// Every kind, each optional field present and absent, a non-finite f64,
/// a string that needs escaping and a seed above 2⁵³.
fn golden_events() -> Vec<RunEvent> {
    let mut resources = ResourceReport::new();
    resources.record("rtree.var000", 1024);
    resources.record("window_cache", 96);
    vec![
        RunEvent::RunStart {
            algo: "ILS".into(),
            n_vars: 5,
            edges: 4,
            restarts: 4,
            seed: 42,
            budget_steps: Some(1000),
            budget_secs: Some(2.5),
        },
        RunEvent::RunStart {
            algo: "two\"step\\\n\u{1}é".into(),
            n_vars: 2,
            edges: 1,
            restarts: 1,
            seed: u64::MAX,
            budget_steps: None,
            budget_secs: None,
        },
        RunEvent::RestartStart {
            restart: 3,
            seed: 16_045_690_984_503_098_047,
        },
        RunEvent::Improvement {
            restart: Some(0),
            step: 12,
            violations: 2,
            similarity: 0.5,
            elapsed_secs: 0.001,
        },
        RunEvent::Improvement {
            restart: None,
            step: 13,
            violations: 1,
            similarity: f64::NAN,
            elapsed_secs: 1e-7,
        },
        RunEvent::RestartEnd {
            restart: 0,
            best_violations: 2,
            steps: 250,
            elapsed_secs: 0.1,
        },
        RunEvent::BudgetExhausted {
            restart: None,
            steps: 1000,
            elapsed_secs: 0.2,
        },
        RunEvent::BudgetExhausted {
            restart: Some(2),
            steps: 1000,
            elapsed_secs: 0.2,
        },
        RunEvent::TracePoint {
            step: 10,
            similarity: 0.75,
            elapsed_secs: 0.01,
        },
        RunEvent::Progress {
            restart: Some(1),
            step: 200,
            steps_per_sec: 15000.0,
            elapsed_secs: 0.013,
            best_violations: Some(1),
            best_similarity: Some(0.75),
            node_accesses: 512,
            cache_hits: 40,
            cache_misses: 12,
            resident_bytes: 65536,
        },
        RunEvent::Progress {
            restart: None,
            step: 50,
            steps_per_sec: f64::INFINITY,
            elapsed_secs: 0.0,
            best_violations: None,
            best_similarity: None,
            node_accesses: 0,
            cache_hits: 0,
            cache_misses: 0,
            resident_bytes: 1024,
        },
        RunEvent::StallDetected {
            restart: Some(0),
            step: 900,
            steps_since_improvement: 500,
            secs_since_improvement: 0.2,
            elapsed_secs: 0.3,
        },
        RunEvent::StallDetected {
            restart: None,
            step: 901,
            steps_since_improvement: 501,
            secs_since_improvement: 0.25,
            elapsed_secs: 0.35,
        },
        RunEvent::StallAborted {
            restart: None,
            steps: 950,
            elapsed_secs: 0.31,
        },
        RunEvent::StallAborted {
            restart: Some(1),
            steps: 951,
            elapsed_secs: 0.32,
        },
        RunEvent::StagnationReseed {
            restart: None,
            step: 430,
            rounds: 1000,
            elapsed_secs: 0.1,
        },
        RunEvent::StagnationReseed {
            restart: Some(2),
            step: 431,
            rounds: 64,
            elapsed_secs: 0.11,
        },
        RunEvent::Metrics {
            snapshot: MetricsSnapshot {
                counters: vec![
                    ("cache.hits".into(), 3),
                    ("cache.skipped".into(), 9),
                    ("search.steps".into(), 1 << 60),
                ],
                gauges: vec![("g".into(), 0.5), ("g.bad".into(), f64::NEG_INFINITY)],
                histograms: vec![
                    ("empty".into(), HistogramSnapshot::default()),
                    (
                        "search.steps_per_run".into(),
                        HistogramSnapshot {
                            count: 3,
                            sum: 21,
                            min: 2,
                            max: 12,
                            buckets: vec![(2, 1), (3, 1), (4, 1)],
                        },
                    ),
                ],
            },
        },
        RunEvent::Metrics {
            snapshot: MetricsSnapshot::default(),
        },
        RunEvent::Phases {
            phases: vec![
                PhaseSnapshot {
                    path: "restart[0]".into(),
                    calls: 1,
                    steps: 0,
                    wall: Duration::from_nanos(2_000_001),
                },
                PhaseSnapshot {
                    path: "restart[0] > ils".into(),
                    calls: 1,
                    steps: 5,
                    wall: Duration::new(3, 141_592_653),
                },
            ],
        },
        RunEvent::Phases { phases: vec![] },
        RunEvent::ExplainReport {
            report: explain_report(true),
        },
        RunEvent::ExplainReport {
            report: explain_report(false),
        },
        RunEvent::ResourceReport { report: resources },
        RunEvent::ResourceReport {
            report: ResourceReport::new(),
        },
        RunEvent::RunEnd {
            best_violations: 0,
            best_similarity: 1.0,
            steps: 1000,
            node_accesses: 345,
            local_maxima: 3,
            improvements: 4,
            restarts: 4,
            elapsed_secs: 0.2,
            proven_optimal: true,
        },
        RunEvent::RunEnd {
            best_violations: 7,
            best_similarity: 0.0,
            steps: 0,
            node_accesses: 0,
            local_maxima: 0,
            improvements: 0,
            restarts: 0,
            elapsed_secs: 0.0,
            proven_optimal: false,
        },
    ]
}

#[test]
fn writer_reproduces_the_golden_bytes() {
    let written: String = golden_events().iter().map(|e| e.to_json() + "\n").collect();
    assert_eq!(written, GOLDEN);
    let kinds: std::collections::BTreeSet<_> = golden_events().iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.len(), 15, "every event kind has a golden line");
}

/// Non-finite floats are written as `null`. A measured member (`†`) reads
/// it back as NaN, which no value equals; any other float refuses it, and
/// the error names the member: the golden improvement's similarity and
/// the golden gauge `g.bad`. Every other line reads back exactly.
#[test]
fn every_golden_line_reads_back_and_rewrites_identically() {
    let refused = [(5, "similarity"), (18, "gauges.g.bad")];
    for (number, (line, event)) in (1..).zip(GOLDEN.lines().zip(golden_events())) {
        if let Some((_, member)) = refused.iter().find(|(at, _)| *at == number) {
            let err = RunEvent::parse_line(line).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{member}: expected finite number")),
                "{err}"
            );
            continue;
        }
        let parsed = RunEvent::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(parsed.to_json(), line);
        if !line.contains("null") {
            assert_eq!(parsed, event, "{line}");
        }
    }
    match RunEvent::parse_line(GOLDEN.lines().nth(10).unwrap()) {
        Ok(RunEvent::Progress { steps_per_sec, .. }) => assert!(steps_per_sec.is_nan()),
        other => panic!("line 11 is the progress line whose steps_per_sec is null: {other:?}"),
    }
}

#[test]
fn sixty_four_bit_seeds_survive_a_read() {
    let line = r#"{"event":"restart_start","restart":0,"seed":16045690984503098047}"#;
    assert_eq!(
        RunEvent::parse_line(line),
        Ok(RunEvent::RestartStart {
            restart: 0,
            seed: 16_045_690_984_503_098_047
        })
    );
    let too_big = r#"{"event":"restart_end","restart":0,"best_violations":0,"steps":18446744073709551616,"elapsed_secs":0}"#;
    let err = RunEvent::parse_line(too_big).unwrap_err().to_string();
    assert!(err.contains("steps"), "{err}");
}

#[test]
fn committed_snapshots_reserialise_byte_identically() {
    for name in ["BENCH_baseline.json", "BENCH_large.json"] {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let snapshot = BenchSnapshot::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(snapshot.to_string_pretty() == text, "{name} drifted");
    }
}

/// `DESIGN.md` carries no hand-kept schema table: the block between the
/// two markers is `schema::markdown_table()` verbatim. When this fails,
/// paste the table printed below over the block.
#[test]
fn design_md_schema_block_is_the_rendered_declarations() {
    let path = format!("{}/../../DESIGN.md", env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let (begin, end) = ("<!-- schema:begin -->\n", "<!-- schema:end -->");
    let start = design.find(begin).expect("schema:begin marker") + begin.len();
    let stop = design.find(end).expect("schema:end marker");
    let table = mwsj_obs::schema::markdown_table();
    assert!(
        design[start..stop] == table,
        "DESIGN.md schema block is stale; it should read:\n{table}"
    );
}

fn arb_secs() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        0.0f64..10.0,
        (0u64..1 << 40).prop_map(|n| n as f64 * 1e-9)
    ]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1000, any::<u64>()]
}

fn arb_restart() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..64).prop_map(Some)]
}

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("ILS".to_string()),
        Just("cache.var000.hits".to_string()),
        Just("q\"uo\\te\n\ttab é \u{1F600}\u{2}".to_string()),
        Just(String::new()),
    ]
}

fn arb_event() -> impl Strategy<Value = RunEvent> {
    let stop = || (arb_restart(), arb_u64(), arb_secs());
    prop_oneof![
        (
            arb_name(),
            arb_u64(),
            arb_u64(),
            arb_restart(),
            prop_oneof![Just(None), arb_secs().prop_map(Some)]
        )
            .prop_map(|(algo, n, seed, budget_steps, budget_secs)| {
                RunEvent::RunStart {
                    algo,
                    n_vars: n,
                    edges: n / 2,
                    restarts: 1,
                    seed,
                    budget_steps,
                    budget_secs,
                }
            }),
        (arb_u64(), arb_u64()).prop_map(|(restart, seed)| RunEvent::RestartStart { restart, seed }),
        (
            arb_restart(),
            arb_u64(),
            arb_u64(),
            0.0f64..=1.0,
            arb_secs()
        )
            .prop_map(|(restart, step, violations, similarity, elapsed_secs)| {
                RunEvent::Improvement {
                    restart,
                    step,
                    violations,
                    similarity,
                    elapsed_secs,
                }
            }),
        stop().prop_map(|(restart, steps, elapsed_secs)| RunEvent::BudgetExhausted {
            restart,
            steps,
            elapsed_secs,
        }),
        stop().prop_map(|(restart, steps, elapsed_secs)| RunEvent::StallAborted {
            restart,
            steps,
            elapsed_secs,
        }),
        (
            arb_restart(),
            arb_u64(),
            arb_secs(),
            prop_oneof![Just(None), (0.0f64..=1.0).prop_map(Some)],
            arb_restart()
        )
            .prop_map(|(restart, step, secs, best_similarity, best_violations)| {
                RunEvent::Progress {
                    restart,
                    step,
                    steps_per_sec: secs * 1e6,
                    elapsed_secs: secs,
                    best_violations,
                    best_similarity,
                    node_accesses: step / 3,
                    cache_hits: step / 5,
                    cache_misses: step / 7,
                    resident_bytes: step,
                }
            }),
        (
            prop::collection::vec((arb_name(), arb_u64()), 0..4),
            prop::collection::vec((arb_name(), -1e6f64..1e6), 0..3),
            prop::collection::vec((0u32..64, arb_u64()), 0..4)
        )
            .prop_map(|(mut counters, mut gauges, buckets)| {
                // Maps are keyed: the reader keeps them ascending by name.
                counters.sort();
                counters.dedup_by(|a, b| a.0 == b.0);
                gauges.sort_by(|a, b| a.0.cmp(&b.0));
                gauges.dedup_by(|a, b| a.0 == b.0);
                RunEvent::Metrics {
                    snapshot: MetricsSnapshot {
                        counters,
                        gauges,
                        histograms: vec![(
                            "h".into(),
                            HistogramSnapshot {
                                count: buckets.len() as u64,
                                sum: 7,
                                min: 0,
                                max: 9,
                                buckets,
                            },
                        )],
                    },
                }
            }),
        prop::collection::vec((arb_name(), arb_u64(), 0u64..1 << 50), 0..4).prop_map(|phases| {
            RunEvent::Phases {
                phases: phases
                    .into_iter()
                    .map(|(path, calls, nanos)| PhaseSnapshot {
                        path,
                        calls,
                        steps: calls / 2,
                        wall: Duration::from_nanos(nanos),
                    })
                    .collect(),
            }
        }),
        (any::<bool>(), 0.0f64..1e9).prop_map(|(observed, expected)| {
            let mut report = explain_report(observed);
            report.expected_solutions = expected;
            RunEvent::ExplainReport { report }
        }),
        prop::collection::vec((arb_name(), arb_u64()), 0..4).prop_map(|components| {
            let mut report = ResourceReport::new();
            for (name, bytes) in components {
                report.record(&name, bytes / 8);
            }
            RunEvent::ResourceReport { report }
        }),
        (arb_u64(), 0.0f64..=1.0, arb_secs(), any::<bool>()).prop_map(
            |(steps, best_similarity, elapsed_secs, proven_optimal)| RunEvent::RunEnd {
                best_violations: steps % 9,
                best_similarity,
                steps,
                node_accesses: steps / 2,
                local_maxima: 1,
                improvements: 2,
                restarts: 3,
                elapsed_secs,
                proven_optimal,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the writer emits, the reader returns — field for field,
    /// bit for bit (floats use the shortest round-tripping decimal form).
    #[test]
    fn random_events_round_trip(event in arb_event()) {
        let line = event.to_json();
        let parsed = RunEvent::parse_line(&line);
        prop_assert_eq!(parsed.as_ref(), Ok(&event), "{}", line);
        prop_assert_eq!(parsed.unwrap().to_json(), line);
    }
}
