//! End-to-end tests of the performance-trajectory tooling: `mwsj report`
//! on damaged metrics files, `mwsj bench snapshot`/`compare`, and the
//! `--profile-out` folded-stack export.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn mwsj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mwsj"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwsj_bench_obs_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(dir: &Path, name: &str, n: u32, seed: u64) -> PathBuf {
    let path = dir.join(name);
    let out = mwsj()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--n",
            &n.to_string(),
            "--density",
            "0.3",
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("run mwsj generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// Runs a short seeded solve with `--metrics-out` and returns the metrics
/// file path.
fn solve_with_metrics(dir: &Path, extra: &[&str]) -> (PathBuf, Output) {
    let a = generate(dir, "a.csv", 200, 1);
    let b = generate(dir, "b.csv", 200, 2);
    let metrics = dir.join("run.jsonl");
    let mut cmd = mwsj();
    cmd.args([
        "solve",
        "--data",
        a.to_str().unwrap(),
        "--data",
        b.to_str().unwrap(),
        "--query",
        "chain",
        "--algo",
        "ils",
        "--iterations",
        "300",
        "--seed",
        "9",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    cmd.args(extra);
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (metrics, out)
}

fn report(path: &Path) -> Output {
    mwsj()
        .args(["report", path.to_str().unwrap()])
        .output()
        .unwrap()
}

#[test]
fn report_summarises_a_metrics_file() {
    let dir = temp_dir("report_ok");
    let (metrics, _) = solve_with_metrics(&dir, &[]);
    let out = report(&metrics);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schema OK"), "{text}");
    assert!(text.contains("run: ils"), "{text}");
}

#[test]
fn report_rejects_empty_file() {
    let dir = temp_dir("report_empty");
    let path = dir.join("empty.jsonl");
    std::fs::write(&path, "").unwrap();
    let out = report(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("empty metrics file"), "{err}");

    // Whitespace-only counts as empty too.
    std::fs::write(&path, "\n\n  \n").unwrap();
    let out = report(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("empty metrics file"), "{err}");
}

#[test]
fn report_rejects_truncated_file() {
    let dir = temp_dir("report_trunc");
    let (metrics, _) = solve_with_metrics(&dir, &[]);
    let text = std::fs::read_to_string(&metrics).unwrap();
    // Cut the file a few bytes into a line near the middle, leaving a
    // partial final record (the JSONL events are ASCII, so a byte offset
    // is a char boundary).
    let line_start = text[..text.len() / 2].rfind('\n').unwrap() + 1;
    let truncated = &text[..line_start + 5];
    assert!(!truncated.ends_with('\n'));
    let path = dir.join("truncated.jsonl");
    std::fs::write(&path, truncated).unwrap();
    let out = report(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("appears truncated"), "{err}");
}

#[test]
fn report_rejects_trailing_partial_line() {
    let dir = temp_dir("report_partial");
    let (metrics, _) = solve_with_metrics(&dir, &[]);
    let mut text = std::fs::read_to_string(&metrics).unwrap();
    // A writer killed mid-append leaves a valid file plus a partial line.
    text.push_str("{\"event\":\"improvem");
    let path = dir.join("partial.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = report(&path);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("appears truncated"), "{err}");
}

/// A metrics file cut mid-line — a run killed while writing, or a copy
/// taken while it is still being written — is an error naming the file and
/// the line to `report`, and the end of a stream that never closes to
/// `watch`, which still shows every complete line first. Neither panics.
#[test]
fn a_half_written_metrics_file_is_refused_by_report_and_watch() {
    let dir = temp_dir("half_written");
    let (metrics, _) = solve_with_metrics(&dir, &[]);
    let text = std::fs::read_to_string(&metrics).unwrap();
    // Cut 10 bytes into the `run_end` line: every line before it is whole.
    let cut_line = text
        .lines()
        .position(|l| l.starts_with("{\"event\":\"run_end\""))
        .expect("a run_end line");
    let line_start: usize = text.lines().take(cut_line).map(|l| l.len() + 1).sum();
    let path = dir.join("cut.jsonl");
    std::fs::write(&path, &text[..line_start + 10]).unwrap();

    let out = report(&path);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let named = format!("{}:{}: ", path.display(), cut_line + 1);
    assert!(err.starts_with(&format!("error: {named}")), "{err}");
    assert!(err.trim_end().ends_with("appears truncated)"), "{err}");

    let out = mwsj()
        .args(["watch", path.to_str().unwrap(), "--no-tty"])
        .args(["--poll-ms", "10", "--timeout-secs", "1"])
        .output()
        .unwrap();
    let (stdout, err) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("no run_end"), "{err}");
    // The complete lines were rendered (`run_start` is the one of them
    // `watch` prints a line for); the cut one was not.
    assert!(stdout.starts_with("run_start "), "{stdout}");
    assert!(!stdout.contains("run_end"), "{stdout}");
}

/// `mwsj report` is the one validator CI runs on every artifact: each of
/// the four hostile lines of the smoke jobs is an error naming the line,
/// the event and the field path, and nothing is rendered.
#[test]
fn report_rejects_nested_garbage_with_line_and_field_path() {
    let dir = temp_dir("report_hostile");
    let (metrics, _) = solve_with_metrics(&dir, &[]);
    let good = std::fs::read_to_string(&metrics).unwrap();
    let bad_line = good.lines().count() + 1;
    let hostile = [
        (
            r#"{"event":"phases","phases":[42,{"path":7}]}"#,
            r#"event "phases": phases[0]: expected object"#,
        ),
        (
            r#"{"event":"metrics","counters":{"a":"x"},"gauges":{},"histograms":{"h":3}}"#,
            r#"event "metrics": counters.a: expected non-negative integer"#,
        ),
        (
            r#"{"event":"resource_report","total_bytes":5,"components":{"rtree.var000":"lots"}}"#,
            r#"event "resource_report": components.rtree.var000: expected non-negative integer"#,
        ),
        (
            r#"{"event":"run_end","best_violations":0,"best_similarity":1e999,"steps":1,"node_accesses":1,"local_maxima":0,"improvements":0,"restarts":0,"elapsed_secs":-1,"proven_optimal":false}"#,
            r#"event "run_end": best_similarity: expected finite number"#,
        ),
    ];
    let path = dir.join("hostile.jsonl");
    for (line, expected) in hostile {
        std::fs::write(&path, format!("{good}{line}\n")).unwrap();
        let out = report(&path);
        assert!(!out.status.success(), "{line}");
        assert!(out.stdout.is_empty(), "nothing is rendered from a bad file");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("hostile.jsonl:{bad_line}: {expected}")),
            "{err}"
        );
    }
}

/// A file that says it is a bench snapshot is read as one: what is wrong
/// with it is the snapshot's own error (record and field), not the JSONL
/// reader's complaint about the first line of a pretty-printed object.
#[test]
fn report_names_the_field_a_schema_invalid_snapshot_lacks() {
    let dir = temp_dir("report_bad_snapshot");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(baseline).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, text.replace("\"cardinality\"", "\"cardinalitx\"")).unwrap();
    let out = report(&path);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(
            "bad.json: snapshot schema violation: \
             suite[0 \"chain-n4-hard\"].cardinality: missing required field"
        ),
        "{err}"
    );
}

/// A `null` where a snapshot holds a float that is not a measurement —
/// `best_similarity` — fails `report` and `bench compare`, and the error
/// names the member; `report` used to render it as `similarity NaN`.
#[test]
fn a_null_best_similarity_fails_report_and_compare() {
    let dir = temp_dir("report_null_float");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(baseline).unwrap();
    let key = "\"best_similarity\": ";
    let at = text.find(key).unwrap() + key.len();
    let end = at + text[at..].find(',').unwrap();
    let path = dir.join("null.json");
    std::fs::write(&path, format!("{}null{}", &text[..at], &text[end..])).unwrap();
    let member = "suite[0 \"chain-n4-hard\"].algos[0 \"ILS\"].best_similarity: \
                  expected finite number";

    let out = report(&path);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stdout.is_empty());
    assert!(
        err.contains(&format!("null.json: snapshot schema violation: {member}")),
        "{err}"
    );

    let out = mwsj()
        .args(["bench", "compare", baseline, path.to_str().unwrap()])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains(member), "{err}");
}

/// `watch` given a bench snapshot says what the file is, the way `report`
/// tells it apart, instead of the stream reader's complaint about its first
/// line (`JSON error at byte 1: expected '"'`).
#[test]
fn watch_tells_a_bench_snapshot_from_a_metrics_stream() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let out = mwsj()
        .args(["watch", baseline, "--no-tty", "--timeout-secs", "5"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(
        err.trim_end(),
        format!(
            "error: {baseline} is a bench snapshot, not a metrics stream \
             (read it with 'mwsj report {baseline}')"
        )
    );
    assert!(out.stdout.is_empty());
}

/// A `--profile-out` file's folded values summed per root frame, after
/// checking that every line is `frames value` with an integer value.
fn folded_root_totals(folded: &str) -> BTreeMap<String, u64> {
    let mut roots = BTreeMap::new();
    for line in folded.lines() {
        let (frames, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value on {line:?}"));
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{value:?} is not an integer on {line:?}"));
        let root = frames.split(';').next().unwrap();
        assert!(!root.is_empty(), "empty stack on {line:?}");
        *roots.entry(root.to_string()).or_insert(0) += value;
    }
    roots
}

#[test]
fn profile_out_writes_parseable_folded_stacks() {
    let dir = temp_dir("profile");
    let profile = dir.join("solve.folded");
    let (_, out) = solve_with_metrics(&dir, &["--profile-out", profile.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrote phase profile"), "{text}");

    let folded = std::fs::read_to_string(&profile).unwrap();
    let roots = folded_root_totals(&folded);
    assert!(roots.contains_key("ils"), "roots: {roots:?}\n{folded}");
    // The solve ran 300 steps; its root phase must have measurable time.
    assert!(roots["ils"] > 0, "roots: {roots:?}");
}

#[test]
fn profile_out_works_without_metrics_out_and_with_portfolio() {
    let dir = temp_dir("profile_portfolio");
    let a = generate(&dir, "a.csv", 200, 3);
    let b = generate(&dir, "b.csv", 200, 4);
    let profile = dir.join("portfolio.folded");
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--query",
            "chain",
            "--algo",
            "ils",
            "--iterations",
            "200",
            "--restarts",
            "2",
            "--profile-out",
            profile.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let folded = std::fs::read_to_string(&profile).unwrap();
    let roots = folded_root_totals(&folded);
    // Portfolio profiles are rooted at the per-restart spans, each of
    // which ran 200 steps.
    let restarts: Vec<_> = roots
        .iter()
        .filter(|(root, _)| root.starts_with("restart["))
        .collect();
    assert_eq!(restarts.len(), 2, "roots: {roots:?}");
    assert!(restarts.iter().all(|(_, &ns)| ns > 0), "roots: {roots:?}");
}

#[test]
fn report_renders_resource_report_as_memory_table() {
    let dir = temp_dir("report_memory");
    let (metrics, _) = solve_with_metrics(&dir, &[]);
    let out = report(&metrics);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory:"), "{text}");
    // One rects/rtree row per variable, plus the totals line.
    for component in ["rects.var000", "rtree.var001", "total"] {
        assert!(text.contains(component), "missing {component}:\n{text}");
    }
    assert!(text.contains("bytes"), "{text}");
}

#[test]
fn bench_snapshot_then_compare_passes_and_detects_tampering() {
    let dir = temp_dir("bench_roundtrip");
    let snap = dir.join("BENCH_t1.json");
    let out = mwsj()
        .args([
            "bench",
            "snapshot",
            "--label",
            "t1",
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wrote benchmark snapshot"), "{text}");
    let body = std::fs::read_to_string(&snap).unwrap();
    assert!(body.contains("mwsj-bench-snapshot"), "format discriminator");

    // A snapshot compared against itself passes.
    let out = mwsj()
        .args([
            "bench",
            "compare",
            snap.to_str().unwrap(),
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("result: PASS"), "{text}");

    // Perturb every node_accesses counter: the gate must fail loudly.
    let tampered_body = body.replace("\"node_accesses\": ", "\"node_accesses\": 9");
    assert_ne!(tampered_body, body, "tamper must change the snapshot");
    let tampered = dir.join("BENCH_t2.json");
    std::fs::write(&tampered, tampered_body).unwrap();
    let out = mwsj()
        .args([
            "bench",
            "compare",
            snap.to_str().unwrap(),
            tampered.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "tampered compare must fail");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("node_accesses"), "{text}");

    // A file of the previous version — the header the committed baseline
    // had until version 2 — is refused as that, not half-read.
    let v1 = dir.join("BENCH_v1.json");
    std::fs::write(
        &v1,
        "{\n  \"format\": \"mwsj-bench-snapshot\",\n  \"version\": 1,\n  \
         \"label\": \"baseline\",\n  \"reps\": 9,\n  \"suite\": []\n}\n",
    )
    .unwrap();
    let out = mwsj()
        .args(["bench", "compare"])
        .args([&snap, &v1])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("BENCH_v1.json: snapshot schema violation: unsupported snapshot version 1"),
        "{err}"
    );
}

#[test]
fn bench_compare_rejects_damaged_snapshots() {
    let dir = temp_dir("bench_damaged");
    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").unwrap();
    let out = mwsj()
        .args([
            "bench",
            "compare",
            empty.to_str().unwrap(),
            empty.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("empty snapshot file"), "{err}");

    let cut = dir.join("cut.json");
    std::fs::write(
        &cut,
        "{\n  \"format\": \"mwsj-bench-snapshot\",\n  \"version\": 2,\n  \"label\": \"x",
    )
    .unwrap();
    let out = mwsj()
        .args([
            "bench",
            "compare",
            cut.to_str().unwrap(),
            cut.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("appears truncated"), "{err}");
}

#[test]
fn bench_rejects_unknown_subcommand_and_bad_arity() {
    let out = mwsj().args(["bench", "frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown bench subcommand"));

    let out = mwsj().args(["bench"]).output().unwrap();
    assert!(!out.status.success());

    let out = mwsj()
        .args(["bench", "compare", "only-one.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// A sparse dataset (density 0.002): joins over these have no exact
/// solution in a clique, so heuristic runs exhaust their full step budget.
fn generate_sparse(dir: &Path, name: &str, seed: u64) -> PathBuf {
    let path = dir.join(name);
    let out = mwsj()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--n",
            "400",
            "--density",
            "0.002",
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

/// Runs `mwsj explain` over the three-dataset chain and returns stdout.
fn explain(dir: &Path, extra: &[&str]) -> String {
    let a = generate(dir, "ea.csv", 200, 11);
    let b = generate(dir, "eb.csv", 200, 12);
    let c = generate(dir, "ec.csv", 200, 13);
    let mut cmd = mwsj();
    cmd.args([
        "explain",
        "--data",
        a.to_str().unwrap(),
        "--data",
        b.to_str().unwrap(),
        "--data",
        c.to_str().unwrap(),
        "--query",
        "chain",
    ]);
    cmd.args(extra);
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn explain_is_byte_stable_and_estimate_only() {
    let dir = temp_dir("explain_stable");
    let first = explain(&dir, &[]);
    let second = explain(&dir, &[]);
    assert_eq!(first, second, "explain output must be byte-stable");
    assert!(first.contains("explain: acyclic model"), "{first}");
    assert!(
        first.contains("estimated vs observed selectivity"),
        "{first}"
    );
    // N=200 per dataset is far under the pair budget: both chain edges
    // carry exact observed selectivities and an error factor column.
    assert!(first.contains("intersects"), "{first}");
    assert!(first.contains('x'), "error factor column:\n{first}");
    assert!(first.contains("predicted accesses/query"), "{first}");
    assert!(first.contains("per level (leaf->root): fill"), "{first}");
    // No run happened: the observed-traversal block must be absent.
    assert!(!first.contains("observed node accesses"), "{first}");
}

#[test]
fn explain_metrics_out_is_schema_valid_and_report_renders_it() {
    let dir = temp_dir("explain_metrics");
    let est = dir.join("est.jsonl");
    let stdout = explain(&dir, &["--metrics-out", est.to_str().unwrap()]);
    assert!(stdout.contains("wrote explain report"), "{stdout}");

    let line = std::fs::read_to_string(&est).unwrap();
    assert!(line.contains("\"event\":\"explain_report\""), "{line}");

    let out = report(&est);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 events, schema OK"), "{text}");
    assert!(text.contains("explain: acyclic model"), "{text}");
    assert!(text.contains("estimated vs observed selectivity"), "{text}");
}

#[test]
fn solve_metrics_carry_explain_report_with_actuals() {
    let dir = temp_dir("explain_actuals");
    // Sparse datasets admit no exact solution, so the solver runs its
    // whole step budget: the stream is progress-heavy, with heartbeats
    // interleaving the explain and resource reports, and the report must
    // summarise all of them.
    let a = generate_sparse(&dir, "sa.csv", 21);
    let b = generate_sparse(&dir, "sb.csv", 22);
    let c = generate_sparse(&dir, "sc.csv", 23);
    let metrics = dir.join("hard.jsonl");
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--data",
            c.to_str().unwrap(),
            "--query",
            "clique",
            "--algo",
            "ils",
            "--iterations",
            "600",
            "--seed",
            "9",
            "--progress-every",
            "100",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("\"event\":\"progress\""), "{text}");
    assert!(text.contains("\"event\":\"explain_report\""), "{text}");

    let out = report(&metrics);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("schema OK"), "{summary}");
    assert!(summary.contains("explain: clique model"), "{summary}");
    // The run attached the observed side: the per-variable attribution of
    // the shared node-access counter renders under the estimate table.
    assert!(summary.contains("observed node accesses"), "{summary}");
    assert!(summary.contains("per level, leaf->root:"), "{summary}");
    assert!(summary.contains("progress heartbeats"), "{summary}");
}

/// The kinds of the events in a metrics file, in order, a run of one kind
/// written once.
fn event_kinds(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut kinds: Vec<String> = text
        .lines()
        .map(|line| {
            let event = mwsj_core::RunEvent::parse_line(line).unwrap_or_else(|e| panic!("{e}"));
            event.kind().to_string()
        })
        .collect();
    kinds.dedup();
    kinds
}

/// What frames a run and what happens inside it reach the file in one
/// order for every algorithm and composite, whoever emits which: `solve`
/// ends `explain_report, resource_report, run_end, metrics, phases`, and
/// `join` ends `metrics, phases, run_end`.
#[test]
fn metrics_out_writes_one_order_of_event_kinds_per_command() {
    let dir = temp_dir("event_kinds");
    let data: Vec<PathBuf> = (1..=3)
        .map(|seed| generate(&dir, &format!("{seed}.csv"), 200, seed))
        .collect();
    let metrics = dir.join("kinds.jsonl");
    let kinds_of = |command: &str, files: usize, extra: &[&str]| {
        let mut cmd = mwsj();
        cmd.arg(command);
        for path in &data[..files] {
            cmd.args(["--data", path.to_str().unwrap()]);
        }
        cmd.args(["--query", "chain", "--iterations", "300"]);
        cmd.args(["--metrics-out", metrics.to_str().unwrap()]);
        let out = cmd.args(extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command} {extra:?}: {stderr}");
        event_kinds(&metrics)
    };
    let solve_end = [
        "explain_report",
        "resource_report",
        "run_end",
        "metrics",
        "phases",
    ];
    let restart = ["restart_start", "improvement", "restart_end"];
    let rows: [(&[&str], &[&str]); 7] = [
        (&["--algo", "ils"], &["improvement"]),
        (&["--algo", "gils"], &["improvement"]),
        (&["--algo", "sea"], &["improvement"]),
        (&["--algo", "sea-hybrid"], &["improvement"]),
        (&["--algo", "ibb"], &["improvement"]),
        (&["--algo", "two-step"], &["improvement"]),
        (
            &["--algo", "ils", "--restarts", "2"],
            &[restart, restart].concat(),
        ),
    ];
    for (algo, inside) in rows {
        let extra = [algo, &["--seed", "9"]].concat();
        let expected = [&["run_start"], inside, &solve_end].concat();
        assert_eq!(kinds_of("solve", 3, &extra), expected, "{algo:?}");
    }
    assert_eq!(
        kinds_of("join", 2, &[]),
        ["run_start", "metrics", "phases", "run_end"]
    );
}

/// `solve --algo two-step --iterations I` reads no clock: step one gets a
/// tenth of the steps (it used to get half a second whatever was asked), so
/// two invocations count the same work.
#[test]
fn two_step_under_a_step_budget_counts_the_same_work_twice() {
    let dir = temp_dir("two_step_steps");
    let data: Vec<PathBuf> = (31..=33)
        .map(|seed| generate_sparse(&dir, &format!("{seed}.csv"), seed))
        .collect();
    let metrics = dir.join("two_step.jsonl");
    let run_end = || {
        let mut cmd = mwsj();
        cmd.arg("solve");
        for path in &data {
            cmd.args(["--data", path.to_str().unwrap()]);
        }
        cmd.args(["--query", "clique", "--algo", "two-step", "--seed", "5"]);
        cmd.args(["--iterations", "400"]);
        cmd.args(["--metrics-out", metrics.to_str().unwrap()]);
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let line = text.lines().find(|l| l.contains("\"event\":\"run_end\""));
        match mwsj_core::RunEvent::parse_line(line.expect("a run_end line")).unwrap() {
            mwsj_core::RunEvent::RunEnd {
                steps,
                node_accesses,
                local_maxima,
                improvements,
                restarts,
                best_violations,
                ..
            } => [
                steps,
                node_accesses,
                local_maxima,
                improvements,
                restarts,
                best_violations,
            ],
            other => panic!("{other:?}"),
        }
    };
    let first = run_end();
    // 40 steps of ILS, then no exact solution exists: IBB's whole 400.
    assert_eq!(first[0], 440, "{first:?}");
    assert_eq!(first, run_end());
}

#[test]
fn report_renders_snapshot_explain_summary() {
    let dir = temp_dir("snapshot_explain");
    let snap = dir.join("BENCH_e.json");
    let out = mwsj()
        .args([
            "bench",
            "snapshot",
            "--label",
            "e",
            "--out",
            snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&snap).unwrap();
    assert!(body.contains("\"explain\""), "{body}");

    let out = report(&snap);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("explain:"), "{text}");
    assert!(text.contains("worst edge estimate error"), "{text}");
}
