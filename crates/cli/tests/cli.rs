//! End-to-end tests of the `mwsj` binary: generate → inspect → solve →
//! join over real files and processes.

use std::path::PathBuf;
use std::process::Command;

fn mwsj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mwsj"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mwsj_cli_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(dir: &std::path::Path, name: &str, n: u32, density: f64, seed: u64) -> PathBuf {
    let path = dir.join(name);
    let out = mwsj()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--n",
            &n.to_string(),
            "--density",
            &density.to_string(),
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

#[test]
fn help_runs() {
    let out = mwsj().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = mwsj().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_then_info() {
    let dir = temp_dir("info");
    let path = generate(&dir, "a.csv", 500, 0.1, 1);
    let out = mwsj()
        .args(["info", "--data", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("500 objects"), "{text}");
}

#[test]
fn solve_chain_with_ils() {
    let dir = temp_dir("solve");
    let a = generate(&dir, "a.csv", 400, 0.3, 1);
    let b = generate(&dir, "b.csv", 400, 0.3, 2);
    let c = generate(&dir, "c.csv", 400, 0.3, 3);
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
            "chain",
            "--algo",
            "ils",
            "--iterations",
            "500",
            "--top",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best solution"), "{text}");
    assert!(text.contains("top"), "{text}");
}

#[test]
fn solve_rejects_bad_query() {
    let dir = temp_dir("badquery");
    let a = generate(&dir, "a.csv", 50, 0.1, 1);
    let out = mwsj()
        .args(["solve", "--data", a.to_str().unwrap(), "--query", "0-0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn exact_join_counts_solutions() {
    let dir = temp_dir("join");
    let a = generate(&dir, "a.csv", 100, 0.8, 4);
    let b = generate(&dir, "b.csv", 100, 0.8, 5);
    let out = mwsj()
        .args([
            "join",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--query",
            "0-1",
            "--limit",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exact solutions"), "{text}");
}

#[test]
fn hard_density_prints_formula_result() {
    let out = mwsj()
        .args([
            "hard-density",
            "--shape",
            "chain",
            "--vars",
            "5",
            "--n",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // d = 1/(4·⁴√100000) ≈ 0.014
    assert!(text.contains("0.014"), "{text}");
}

/// Three sparse clique datasets: no exact solution exists, so heuristics
/// run their full step budget — progress heartbeats and stalls happen.
fn hard_trio(dir: &std::path::Path) -> [PathBuf; 3] {
    [
        generate(dir, "ha.csv", 400, 0.002, 11),
        generate(dir, "hb.csv", 400, 0.002, 12),
        generate(dir, "hc.csv", 400, 0.002, 13),
    ]
}

#[test]
fn metrics_out_streams_progress_events() {
    let dir = temp_dir("progress");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("run.jsonl");
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
            "--iterations",
            "2000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--progress-every",
            "100",
            "--stall-steps",
            "400",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let progress = text
        .lines()
        .filter(|l| l.contains("\"event\":\"progress\""))
        .count();
    assert_eq!(progress, 2000 / 100, "one heartbeat per cadence slot");
    // The stream must satisfy the documented schema end to end.
    let report = mwsj()
        .args(["report", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let summary = String::from_utf8_lossy(&report.stdout);
    assert!(summary.contains("schema OK"), "{summary}");
    assert!(summary.contains("progress heartbeats"), "{summary}");
}

/// Under `--seconds` every restart gets its own share of the clock: the
/// restarts used to share one deadline, which the later ones met before
/// their first step.
#[test]
fn every_restart_of_a_timed_portfolio_runs() {
    let dir = temp_dir("timedrestarts");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("timed.jsonl");
    let out = mwsj()
        .args(["solve", "--data", a.to_str().unwrap()])
        .args(["--data", b.to_str().unwrap()])
        .args(["--data", c.to_str().unwrap()])
        .args(["--query", "clique", "--algo", "gils"])
        .args(["--restarts", "4", "--seconds", "0.4"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    let steps: Vec<(u64, u64)> = text
        .lines()
        .filter_map(
            |line| match mwsj_core::RunEvent::parse_line(line).unwrap() {
                mwsj_core::RunEvent::RestartEnd { restart, steps, .. } => Some((restart, steps)),
                _ => None,
            },
        )
        .collect();
    assert_eq!(steps.len(), 4, "{text}");
    for (restart, steps) in steps {
        assert!(steps > 0, "restart {restart} ran no step");
    }
}

#[test]
fn stall_abort_stops_a_hopeless_run_early() {
    let dir = temp_dir("stallabort");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("abort.jsonl");
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
            "--iterations",
            "500000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--stall-steps",
            "500",
            "--stall-abort",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        text.contains("\"event\":\"stall_detected\""),
        "detection precedes the abort"
    );
    assert!(
        text.contains("\"event\":\"stall_aborted\""),
        "the distinct stop reason is recorded"
    );
    assert!(
        !text.contains("\"event\":\"budget_exhausted\""),
        "the 500k budget was never reached"
    );
}

#[test]
fn watch_tails_a_finished_run_and_exits_cleanly() {
    let dir = temp_dir("watch");
    let [a, b, c] = hard_trio(&dir);
    let metrics = dir.join("watched.jsonl");
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
            "--iterations",
            "1000",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--progress-every",
            "100",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let watch = mwsj()
        .args([
            "watch",
            metrics.to_str().unwrap(),
            "--no-tty",
            "--timeout-secs",
            "30",
        ])
        .output()
        .unwrap();
    assert!(
        watch.status.success(),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let text = String::from_utf8_lossy(&watch.stdout);
    assert!(text.contains("run_start"), "{text}");
    assert!(text.contains("progress step="), "{text}");
    assert!(text.contains("run_end"), "{text}");
}

#[test]
fn watch_times_out_without_a_run_end() {
    let dir = temp_dir("watchtimeout");
    let orphan = dir.join("orphan.jsonl");
    std::fs::write(&orphan, "").unwrap();
    let watch = mwsj()
        .args([
            "watch",
            orphan.to_str().unwrap(),
            "--no-tty",
            "--poll-ms",
            "10",
            "--timeout-secs",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!watch.status.success());
    assert!(
        String::from_utf8_lossy(&watch.stderr).contains("no run_end"),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
}

#[test]
fn telemetry_flags_are_validated() {
    let dir = temp_dir("telemval");
    let a = generate(&dir, "a.csv", 50, 0.1, 1);
    let run = |extra: &[&str]| {
        let out = mwsj()
            .args(["solve", "--data", a.to_str().unwrap(), "--data"])
            .arg(a.to_str().unwrap())
            .args(["--query", "0-1", "--iterations", "10"])
            .args(extra)
            .output()
            .unwrap();
        assert!(!out.status.success(), "expected {extra:?} to be rejected");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    assert!(run(&["--progress-every", "10"]).contains("needs --metrics-out"));
    assert!(run(&["--stall-abort"]).contains("needs a stall window"));
}

/// Every output file is created before the search: a path that cannot be
/// written used to cost the whole run first — `--trace-out` failed after
/// the search, `--profile-out` even after printing the result.
#[test]
fn a_bad_output_path_fails_before_the_search() {
    let dir = temp_dir("badoutput");
    let [a, b, c] = hard_trio(&dir);
    let unwritable = dir.join("no-such-dir");
    for option in ["--trace-out", "--profile-out"] {
        let metrics = dir.join("run.jsonl");
        std::fs::remove_file(&metrics).ok();
        let target = unwritable.join("out");
        let out = mwsj()
            .args(["solve", "--data", a.to_str().unwrap()])
            .args(["--data", b.to_str().unwrap()])
            .args(["--data", c.to_str().unwrap()])
            .args(["--query", "clique", "--iterations", "2000"])
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .args([option, target.to_str().unwrap()])
            .output()
            .unwrap();
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(1), "{option}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {}: ", target.display())),
            "{option}: {stderr}"
        );
        assert!(!stdout.contains("best solution"), "{option}: {stdout}");
        // The search never started: not even its `run_start` was written.
        let events = std::fs::read_to_string(&metrics).unwrap_or_default();
        assert_eq!(events, "", "{option}");
    }
}

/// Hostile flag values meet the one checked conversion of their kind: a
/// one-line error and a non-zero exit, never a panic or a silent default.
/// An option the
/// binary does not read, or a stray positional, is hostile in the same
/// way: `--sead 5` used to run with the default seed and exit 0.
#[test]
fn hostile_flags_are_rejected_or_clamped_without_panicking() {
    let dir = temp_dir("hostileflags");
    let a = generate(&dir, "a.csv", 300, 0.5, 1);
    let a = a.to_str().unwrap();
    let solve = ["solve", "--data", a, "--data", a, "--query", "0-1"];
    let solve_steps = [&solve[..], &["--iterations", "10"]].concat();
    let solve_grid = [&solve_steps[..], &["--backend", "grid"]].concat();
    let watch = ["watch", a, "--no-tty"];
    let join = ["join", "--data", a, "--data", a, "--query", "0-1"];
    let join = [&join[..], &["--backend", "grid"]].concat();
    let explain = ["explain", "--data", a, "--data", a, "--query", "0-1"];
    let hard_density = ["hard-density", "--shape", "chain"];
    // (command, hostile arguments, what must come of them).
    enum Expect<'a> {
        NotSeconds,
        /// Exit 1: this dataset file holds no rectangle.
        NoRectangles(&'a str),
        /// Exit 0, and `mwsj report` accepts the `--metrics-out` file
        /// given last.
        Validates,
        Unknown(&'static str),
        /// A single-valued option given twice.
        Repeated(&'static str),
        /// An option of another command: (option, command).
        Foreign(&'static str, &'static str),
        Stray,
        /// Exit 1 with exactly this on stderr.
        Refused(&'static str),
        /// Exit 0 and stdout begins with this.
        Prints(&'static str),
        /// Exit 0 and the `run_start` event of `--metrics-out` holds this.
        Announces(&'static str),
        /// Exit 0 and stdout holds this.
        Mentions(&'static str),
        /// Exit 0, stdout holds this, and `mwsj report` renders the event
        /// `--metrics-out` wrote exactly as stdout rendered the report.
        ReportsAsPrinted(&'static str),
    }
    use Expect::*;
    let join_wr = ["join", "--data", a, "--data", a, "--query", "0-1"];
    let metrics = dir.join("join.jsonl");
    let metrics = metrics.to_str().unwrap();
    let no_iterations = "error: --iterations must be at least 1";
    let nothing = "0 exact solutions (truncated)";
    // Coordinates near `f64::MAX`: areas, extents and selectivities
    // overflow, which must read the same from stdout as from the event.
    let huge = dir.join("huge.csv");
    std::fs::write(&huge, "1e308,1e308,1.7e308,1.7e308\n-1e308,0,1,1\n").unwrap();
    let huge = huge.to_str().unwrap();
    let explain_huge = ["explain", "--data", huge, "--data", huge, "--query", "0-1"];
    let explained = dir.join("explain.jsonl");
    let explained = explained.to_str().unwrap();
    // Three objects that each overlap only themselves: three pairs on the
    // edge, times the three objects of the variable no edge touches.
    let apart = dir.join("apart.csv");
    std::fs::write(&apart, "0,0,1,1\n2,2,3,3\n4,4,5,5\n").unwrap();
    let apart = apart.to_str().unwrap();
    let isolated = ["--data", apart, "--data", apart, "--data", apart];
    let isolated = [&["join", "--query", "0-1"], &isolated[..]].concat();
    let contains = ["join", "--data", a, "--data", a, "--query", "0-1:contains"];
    // One object a side: every seed is exact, and a search that does not
    // look at its seed spends the whole budget climbing from the optimum.
    let one = dir.join("one.csv");
    std::fs::write(&one, "0,0,1,1\n").unwrap();
    let one = one.to_str().unwrap();
    let solve_one = ["solve", "--data", one, "--data", one, "--query", "chain"];
    // Datasets with no rectangle: a header alone, and no byte at all.
    let header = dir.join("header.csv");
    std::fs::write(&header, "x1,y1,x2,y2\n").unwrap();
    let header = header.to_str().unwrap();
    let zero = dir.join("zero.csv");
    std::fs::write(&zero, "").unwrap();
    let zero = zero.to_str().unwrap();
    let on_header = ["--data", header, "--data", header, "--query", "0-1"];
    let on_zero = ["--data", zero, "--data", zero, "--query", "0-1"];
    let solve_10 = ["solve", "--iterations", "10"];
    let unqueried = ["--data", a, "--data", a];
    let solve_unqueried = [&solve_10[..], &unqueried[..]].concat();
    let join_unqueried = [&["join"][..], &unqueried[..]].concat();
    let explain_unqueried = [&["explain"][..], &unqueried[..]].concat();
    let twice = "error: invalid query graph: duplicate edge (0, 1)";
    let reversed = "error: invalid query graph: duplicate edge (1, 0)";
    let stalled = dir.join("stalled.jsonl");
    let stalled = stalled.to_str().unwrap();
    let stall_at_once = |algo| {
        let flags = ["--stall-steps", "1", "--stall-abort", "--metrics-out"];
        [&["--algo", algo][..], &flags[..], &[stalled][..]].concat()
    };
    let stall_rows = ["ils", "gils", "sea", "sea-hybrid", "ibb", "two-step"].map(stall_at_once);
    let generated = dir.join("g.csv");
    let generate = ["generate", "--out", generated.to_str().unwrap()];
    let hard_cycle = ["hard-density", "--shape", "cycle"];
    let no_objects = "error: --n must be at least 1";
    let rows: [(&[&str], &[&str], Expect); 73] = [
        // Counts and reals the generator and the density solver cannot use
        // hit the library's asserts (exit 101), or printed `density inf`.
        (&generate, &["--n", "0"], Refused(no_objects)),
        (
            &generate,
            &["--density", "-1"],
            Refused("error: --density must be a positive, finite number (got -1)"),
        ),
        (
            &generate,
            &["--density", "nan"],
            Refused("error: --density must be a positive, finite number (got nan)"),
        ),
        (
            &generate,
            &["--density", "inf"],
            Refused("error: --density must be a positive, finite number (got inf)"),
        ),
        // Extents wider than the unit square used to panic in `f64::clamp`.
        (
            &generate,
            &["--n", "1", "--density", "0.5", "--seed", "6"],
            Prints("wrote 1 objects (density 0.5)"),
        ),
        (
            &generate,
            &["--n", "4", "--density", "2", "--seed", "1"],
            Prints("wrote 4 objects (density 2)"),
        ),
        (
            &hard_density,
            &["--vars", "1"],
            Refused("error: invalid query graph: a chain query needs at least 2 datasets, got 1"),
        ),
        (
            &hard_cycle,
            &["--vars", "2"],
            Refused("error: invalid query graph: a cycle query needs at least 3 datasets, got 2"),
        ),
        (&hard_density, &["--n", "0"], Refused(no_objects)),
        (
            &hard_density,
            &["--target", "0"],
            Refused("error: --target must be a positive, finite number (got 0)"),
        ),
        (
            &hard_density,
            &["--target", "-1"],
            Refused("error: --target must be a positive, finite number (got -1)"),
        ),
        (
            &hard_density,
            &["--target", "nan"],
            Refused("error: --target must be a positive, finite number (got nan)"),
        ),
        (
            &hard_cycle,
            &["--vars", "3"],
            Prints("cycle query over 3 datasets"),
        ),
        (&solve_10, &on_header, NoRectangles(header)),
        (&["join"], &on_header, NoRectangles(header)),
        (&["explain"], &on_header, NoRectangles(header)),
        (&solve_10, &on_zero, NoRectangles(zero)),
        (&["join"], &on_zero, NoRectangles(zero)),
        (&["explain"], &on_zero, NoRectangles(zero)),
        // An edge given twice, in either direction.
        (&solve_unqueried, &["--query", "0-1,0-1"], Refused(twice)),
        (&solve_unqueried, &["--query", "0-1,1-0"], Refused(reversed)),
        (&join_unqueried, &["--query", "0-1,0-1"], Refused(twice)),
        (&join_unqueried, &["--query", "0-1,1-0"], Refused(reversed)),
        (&explain_unqueried, &["--query", "0-1,0-1"], Refused(twice)),
        (
            &explain_unqueried,
            &["--query", "0-1,1-0"],
            Refused(reversed),
        ),
        (&solve, &["--seconds", "inf"], NotSeconds),
        (&solve, &["--seconds", "1e20"], NotSeconds),
        (&solve, &["--seconds", "-3"], NotSeconds),
        (&solve, &["--seconds", "nan"], NotSeconds),
        (&solve_steps, &["--stall-secs", "-3"], NotSeconds),
        (&solve_steps, &["--stall-secs", "nan"], NotSeconds),
        (&watch, &["--timeout-secs", "1e20"], NotSeconds),
        // Read by no command since PR 25: the grid no longer fans a query
        // out, every `--metrics-out` line is flushed as it is written, and
        // the flight recorder is gone.
        (
            &solve_grid,
            &["--grid-threads", "1"],
            Unknown("--grid-threads"),
        ),
        (&join, &["--grid-threads", "1"], Unknown("--grid-threads")),
        // Restarts run one after another: there is no thread count to set.
        (&solve_steps, &["--threads", "2"], Unknown("--threads")),
        (&solve_steps, &["--follow"], Unknown("--follow")),
        (
            &solve_steps,
            &["--flight-recorder-out", metrics],
            Unknown("--flight-recorder-out"),
        ),
        (
            &solve_steps,
            &["--flight-recorder-bytes", "8192"],
            Unknown("--flight-recorder-bytes"),
        ),
        // Only `--data` repeats: a second value of any other option used
        // to be dropped, and the run went on with the first.
        (
            &solve_steps,
            &["--seed", "1", "--seed", "2"],
            Repeated("--seed"),
        ),
        (
            &solve,
            &["--iterations", "100", "--iterations", "1"],
            Repeated("--iterations"),
        ),
        (
            &solve_steps,
            &["--algo", "ils", "--algo", "gils"],
            Repeated("--algo"),
        ),
        (
            &join,
            &["--limit", "1", "--limit", "5"],
            Repeated("--limit"),
        ),
        (&solve_steps, &["--sead", "5"], Unknown("--sead")),
        (&solve_steps, &["--sead=5"], Unknown("--sead")),
        (
            &solve_steps,
            &["--stall-steps", "5", "--stall-abrt"],
            Unknown("--stall-abrt"),
        ),
        (&join, &["--limt=3"], Unknown("--limt")),
        (&["bench", "snapshot"], &["--reps", "1"], Unknown("--reps")),
        (
            &["bench", "snapshot"],
            &["--reps", "18446744073709551615"],
            Unknown("--reps"),
        ),
        (
            &["bench", "compare", a, a],
            &["--wall-tolerance", "0.5"],
            Unknown("--wall-tolerance"),
        ),
        (
            &["bench", "compare", a, a],
            &["--wall-slack-ms=0"],
            Unknown("--wall-slack-ms"),
        ),
        // An option another command reads is as unknown here as a typo:
        // these five used to exit 0 and ignore it (`--lambda` was read by
        // no command at all).
        (
            &join,
            &["--top", "3", "--restarts", "4"],
            Foreign("--top", "join"),
        ),
        (&solve_steps, &["--limit", "2"], Foreign("--limit", "solve")),
        (
            &solve_steps,
            &["--algo", "gils", "--lambda", "123"],
            Unknown("--lambda"),
        ),
        (&explain, &["--seed", "1"], Foreign("--seed", "explain")),
        (
            &["info", "--data", a],
            &["--query", "chain"],
            Foreign("--query", "info"),
        ),
        (&solve_steps, &["stray.csv"], Stray),
        (&join, &["stray.csv"], Stray),
        (&explain, &["stray.csv"], Stray),
        (&["generate", "--out", a, "--n"], &["5", "7"], Stray),
        (&["info"], &[a], Stray),
        (&["info", "--data", a], &["b.csv"], Stray),
        (&hard_density, &["5"], Stray),
        // A budget or limit is what was given, not what it happens to equal:
        // `--iterations 0` used to run the 2 s default, `join --seconds 2`
        // the 60 s one, and `--limit 0` returned one solution from WR / ST.
        (&solve, &["--iterations", "0"], Refused(no_iterations)),
        // A restart count past the cap: it used to abort the process
        // allocating one budget per restart.
        (
            &solve_steps,
            &["--restarts", "1000000000000"],
            Refused("error: --restarts must be at most 1000 (got 1000000000000)"),
        ),
        (&join_wr, &["--iterations", "0"], Refused(no_iterations)),
        (
            &join_wr,
            &["--metrics-out", metrics, "--seconds", "2"],
            Announces("\"budget_secs\":2}"),
        ),
        (&join_wr, &["--limit", "0"], Prints(nothing)),
        (&join, &["--limit", "0"], Prints(nothing)),
        // A variable no edge touches multiplies the result by its dataset.
        (
            &isolated,
            &["--limit", "100"],
            Prints("9 exact solutions in"),
        ),
        (
            &solve_one,
            &["--algo", "gils", "--iterations", "1000"],
            Mentions(" elapsed, 0 steps, "),
        ),
        // `join` runs one algorithm and names none.
        (&contains, &["--algo", "wr"], Foreign("--algo", "join")),
        (
            &explain_huge,
            &["--metrics-out", explained],
            ReportsAsPrinted("E[solutions] = non-finite"),
        ),
        (
            &["info"],
            &["--data", huge],
            Mentions("bbox [-1e308, 1.7e308]x[0, 1.7e308]"),
        ),
    ];
    // A stall window of one step, which every search closes at once.
    let stall_rows = stall_rows
        .iter()
        .map(|r| (&solve_steps[..], &r[..], Validates));
    for (command, hostile, expect) in rows.into_iter().chain(stall_rows) {
        let out = mwsj().args(command).args(hostile).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (flag, value) = (hostile[0], hostile[hostile.len() - 1]);
        let error = match expect {
            NotSeconds => {
                format!("error: {flag} must be a positive, finite number of seconds (got {value})")
            }
            NoRectangles(file) => format!("error: {file}: no rectangles in input"),
            Validates => {
                assert_eq!(out.status.code(), Some(0), "{hostile:?}: {stderr}");
                let report = mwsj().args(["report", value]).output().unwrap();
                let report_err = String::from_utf8_lossy(&report.stderr);
                assert!(report.status.success(), "{hostile:?}: {report_err}");
                continue;
            }
            Repeated(option) => format!("error: option {option} given more than once"),
            Unknown(option) => format!("error: unknown option '{option}'"),
            Foreign(option, command) => {
                format!("error: unknown option '{option}' for '{command}'")
            }
            Stray => format!("error: unexpected argument '{value}'"),
            Refused(message) => message.to_string(),
            Prints(head) => {
                assert_eq!(out.status.code(), Some(0), "{hostile:?}: {stderr}");
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(stdout.starts_with(head), "{hostile:?}: {stdout}");
                continue;
            }
            Mentions(text) | ReportsAsPrinted(text) => {
                assert_eq!(out.status.code(), Some(0), "{hostile:?}: {stderr}");
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(stdout.contains(text), "{hostile:?}: {stdout}");
                if let ReportsAsPrinted(_) = expect {
                    let report = mwsj().args(["report", value]).output().unwrap();
                    assert!(report.status.success());
                    // Between `report`'s schema line and `explain`'s
                    // "wrote …" line, the two print the one report.
                    let report = String::from_utf8_lossy(&report.stdout);
                    let printed = &stdout[..stdout.rfind("wrote ").expect("wrote line")];
                    assert!(report.ends_with(printed), "{report}\nvs\n{printed}");
                }
                continue;
            }
            Announces(member) => {
                assert_eq!(out.status.code(), Some(0), "{hostile:?}: {stderr}");
                let events = std::fs::read_to_string(metrics).unwrap();
                let run_start = events.lines().next().unwrap();
                assert!(run_start.contains("\"event\":\"run_start\""), "{run_start}");
                assert!(run_start.contains(member), "{hostile:?}: {run_start}");
                continue;
            }
        };
        assert_eq!(out.status.code(), Some(1), "{hostile:?}: {stderr}");
        assert_eq!(stderr.trim_end(), error);
    }
}

/// A reader that goes away is not an error: `mwsj join … | head -1` used to
/// die of `println!`'s panic (`failed printing to stdout: Broken pipe`,
/// exit 101) whenever the output outgrew the pipe's buffer.
#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    use std::io::{BufRead, BufReader, Read};
    let dir = temp_dir("brokenpipe");
    let a = generate(&dir, "a.csv", 2000, 2.0, 1);
    let b = generate(&dir, "b.csv", 2000, 2.0, 2);
    let mut child = mwsj()
        .args(["join", "--data", a.to_str().unwrap()])
        .args(["--data", b.to_str().unwrap()])
        .args(["--query", "0-1", "--limit", "100000000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Read the summary line, then hang up with the solutions unread: far
    // more of them than a pipe holds, so the writer must meet the closed end.
    let mut stdout = BufReader::with_capacity(64, child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    let solutions: usize = first.split(' ').next().unwrap().parse().expect(&first);
    assert!(
        solutions * 16 > 1 << 17,
        "too few to fill a pipe twice: {first}"
    );
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert_eq!(stderr, "", "nothing to report");
    assert_eq!(status.code(), Some(0));
}

/// `within:<eps>` takes a distance. A negative ε used to run and count
/// 5 972 pairs on the R*-tree (ε² on both sides) but 3 701 on the grid
/// (window inflated by max(ε, 0)); NaN ran and silently found nothing.
#[test]
fn within_epsilon_must_be_a_finite_distance() {
    let dir = temp_dir("withineps");
    let a = generate(&dir, "a.csv", 2000, 0.2, 1);
    let b = generate(&dir, "b.csv", 2000, 0.2, 2);
    let join = |backend: &str, eps: &str| {
        mwsj()
            .args(["join", "--data", a.to_str().unwrap()])
            .args(["--data", b.to_str().unwrap()])
            .args(["--limit", "100000000"])
            .args(["--backend", backend])
            .args(["--query", &format!("0-1:within:{eps}")])
            .output()
            .unwrap()
    };
    for backend in ["rtree", "grid"] {
        for eps in ["-0.01", "nan", "inf", "-inf"] {
            let out = join(backend, eps);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{backend} {eps}: {stderr}");
            let named = format!("error: bad predicate 'within:{eps}'");
            assert!(stderr.starts_with(&named), "{backend} {eps}: {stderr}");
        }
        let out = join(backend, "0.01");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{backend}: {stdout}");
        assert!(
            stdout.starts_with("5972 exact solutions"),
            "{backend}: {stdout}"
        );
    }
}

/// The join's enumeration order is deterministic, the same on both
/// backends, and `--limit` keeps a prefix of it: WR opens with the pairwise
/// join of its first edge (the R*-trees' join order), then takes each
/// window query's candidates in id order, and prints these tuples and
/// counts these accesses. The data is dense: the arc-consistency pass ends
/// after its first join, removing nothing, and the line after the count
/// says so.
#[test]
fn grid_joins_print_the_pinned_first_tuples() {
    let dir = temp_dir("gridpinned");
    let files: Vec<PathBuf> = (0..3)
        .map(|i| generate(&dir, &format!("{i}.csv"), 2000, 0.5, 41 + i))
        .collect();
    let core = "core: 2000/2000 2000/2000 2000/2000 (809 node accesses)\n";
    let tuples = "  (r1,1158, r2,625, r3,1590)\n  (r1,1579, r2,1323, r3,614)\n  \
                  (r1,1579, r2,1323, r3,1530)\n  (r1,1579, r2,1323, r3,1780)\n  \
                  (r1,1579, r2,1323, r3,1861)\n  (r1,180, r2,1323, r3,614)\n";
    for (backend, accesses) in [("rtree", 12), ("grid", 9)] {
        let mut cmd = mwsj();
        cmd.arg("join");
        for f in &files {
            cmd.args(["--data", f.to_str().unwrap()]);
        }
        cmd.args(["--query", "chain", "--backend", backend, "--limit", "6"]);
        let out = cmd.output().unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        let tail = format!("({accesses} node accesses)\n{core}{tuples}");
        assert!(text.ends_with(&tail), "{backend}: {text}");
    }
}

/// On sparse data the pass cuts every dataset down to the objects that
/// still have partners: `join` prints what it left and what it read, the
/// same on either backend, and `--metrics-out` holds those reads as
/// `core.node_accesses`, apart from the run's own `search.node_accesses`.
#[test]
fn join_prints_the_core_and_the_reads_of_its_pass() {
    let dir = temp_dir("corepinned");
    let files: Vec<PathBuf> = (0..3)
        .map(|i| generate(&dir, &format!("{i}.csv"), 2000, 0.05, 41 + i))
        .collect();
    let core = "\ncore: 80/2000 78/2000 78/2000 (2017 node accesses)\n";
    let metrics = dir.join("join.jsonl");
    for backend in ["rtree", "grid"] {
        let mut cmd = mwsj();
        cmd.arg("join");
        for f in &files {
            cmd.args(["--data", f.to_str().unwrap()]);
        }
        cmd.args(["--query", "chain", "--backend", backend]);
        cmd.args(["--metrics-out", metrics.to_str().unwrap()]);
        let out = cmd.output().unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && text.contains(core),
            "{backend}: {text}"
        );
        let counters = std::fs::read_to_string(&metrics).unwrap();
        let counters = counters
            .lines()
            .find(|l| l.contains("\"metrics\""))
            .unwrap();
        assert!(
            counters.contains("\"core.node_accesses\":2017,"),
            "{counters}"
        );
    }
}

/// Datasets that degenerate an index — a grid most of all: every cell
/// holding every object, one cell, a bounding box without height, without
/// area, wider than `f64`, narrower than a normal number — run every
/// index-driven command to exit 0 on both backends, with the same answer
/// (solution count, best similarity, expected solutions) and with no `NaN`
/// or `inf` in anything printed.
#[test]
fn hostile_datasets_run_alike_on_both_backends() {
    let dir = temp_dir("hostiledata");
    let datasets: [(&str, Vec<[f64; 4]>); 6] = [
        ("200 identical rectangles", vec![[0.3, 0.3, 0.4, 0.5]; 200]),
        ("one object", vec![[0.2, 0.2, 0.6, 0.7]]),
        (
            "300 points on a line",
            (0..300)
                .map(|i| [i as f64 / 300.0, 0.5, i as f64 / 300.0, 0.5])
                .collect(),
        ),
        ("100 copies of one point", vec![[0.5; 4]; 100]),
        (
            "a bounding box wider than f64",
            (-24..24)
                .map(|i| i as f64 * 4e306)
                .map(|lo| [lo, lo, lo + 1e307, lo + 1e307])
                .collect(),
        ),
        (
            "subnormal extents",
            (0..48)
                .map(|i| [i as f64 * 5e-324, (i + 1) as f64 * 5e-324])
                .map(|[lo, hi]| [lo, lo, hi, hi])
                .collect(),
        ),
    ];
    // (arguments, the part of stdout both backends must agree on).
    type Answer = fn(&str) -> &str;
    let first_line: Answer = |text| text.lines().next().expect("a first line");
    let similarity: Answer = |text| {
        let line = text.lines().next().expect("a first line");
        &line[line.find("(similarity").expect("best similarity")..]
    };
    let count: Answer = |text| text.split_once(" in ").expect("join summary line").0;
    let commands: [(&[&str], Answer); 4] = [
        (
            &["solve", "--algo", "ils", "--iterations", "200"],
            similarity,
        ),
        (
            &["solve", "--algo", "gils", "--iterations", "200"],
            similarity,
        ),
        (&["join", "--limit", "1000000"], count),
        (&["explain"], first_line),
    ];
    for (i, (name, rects)) in datasets.iter().enumerate() {
        let path = dir.join(format!("{i}.csv"));
        let rows = rects
            .iter()
            .map(|[a, b, c, d]| format!("{a},{b},{c},{d}\n"));
        std::fs::write(&path, rows.collect::<String>()).unwrap();
        let path = path.to_str().unwrap();
        for (command, answer) in commands {
            let run = |backend: &str| {
                let out = mwsj()
                    .args(command)
                    .args(["--data", path, "--data", path, "--data", path])
                    .args(["--query", "0-1,1-2:northeast", "--backend", backend])
                    .output()
                    .unwrap();
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(out.status.success(), "{name}: {command:?}: {stderr}");
                let stdout = String::from_utf8_lossy(&out.stdout).to_lowercase();
                let mut words = stdout.split(|c: char| !c.is_ascii_alphanumeric());
                assert!(
                    !words.any(|w| matches!(w, "nan" | "inf" | "infinity")),
                    "{name}: {command:?} on {backend}: {stdout}"
                );
                stdout
            };
            let (tree, grid) = (run("rtree"), run("grid"));
            assert_eq!(answer(&tree), answer(&grid), "{name}: {command:?}");
        }
    }
}

#[test]
fn solve_with_mixed_predicates_via_edge_list() {
    let dir = temp_dir("mixed");
    let a = generate(&dir, "a.csv", 200, 0.9, 6);
    let b = generate(&dir, "b.csv", 200, 0.01, 7);
    let out = mwsj()
        .args([
            "solve",
            "--data",
            a.to_str().unwrap(),
            "--data",
            b.to_str().unwrap(),
            "--query",
            "0-1:contains",
            "--algo",
            "gils",
            "--iterations",
            "300",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
