//! `mwsj watch` — tail a live metrics JSONL file (any `--metrics-out`) and
//! render the run's progress as it happens.
//!
//! The watcher polls the file by byte offset, consuming only *complete*
//! lines (the sink writes and flushes one whole line per event, so a
//! complete line is a complete JSON object), and keeps one status row per portfolio restart. On a TTY
//! the status block is redrawn in place; with `--no-tty` (or when stdout
//! is not a terminal) every update is one plain line, suitable for CI
//! logs. The watcher exits successfully when the run's `run_end` event
//! arrives, and fails after `--timeout-secs` without one.

use crate::args::Args;
use mwsj_core::obs::BenchSnapshot;
use mwsj_core::RunEvent;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{IsTerminal, Read, Seek, SeekFrom, Write};
use std::time::{Duration, Instant};

/// Key for the untagged (non-portfolio) status row.
const NO_RESTART: u64 = u64::MAX;

pub fn cmd_watch(args: &Args) -> Result<(), String> {
    let path = args
        .arg()
        .ok_or("usage: mwsj watch FILE [--poll-ms MS] [--timeout-secs S] [--no-tty]")?;
    if let Some(extra) = args.positionals.get(1) {
        return Err(format!(
            "unexpected argument '{extra}' (mwsj watch takes exactly one file)"
        ));
    }
    let poll_ms: u64 = args
        .parse_or("poll-ms", 50, "a poll interval in milliseconds")
        .map_err(|e| e.to_string())?;
    let timeout = args
        .seconds("timeout-secs")?
        .unwrap_or(Duration::from_secs(600));
    let plain = args.flag("no-tty") || !std::io::stdout().is_terminal();
    watch_file(path, Duration::from_millis(poll_ms.max(1)), timeout, plain)
}

fn watch_file(path: &str, poll: Duration, timeout: Duration, plain: bool) -> Result<(), String> {
    let start = Instant::now();
    let mut offset: u64 = 0;
    let mut pending = String::new();
    let mut view = View::default();
    let mut drawn_lines = 0usize;
    let stdout = std::io::stdout();

    loop {
        match read_appended(path, &mut offset)? {
            // Tolerate the race with the writer: watch may start before
            // solve has created the file.
            None => {}
            Some(chunk) => pending.push_str(&chunk),
        }
        let mut updated = false;
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let logs = view
                .ingest(line, path)
                .map_err(|e| snapshot_error(path).unwrap_or(e))?;
            for log in logs {
                if plain {
                    // A closed downstream pipe (e.g. `mwsj watch | head`)
                    // just means nobody is reading any more: stop quietly.
                    let mut out = stdout.lock();
                    if writeln!(out, "{log}").is_err() {
                        return Ok(());
                    }
                }
            }
            updated = true;
        }
        if !plain && updated {
            let block = view.render(path);
            let mut out = stdout.lock();
            // Redraw in place: climb back over the previous block, then
            // overwrite it line by line (\x1b[K clears each stale tail).
            if drawn_lines > 0 {
                let _ = write!(out, "\x1b[{drawn_lines}A");
            }
            for line in &block {
                let _ = writeln!(out, "\x1b[K{line}");
            }
            let _ = out.flush();
            drawn_lines = block.len();
        }
        if view.done {
            return Ok(());
        }
        if start.elapsed() > timeout {
            return Err(format!(
                "{path}: no run_end after {:.0}s — the run is still going (raise \
                 --timeout-secs) or was interrupted",
                timeout.as_secs_f64()
            ));
        }
        std::thread::sleep(poll);
    }
}

/// The error for a bench snapshot given to `watch`, `None` for any other
/// file: a snapshot is one JSON document, not a stream of event lines, and
/// it is told apart the way `mwsj report` tells it.
fn snapshot_error(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    BenchSnapshot::sniff(&text).then(|| {
        format!(
            "{path} is a bench snapshot, not a metrics stream (read it with 'mwsj report {path}')"
        )
    })
}

/// Reads everything appended to `path` since `offset`, advancing it.
/// Returns `None` while the file does not exist yet.
fn read_appended(path: &str, offset: &mut u64) -> Result<Option<String>, String> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let len = file.metadata().map_err(|e| format!("{path}: {e}"))?.len();
    if len < *offset {
        // Truncated or replaced under us: start over from the top.
        *offset = 0;
    }
    if len == *offset {
        return Ok(Some(String::new()));
    }
    file.seek(SeekFrom::Start(*offset))
        .map_err(|e| format!("{path}: {e}"))?;
    let mut buf = Vec::with_capacity((len - *offset) as usize);
    file.take(len - *offset)
        .read_to_end(&mut buf)
        .map_err(|e| format!("{path}: {e}"))?;
    *offset += buf.len() as u64;
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Latest progress of one restart (or of the whole run when untagged).
#[derive(Debug, Default, Clone)]
struct Row {
    step: u64,
    steps_per_sec: f64,
    similarity: Option<f64>,
    violations: Option<u64>,
    node_accesses: u64,
    stalled: bool,
    finished: bool,
}

/// Accumulated state of the run being watched.
#[derive(Debug, Default)]
pub(crate) struct View {
    /// Lines ingested so far (for error messages).
    lines: usize,
    header: Option<String>,
    rows: BTreeMap<u64, Row>,
    improvements: u64,
    stalls: u64,
    aborts: u64,
    reseeds: u64,
    stop: Option<&'static str>,
    final_line: Option<String>,
    done: bool,
}

impl View {
    /// Folds one JSONL event line into the view; returns the plain-mode
    /// log lines it produced. A line that is not a well-formed event is an
    /// error naming the line and the offending field.
    pub(crate) fn ingest(&mut self, line: &str, path: &str) -> Result<Vec<String>, String> {
        self.lines += 1;
        let event =
            RunEvent::parse_line(line).map_err(|e| format!("{path}:{}: {e}", self.lines))?;
        let mut logs = Vec::new();
        let row_key = |restart: Option<u64>| restart.unwrap_or(NO_RESTART);
        match &event {
            RunEvent::RunStart {
                algo,
                n_vars,
                edges,
                restarts,
                seed,
                ..
            } => {
                let header = format!(
                    "{algo} on {n_vars} vars / {edges} edges, seed {seed}, {restarts} restart(s)"
                );
                logs.push(format!("run_start {header}"));
                self.header = Some(header);
            }
            RunEvent::Progress {
                restart,
                step,
                steps_per_sec,
                best_violations,
                best_similarity,
                node_accesses,
                ..
            } => {
                let row = self.rows.entry(row_key(*restart)).or_default();
                row.step = *step;
                row.steps_per_sec = *steps_per_sec;
                row.similarity = *best_similarity;
                row.violations = *best_violations;
                row.node_accesses = *node_accesses;
                row.stalled = false;
                logs.push(format!(
                    "progress{} step={} steps_per_sec={:.0} best_similarity={} node_accesses={}",
                    restart_tag(*restart),
                    row.step,
                    row.steps_per_sec,
                    row.similarity
                        .map(|s| format!("{s:.3}"))
                        .unwrap_or_else(|| "-".into()),
                    row.node_accesses
                ));
            }
            RunEvent::Improvement { .. } => self.improvements += 1,
            RunEvent::StallDetected {
                restart,
                steps_since_improvement,
                ..
            } => {
                self.stalls += 1;
                self.rows.entry(row_key(*restart)).or_default().stalled = true;
                logs.push(format!(
                    "stall_detected{} steps_since_improvement={steps_since_improvement}",
                    restart_tag(*restart)
                ));
            }
            RunEvent::StallAborted { restart, .. } => {
                self.aborts += 1;
                self.stop = Some(event.kind());
                logs.push(format!("{}{}", event.kind(), restart_tag(*restart)));
            }
            RunEvent::StagnationReseed { .. } => self.reseeds += 1,
            RunEvent::BudgetExhausted { .. } => self.stop = Some(event.kind()),
            RunEvent::RestartEnd { restart, .. } => {
                self.rows.entry(*restart).or_default().finished = true;
            }
            RunEvent::RunEnd {
                best_similarity,
                steps,
                elapsed_secs,
                ..
            } => {
                let final_line = format!(
                    "run_end best_similarity={best_similarity:.3} steps={steps} \
                     elapsed={elapsed_secs:.3}s{}",
                    self.stop.map(|s| format!(" stop={s}")).unwrap_or_default()
                );
                logs.push(final_line.clone());
                self.final_line = Some(final_line);
                self.done = true;
            }
            _ => {}
        }
        Ok(logs)
    }

    /// The TTY status block, redrawn in place on every update.
    fn render(&self, path: &str) -> Vec<String> {
        let mut lines = Vec::new();
        match &self.header {
            Some(h) => lines.push(format!("watching {path} — {h}")),
            None => lines.push(format!("watching {path} — waiting for run_start")),
        }
        for (key, row) in &self.rows {
            let label = if *key == NO_RESTART {
                "run        ".to_string()
            } else {
                format!("restart {key:<3}")
            };
            let state = if row.finished {
                " [done]"
            } else if row.stalled {
                " [stalled]"
            } else {
                ""
            };
            lines.push(format!(
                "  {label} step {:>8} ({:>7.0}/s)  best {} ({} violations)  {} node accesses{state}",
                row.step,
                row.steps_per_sec,
                row.similarity
                    .map(|s| format!("{s:.3}"))
                    .unwrap_or_else(|| "-".into()),
                row.violations
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
                row.node_accesses
            ));
        }
        lines.push(format!(
            "  {} improvements · {} stalls · {} aborts · {} reseeds",
            self.improvements, self.stalls, self.aborts, self.reseeds
        ));
        if let Some(final_line) = &self.final_line {
            lines.push(final_line.clone());
        }
        lines
    }
}

fn restart_tag(restart: Option<u64>) -> String {
    restart.map(|r| format!(" restart={r}")).unwrap_or_default()
}
