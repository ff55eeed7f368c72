//! Resource observability: deterministic memory accounting and a bounded
//! flight recorder.
//!
//! In-memory join processing lives or dies by working-set size: the paper's
//! "Very Large Databases" claim only holds while every R*-tree, grid and
//! search-side cache stays resident. This module gives the
//! workspace one vocabulary for that cost:
//!
//! * [`MemoryFootprint`] — byte-exact, **deterministic** accounting of the
//!   live bytes a structure keeps resident. Implementations must be
//!   length-based (element count × element size), never capacity-based, so
//!   the same logical state always reports the same byte count no matter
//!   how the allocator grew the backing storage. Freezing the same
//!   instance twice yields identical numbers (property-tested).
//! * [`ResourceReport`] — a named component → bytes table built per run,
//!   emitted as a `resource_report` run event and rendered by
//!   `mwsj report` as a memory table.
//! * [`FlightRecorder`] — a fixed-byte-budget ring buffer of recent
//!   [`RunEvent`]s any run can attach as its sink (or alongside one via
//!   [`FanoutSink`](crate::events::FanoutSink)), drained to JSONL on stop
//!   or anomaly — the introspection substrate a concurrent serve tier
//!   needs when a query goes sideways.

use crate::events::{EventSink, RunEvent};
use crate::record::record;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// Deterministic, byte-exact accounting of the live bytes a structure
/// keeps resident.
///
/// # Contract
///
/// * **Deterministic**: the reported count is a pure function of the
///   structure's logical contents. Building the same structure twice from
///   the same inputs must report identical bytes.
/// * **Length-based**: collections count `len() × size_of::<Element>()`,
///   never `capacity()` — allocator slack and growth policy must not leak
///   into the number.
/// * **Live bytes**: the figure approximates resident heap + inline size
///   of the structure itself; it is an accounting unit for regression
///   gating and capacity planning, not an exact allocator measurement.
pub trait MemoryFootprint {
    /// Resident bytes per the contract above.
    fn memory_bytes(&self) -> u64;
}

record! {
    /// A per-run memory table: named components with their
    /// [`MemoryFootprint`] byte counts, sorted by component name.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ResourceReport {
        /// Sum over `components`, kept current by [`ResourceReport::record`].
        total_bytes: u64,
        /// `(component, bytes)` pairs, ascending by component name.
        components: Vec<(String, u64)>,
    }
}

impl ResourceReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        ResourceReport::default()
    }

    /// Records `bytes` for `component`, replacing any previous entry of
    /// the same name.
    pub fn record(&mut self, component: &str, bytes: u64) {
        match self
            .components
            .binary_search_by(|(name, _)| name.as_str().cmp(component))
        {
            Ok(i) => self.components[i].1 = bytes,
            Err(i) => self.components.insert(i, (component.to_string(), bytes)),
        }
        self.total_bytes = self.components.iter().map(|(_, b)| *b).sum();
    }

    /// The `(component, bytes)` pairs, ascending by component name.
    pub fn components(&self) -> &[(String, u64)] {
        &self.components
    }

    /// Looks up one component's byte count.
    pub fn component(&self, name: &str) -> Option<u64> {
        self.components
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.components[i].1)
    }

    /// Sum over all components.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// `true` when no component has been recorded.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// Default flight-recorder budget: 64 KiB of serialised events.
pub const DEFAULT_FLIGHT_RECORDER_BYTES: usize = 64 * 1024;

/// Ring state: serialised JSONL lines plus their summed byte cost.
#[derive(Debug, Default)]
struct Ring {
    lines: VecDeque<String>,
    bytes: usize,
}

/// A bounded flight recorder: an [`EventSink`] that keeps the **most
/// recent** run events as serialised JSONL lines inside a fixed byte
/// budget.
///
/// When appending a new event would exceed the budget, the *oldest* lines
/// are evicted first until it fits; an event whose serialised form alone
/// exceeds the budget is dropped. Memory is therefore bounded by
/// `capacity_bytes` regardless of run length, which is what lets a
/// long-lived serve path keep one attached per query without growth.
///
/// The recorder is drained ([`FlightRecorder::drain`] /
/// [`FlightRecorder::write_jsonl`]) on stop or anomaly; draining resets it
/// to empty so one recorder can be reused across runs.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity_bytes: usize,
    ring: Mutex<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity_bytes(DEFAULT_FLIGHT_RECORDER_BYTES)
    }
}

impl FlightRecorder {
    /// Creates a recorder with [`DEFAULT_FLIGHT_RECORDER_BYTES`] of budget.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Creates a recorder bounded by `capacity_bytes` of serialised lines.
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        FlightRecorder {
            capacity_bytes,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder mutex").lines.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed byte cost of the retained serialised lines (always
    /// ≤ [`FlightRecorder::capacity_bytes`]).
    pub fn byte_len(&self) -> usize {
        self.ring.lock().expect("flight recorder mutex").bytes
    }

    /// Takes the retained JSONL lines, oldest first, leaving the recorder
    /// empty.
    pub fn drain(&self) -> Vec<String> {
        let mut ring = self.ring.lock().expect("flight recorder mutex");
        ring.bytes = 0;
        std::mem::take(&mut ring.lines).into()
    }

    /// Drains the recorder to `path` as JSON Lines (truncating), returning
    /// the number of lines written.
    pub fn write_jsonl<P: AsRef<Path>>(&self, path: P) -> io::Result<usize> {
        let lines = self.drain();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for line in &lines {
            writeln!(out, "{line}")?;
        }
        out.flush()?;
        Ok(lines.len())
    }
}

impl EventSink for FlightRecorder {
    fn emit(&self, event: &RunEvent) {
        let line = event.to_json();
        if line.len() > self.capacity_bytes {
            return; // can never fit, even alone
        }
        let mut ring = self.ring.lock().expect("flight recorder mutex");
        while ring.bytes + line.len() > self.capacity_bytes {
            let evicted = ring.lines.pop_front().expect("bytes > 0 implies lines");
            ring.bytes -= evicted.len();
        }
        ring.bytes += line.len();
        ring.lines.push_back(line);
    }

    fn fill_resource_report(&self, report: &mut ResourceReport) {
        report.record("flight_recorder", self.byte_len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn trace_event(step: u64) -> RunEvent {
        RunEvent::TracePoint {
            step,
            similarity: 0.5,
            elapsed_secs: 0.0,
        }
    }

    #[test]
    fn report_sorts_dedupes_and_totals() {
        let mut report = ResourceReport::new();
        report.record("tree", 100);
        report.record("cache", 20);
        report.record("tree", 150); // replaces
        assert_eq!(report.component("tree"), Some(150));
        assert_eq!(report.component("cache"), Some(20));
        assert_eq!(report.component("missing"), None);
        assert_eq!(report.total_bytes(), 170);
        let names: Vec<&str> = report
            .components()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["cache", "tree"], "sorted by name");
    }

    #[test]
    fn recorder_keeps_recent_events_and_evicts_oldest_first() {
        let one_line = trace_event(0).to_json().len();
        // Budget for exactly three lines (all trace lines here have the
        // same serialised length).
        let recorder = FlightRecorder::with_capacity_bytes(3 * one_line);
        for step in 0..10 {
            recorder.emit(&trace_event(step));
            assert!(recorder.byte_len() <= recorder.capacity_bytes());
        }
        let lines = recorder.drain();
        assert_eq!(lines.len(), 3);
        let steps: Vec<u64> = lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("step")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(steps, vec![7, 8, 9], "oldest evicted first");
        assert!(recorder.is_empty(), "drain resets the ring");
        assert_eq!(recorder.byte_len(), 0);
    }

    #[test]
    fn oversized_event_is_dropped_not_stored() {
        let recorder = FlightRecorder::with_capacity_bytes(4);
        recorder.emit(&trace_event(1));
        assert!(recorder.is_empty());
        assert_eq!(recorder.byte_len(), 0);
    }

    #[test]
    fn write_jsonl_round_trips_through_schema() {
        let recorder = FlightRecorder::new();
        for step in 0..5 {
            recorder.emit(&trace_event(step));
        }
        let dir = std::env::temp_dir().join("mwsj-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flight-{}.jsonl", std::process::id()));
        let written = recorder.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(written, 5);
        assert_eq!(crate::schema::parse_jsonl(&text).unwrap().len(), 5);
    }
}
