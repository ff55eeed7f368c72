//! Tier-1 guard of the run-event stream: what a search writes as JSON
//! Lines must read back, through the derived typed reader, as exactly the
//! events it emitted — every field, measured wall-clock ones included,
//! bit for bit — what the run emits inside and the frame
//! ([`mwsj::core::emit_run_end`]) its caller closes it with alike.
//!
//! The rest of the observability tests live in `crates/obs` and
//! `crates/cli` and only run under `--workspace`; this one runs with the
//! root package so a writer/reader drift fails the tier-1 gate.

use mwsj::core::{emit_run_end, EventSink, JsonlSink, ObsHandle, RunEvent, VecSink};
use mwsj::datagen::plant_solution;
use mwsj::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An in-memory file the [`JsonlSink`] can own while the test keeps a view.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn planted_instance(seed: u64) -> Instance {
    let (n, cardinality) = (3, 150);
    let mut rng = StdRng::seed_from_u64(seed);
    let density = hard_region_density(QueryShape::Chain, n, cardinality, 1.0);
    let mut datasets: Vec<Dataset> = (0..n)
        .map(|_| Dataset::uniform(cardinality, density, &mut rng))
        .collect();
    let graph = QueryGraph::chain(n);
    plant_solution(&mut datasets, &graph, &mut rng);
    Instance::new(graph, datasets).unwrap()
}

/// Runs `search` with a handle that captures its events in a [`VecSink`],
/// writes them through an in-memory [`JsonlSink`], and checks the written
/// lines against the captured events.
fn assert_stream_round_trips(search: impl FnOnce(&ObsHandle)) {
    let captured = Arc::new(VecSink::new());
    search(&ObsHandle::enabled().with_sink(captured.clone()));
    let events = captured.take();
    let buf = SharedBuf::default();
    let jsonl = JsonlSink::new(Box::new(buf.clone()));
    for event in &events {
        jsonl.emit(event);
    }

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(text.ends_with('\n'), "only complete lines");
    assert_eq!(text.lines().count(), events.len());
    for (line, event) in text.lines().zip(&events) {
        let parsed = RunEvent::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(&parsed, event, "{line}");
        assert_eq!(parsed.to_json(), line);
    }
    let run_ends = events
        .iter()
        .filter(|e| matches!(e, RunEvent::RunEnd { .. }))
        .count();
    assert_eq!(run_ends, 1, "the caller's one run_end");
    assert!(
        matches!(events.last(), Some(RunEvent::RunEnd { .. })),
        "run_end closes the stream"
    );
    for kind in ["improvement", "explain_report", "resource_report"] {
        assert!(events.iter().any(|e| e.kind() == kind), "no {kind} event");
    }
}

#[test]
fn ils_stream_reads_back_as_emitted() {
    let inst = planted_instance(910);
    assert_stream_round_trips(|obs| {
        let ctx = SearchContext::local(SearchBudget::iterations(4_000)).with_obs(obs.clone());
        let mut rng = StdRng::seed_from_u64(911);
        let outcome = Ils::new(IlsConfig::default()).search(&inst, &ctx, &mut rng);
        emit_run_end(obs, &inst, &outcome);
    });
}

#[test]
fn two_restart_portfolio_stream_reads_back_as_emitted() {
    let inst = planted_instance(920);
    assert_stream_round_trips(|obs| {
        let portfolio = Portfolio::new(Ils::new(IlsConfig::default()), 2);
        let ctx = SearchContext::local(SearchBudget::iterations(4_000)).with_obs(obs.clone());
        let outcome = portfolio.search(&inst, &ctx, 0xDEAD_BEEF_F00D);
        assert_eq!(outcome.restarts.len(), 2);
        emit_run_end(obs, &inst, &outcome.merged);
    });
}
