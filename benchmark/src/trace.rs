//! Harness-side spans: one span around every call the benchmark makes into
//! a layer of the engine.
//!
//! A span is `name, start, end, parent, workload, count`. Spans are kept in
//! memory and written as JSON Lines when the run ends, so recording costs
//! two clock reads and one `Vec` push per span. A layer's **self time** is
//! its span's duration minus the part its child spans cover. Spans *inside*
//! the engine are a later change (ROADMAP item 1c); until then a probe that
//! makes many short calls is one span with the call count attached.
//!
//! The tracer always times (the untraced run needs the same durations); it
//! only *stores* spans when enabled. The difference between the two runs is
//! reported as `trace.overhead_ratio`.

use mwsj_obs::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span (order of opening).
    pub id: usize,
    /// The span that was open when this one was opened.
    pub parent: Option<usize>,
    /// Layer-qualified name (`setup`, `datagen.from_csv`, `ils`, …).
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Calls / items the span covers (1 for a single call).
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; stores spans only when `enabled`.
    pub fn new(enabled: bool, workload: &str) -> Self {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result with the
    /// span's duration in seconds. `f` receives the tracer to open child
    /// spans.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.span_counted(name, |t| (f(t), 1))
    }

    /// Like [`Tracer::span`] for a batch of calls: `f` also returns how
    /// many calls the span covered.
    pub fn span_counted<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> (R, f64) {
        let slot = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                count: 0,
            });
            self.open.push(id);
            id
        });
        let start = Instant::now();
        let (result, count) = f(self);
        let end = Instant::now();
        if let Some(id) = slot {
            self.open.pop();
            let span = &mut self.spans[id];
            span.start_ns = start.duration_since(self.origin).as_nanos() as u64;
            span.end_ns = end.duration_since(self.origin).as_nanos() as u64;
            span.count = count;
        }
        (result, end.duration_since(start).as_secs_f64())
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Share of span `id`'s duration covered by its direct children
    /// (1 − self-time share). Children never overlap: the harness is
    /// single-threaded and spans nest.
    pub fn child_coverage(&self, id: usize) -> f64 {
        let total = self.spans[id].secs();
        if total <= 0.0 {
            return 1.0;
        }
        self.children(id).map(Span::secs).sum::<f64>() / total
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("workload".into(), Json::Str(self.workload.clone())),
                ("id".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("count".into(), Json::Num(s.count as f64)),
            ]);
            out.push_str(&line.dump());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let mut t = Tracer::new(true, "w");
        t.span("parent", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span_counted("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ((), 7)
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].count, 7);
        assert!(t.child_coverage(0) > 0.9);
        for line in t.to_jsonl().lines() {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("workload").and_then(Json::as_str), Some("w"));
        }
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false, "w");
        let ((), secs) = t.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
