//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer (the
//! spans live in the benchmark's own code, not in the library). A span
//! records its name, start and end (ns since the tracer was created), the
//! span that was open when it began, and the id of the benchmark
//! operation it belongs to; counter deltas taken around the call are
//! attached to it. Spans stay in memory until [`Tracer::write_jsonl`] at
//! exit. A layer's self time is its span time minus the time covered by
//! its child spans.
//!
//! A disabled tracer records nothing, so untraced passes pay one branch
//! per call site.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `core.extend`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The benchmark operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counter deltas observed around the call.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (inert when the tracer is disabled).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub calls: usize,
    /// Summed span time, ms.
    pub total_ms: f64,
    /// Summed self time (span minus children), ms.
    pub self_ms: f64,
    /// Summed counter deltas, by counter name.
    pub counters: BTreeMap<&'static str, f64>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
    op: u64,
}

impl Tracer {
    /// A tracer that records only while enabled.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording (between passes, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open the span of a new benchmark operation: spans opened until its
    /// `end` carry its op id.
    pub fn op(&mut self, name: &'static str) -> SpanId {
        if self.enabled {
            self.ops += 1;
            self.op = self.ops;
        }
        self.begin(name)
    }

    /// Open a span inside the current operation.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            op: self.op,
            parent: self.open.last().copied(),
            counters: Vec::new(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span (spans close innermost first).
    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
            debug_assert_eq!(self.open.last(), Some(&idx), "spans must nest");
            self.open.pop();
        }
    }

    /// Attach a counter delta to a span.
    pub fn count(&mut self, id: SpanId, counter: &'static str, delta: f64) {
        if let Some(idx) = id.0 {
            self.spans[idx].counters.push((counter, delta));
        }
    }

    /// Durations of every span called `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Sum of a counter over every span.
    pub fn counter_total(&self, counter: &str) -> f64 {
        self.spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(c, _)| *c == counter)
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Per-name aggregates, in order of first appearance.
    pub fn summary(&self) -> Vec<LayerSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: Vec<LayerSummary> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if !out.iter().any(|l| l.name == s.name) {
                out.push(LayerSummary {
                    name: s.name,
                    calls: 0,
                    total_ms: 0.0,
                    self_ms: 0.0,
                    counters: BTreeMap::new(),
                });
            }
            let Some(l) = out.iter_mut().find(|l| l.name == s.name) else {
                continue;
            };
            l.calls += 1;
            l.total_ms += s.dur_ns() as f64 / 1e6;
            l.self_ms += s.dur_ns().saturating_sub(child) as f64 / 1e6;
            for (c, v) in &s.counters {
                *l.counters.entry(c).or_insert(0.0) += v;
            }
        }
        out
    }

    /// The per-layer table: calls, total and self time, counter sums.
    pub fn render_table(&self) -> String {
        let mut t = format!(
            "{:<26} {:>8} {:>12} {:>12}  counters\n",
            "layer", "calls", "total_ms", "self_ms"
        );
        for l in self.summary() {
            let _ = write!(
                t,
                "{:<26} {:>8} {:>12.3} {:>12.3} ",
                l.name, l.calls, l.total_ms, l.self_ms
            );
            for (c, v) in &l.counters {
                let _ = write!(t, " {c}={v}");
            }
            t.push('\n');
        }
        t
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let counters = s
                .counters
                .iter()
                .fold(Json::obj(), |o, (c, v)| o.with(c, *v));
            let line = Json::obj()
                .with("id", i)
                .with("name", s.name)
                .with("op", s.op)
                .with("parent", s.parent)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("counters", counters);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_split_self_time_and_carry_op_ids() {
        let mut tr = Tracer::new(true);
        let op = tr.op("op.commit");
        let outer = tr.begin("durable.mutate");
        let inner = tr.begin("reldb.restore");
        spin(3);
        tr.count(inner, "facts", 4.0);
        tr.end(inner);
        spin(2);
        tr.end(outer);
        tr.end(op);
        let op2 = tr.op("op.delete");
        tr.end(op2);

        assert_eq!(tr.spans[0].op, 1);
        assert_eq!(tr.spans[2].op, 1);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[3].op, 2);
        let sum = tr.summary();
        let mutate = sum.iter().find(|l| l.name == "durable.mutate").unwrap();
        let restore = sum.iter().find(|l| l.name == "reldb.restore").unwrap();
        assert!(restore.total_ms >= 3.0);
        assert!((mutate.self_ms - (mutate.total_ms - restore.total_ms)).abs() < 1e-9);
        assert!(mutate.self_ms >= 2.0);
        assert_eq!(restore.counters["facts"], 4.0);
        assert_eq!(tr.counter_total("facts"), 4.0);
        assert_eq!(tr.durations_ms("op.delete").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.op("op");
        tr.count(s, "x", 1.0);
        tr.end(s);
        assert!(tr.summary().is_empty());
        tr.set_enabled(true);
        let s = tr.op("op");
        tr.end(s);
        assert_eq!(tr.summary()[0].calls, 1);
    }
}
