//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! the span that caused it, and the id of the request it served. Spans
//! stay in memory and are written out when the run ends. A disabled
//! tracer records nothing, so the untraced passes share the traced code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a span measured elsewhere (e.g. on a worker thread).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per span name: (count, total ns, self ns), in name order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "x", start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); c [50,60) under root.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), [60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two concurrent children [10,50) and [30,70), plus one running
        // past the parent's end [90,130): covered = [10,70) + [90,100).
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child fully inside another child adds nothing.
        let spans = [span(0, 100, None), span(0, 80, Some(0)), span(10, 20, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a", None, 1);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.open("a", None, 1);
        let kid = t.open("b", root, 1);
        t.close(kid);
        t.close(root);
        let layers = by_name(t.spans());
        assert_eq!(layers["a"].count, 1);
        assert_eq!(layers["a"].self_ns + layers["b"].total_ns, layers["a"].total_ns);
    }
}
