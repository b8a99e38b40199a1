//! In-memory span recorder for the traced run. Spans are recorded around
//! the benchmark's own calls into each layer's public functions (the
//! program under test carries no instrumentation), kept in memory per
//! thread, merged, and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: layer name, interval (ns since the run's epoch), the
/// span that caused it, and the request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread recorder. Spans opened with [`Tracer::span`] nest: the
/// innermost open span becomes the parent of the next one.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Open a span explicitly (for spans that enclose several calls).
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end = end;
        self.open.retain(|&open| open != id);
    }

    /// Record a span whose interval was measured elsewhere (a request
    /// timed from its intended send time to its answer).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start, end, parent: self.open.last().copied(), request });
    }

    /// Fold another thread's spans into this recorder, re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let (lo, hi) = (lo.max(reach), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per layer name: call count, and the per-call total and self times in
/// nanoseconds.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = out.entry(s.name).or_default();
        entry.0.push(s.duration() as f64);
        entry.1.push(own as f64);
    }
    out
}

/// Per request: the summed duration of the spans named `names`.
pub fn per_request_sum(spans: &[Span], names: &[&str]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *out.entry(s.request).or_insert(0.0) += s.duration() as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 covered once
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn nested_spans_link_to_the_innermost_open_span() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("root", 7);
        t.span("child", 7, t_sleep);
        t.end(root);
        t.span("sibling", 8, || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!(s[1].request, 7);
        assert!(s[0].duration() >= s[1].duration());
        let layers = by_layer(s);
        assert_eq!(layers["child"].0.len(), 1);
        assert!(layers["root"].1[0] <= layers["root"].0[0]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", 0, || ());
        let mut b = Tracer::new(epoch);
        let r = b.begin("outer", 1);
        b.span("inner", 1, || ());
        b.end(r);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let sums = per_request_sum(a.spans(), &["inner", "x"]);
        assert_eq!(sums.len(), 2);
    }

    fn t_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
