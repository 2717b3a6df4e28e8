//! In-memory spans for the traced run: name, start, end, parent and request
//! id, recorded around the benchmark's calls into each layer and written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread. Spans nest: a span entered while another
/// is open becomes its child. Each tracer numbers its spans from its own
/// base, so the spans of several threads merge without clashes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, id_base: u64) -> Tracer {
        Tracer { epoch, next_id: id_base, open: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: start_ns });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed before the spans are read");
        self.spans
    }
}

/// A span's self time: its duration minus the part of it that its children
/// cover (overlapping children count once; parts outside it not at all).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Children of each span, by parent id.
pub fn children_of(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut out: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            out.entry(parent).or_default().push(span);
        }
    }
    out
}

/// Per request, the summed duration of every span of each name, in ms:
/// `name → [one value per request that has such a span]`.
pub fn per_request_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut sums: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for span in spans {
        *sums.entry((span.name, span.request)).or_default() += span.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in sums {
        out.entry(name).or_default().push(ns as f64 / 1e6);
    }
    out
}

/// Write the spans as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 0, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 30);
        let b = span(3, Some(1), 50, 60);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 70);
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let root = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 30, 50);
        let c = span(4, Some(1), 35, 45);
        assert_eq!(self_time_ns(&root, &[&b, &a, &c]), 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let root = span(1, None, 20, 80);
        let early = span(2, Some(1), 0, 30);
        let late = span(3, Some(1), 70, 120);
        let outside = span(4, Some(1), 90, 95);
        assert_eq!(self_time_ns(&root, &[&early, &late, &outside]), 40);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut tracer = Tracer::new(Instant::now(), 100);
        tracer.enter("root", 7);
        tracer.time("child", 7, || ());
        tracer.enter("child", 7);
        tracer.time("grandchild", 7, || ());
        tracer.exit();
        tracer.exit();
        tracer.time("other", 8, || ());
        let spans = tracer.into_spans();
        let parents: Vec<(&str, Option<u64>)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("root", None),
                ("child", Some(100)),
                ("child", Some(100)),
                ("grandchild", Some(102)),
                ("other", None)
            ]
        );
        let kids = children_of(&spans);
        assert_eq!(kids[&100].len(), 2);
        let root = &spans[0];
        let self_ns = self_time_ns(root, &kids[&100]);
        let child_ns: u64 = kids[&100].iter().map(|s| s.duration_ns()).sum();
        assert_eq!(self_ns + child_ns, root.duration_ns());
        let per_request = per_request_ms(&spans);
        assert_eq!(per_request["child"].len(), 1, "two child spans of one request sum");
        assert_eq!(per_request["other"].len(), 1);
    }
}
