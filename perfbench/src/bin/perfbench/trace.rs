//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, an optional parent span and the
//! id of the request it belongs to. Spans are kept in memory while the
//! run lasts and written out as JSON lines when it ends. A layer's self
//! time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `graph.build`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Span recorder with one shared time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// A tracer measuring from `origin`, so spans timed elsewhere against
    /// the same instant can be added with [`Tracer::record`].
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Adds a finished span.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Opens a span that children can nest under; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, request: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let now = self.ns(Instant::now());
        self.record(request, parent, name, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        request: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(request, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {id}, "parent": {parent}, "request": {}, "name": "{}", "start_ns": {}, "end_ns": {}, "self_ns": {self_ns}}}"#,
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (s, e) = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per layer name, the self time (ns) each request spent in it, summed
/// over that request's spans of the name. Spans named in `skip` are left
/// out.
pub fn self_time_by_layer(
    spans: &[Span],
    skip: &[&str],
) -> BTreeMap<&'static str, BTreeMap<u64, u64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        if skip.contains(&span.name) {
            continue;
        }
        *out.entry(span.name)
            .or_default()
            .entry(span.request)
            .or_default() += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0, 100) holds a [10, 40) and b [30, 60) (overlapping: the
        // union covers 50 ns) and c [90, 120) (clipped to 10 ns).
        // a holds a grandchild [15, 25), which must not count for root.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
            span("g", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", None, 5, 17)];
        assert_eq!(self_times(&spans), vec![12]);
    }

    #[test]
    fn by_layer_sums_per_request_and_skips_roots() {
        let mut spans = vec![
            span("replay", None, 0, 100),
            span("graph.build", Some(0), 0, 30),
            span("graph.build", Some(0), 40, 50),
        ];
        spans.push(Span {
            request: 8,
            ..span("graph.build", None, 0, 5)
        });
        let by = self_time_by_layer(&spans, &["replay"]);
        assert!(!by.contains_key("replay"));
        let build = &by["graph.build"];
        assert_eq!(build.get(&7), Some(&40));
        assert_eq!(build.get(&8), Some(&5));
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new();
        let root = t.begin(1, None, "replay");
        let v = t.time(1, Some(root), "leaf", || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
