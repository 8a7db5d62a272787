//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start and end (ns since the recorder was
//! created) and the span that was open when it started. Nothing is
//! written until [`Spans::records`] at the end of the run; self times
//! are computed from the written spans by `run.py`.

use std::time::Instant;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = std::hint::black_box(f());
        self.exit(id);
        r
    }

    /// `(name, start_ns, end_ns, parent)` per span, with parent `-1`
    /// for a root span.
    pub fn records(&self) -> Vec<(&'static str, u64, u64, i64)> {
        self.spans
            .iter()
            .map(|s| (s.name, s.start, s.end, s.parent.map_or(-1, |p| p as i64)))
            .collect()
    }
}
