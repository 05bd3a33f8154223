//! The benchmark's span recorder.
//!
//! Spans are taken from `perf/`'s own code, around its calls into each
//! layer's public functions; the program under test is not instrumented.
//! They are kept in memory and written out as JSON lines when a leg ends.

use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request (or one repetition) share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; [`SpanLog::close`] fills in the end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Times `work` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = work();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover.
    /// Children may overlap one another (two connections under one round);
    /// covered time counts once.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut frontier = parent.start_ns;
        for (start, end) in children {
            let from = start.max(frontier);
            if end > from {
                covered += end - from;
                frontier = end;
            }
        }
        (parent.end_ns - parent.start_ns).saturating_sub(covered)
    }

    /// Total duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            serde_json::to_writer(&mut out, span)?;
            out.write_all(b"\n")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(Option<SpanId>, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new();
        for (i, &(parent, start_ns, end_ns)) in spans.iter().enumerate() {
            log.spans.push(Span {
                id: i as SpanId,
                parent,
                request: 0,
                name: "t",
                start_ns,
                end_ns,
            });
        }
        log
    }

    #[test]
    fn self_time_is_the_parent_minus_the_covered_children() {
        // Parent 0..100; children 10..30 and 50..60 → 70 uncovered.
        let log = log_with(&[(None, 0, 100), (Some(0), 10, 30), (Some(0), 50, 60)]);
        assert_eq!(log.self_ns(0), 70);
        assert_eq!(log.self_ns(1), 20, "a leaf's self time is its duration");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        // 10..40 and 30..60 overlap (cover 10..60); 90..120 overhangs the
        // parent's end and is clipped to 90..100; the grandchild under span
        // 1 is not the parent's child.
        let log = log_with(&[
            (None, 0, 100),
            (Some(0), 10, 40),
            (Some(0), 30, 60),
            (Some(0), 90, 120),
            (Some(1), 12, 20),
        ]);
        assert_eq!(log.self_ns(0), 100 - 50 - 10);
        assert_eq!(log.self_ns(1), 30 - 8);
    }

    #[test]
    fn a_fully_covered_parent_has_zero_self_time() {
        let log = log_with(&[(None, 5, 25), (Some(0), 0, 15), (Some(0), 15, 40)]);
        assert_eq!(log.self_ns(0), 0);
    }
}
