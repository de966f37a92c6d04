//! Spans the benchmark records around each public call into a layer.
//!
//! Recorded from the benchmark's own files, held in memory, written out
//! when the traced pass ends. A span names the layer boundary it wraps,
//! the span that caused it, and a group id shared by every span of one
//! cell run or one served job.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// One id per cell run or per job.
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store for one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span whose interval was measured elsewhere (a client
    /// thread timing its own requests against the shared epoch).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { name, parent, group, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Open a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, group: u64) -> SpanId {
        let now = Instant::now();
        self.push(name, parent, group, now, now)
    }

    /// End an open span now and return its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.at(Instant::now());
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.dur_ns()
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, group);
        let out = f();
        (out, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Per-name totals: `(name, count, total_ns, self_ns)`, in first-seen
    /// order.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns();
                    r.3 += own;
                }
                None => out.push((s.name, 1, s.dur_ns(), own)),
            }
        }
        out
    }

    /// The span file: every span, then the per-name summary.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\
                 \"start\":{},\"end\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"summary\":[");
        for (i, (name, count, total, own)) in self.summary().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"count\":{count},\"total\":{total},\"self\":{own}}}"
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A layer's self time: its span's duration minus the part of that
/// interval its child spans cover. Overlapping children (two requests in
/// flight under one parent) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", parent, group: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [span(None, 0, 100), span(Some(0), 10, 30), span(Some(0), 50, 90)];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 80), // overlaps the first by 20
            span(Some(0), 50, 55), // nested inside both
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 50, 120),  // starts before the parent
            span(Some(0), 190, 260), // ends after it
            span(Some(1), 60, 110),  // grandchild: only reduces span 1
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 20 - 10);
        assert_eq!(own[1], 70 - 50);
    }

    #[test]
    fn recorder_times_and_summarises() {
        let mut rec = Recorder::new();
        let cell = rec.open("cell", None, 7);
        let ((), run_ns) = rec.time("run", Some(cell), 7, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        let cell_ns = rec.close(cell);
        assert!(cell_ns >= run_ns);
        let summary = rec.summary();
        assert_eq!(summary[0].0, "cell");
        assert_eq!(summary[0].3, cell_ns - run_ns, "cell self time excludes run");
        assert_eq!(rec.durations("run"), vec![run_ns as f64]);
        let json = rec.to_json("w");
        assert!(json.contains("\"name\":\"run\"") && json.contains("\"parent\":0"));
    }
}
