//! The benchmark's own span recorder: one span around each call into a
//! layer's public entry point, kept in memory and written out at exit.
//! Spans inside the product are a later issue; these are recorded from
//! outside, so the per-layer rows are a differential waterfall.

use std::io::Write;
use std::time::Instant;

/// One recorded call. `parent` indexes into the recorder's span list;
/// spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u32, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Records a span around `f` and passes its result through.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of every span called `name`, in recording order.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let all = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes every span as one JSON array (one object per line).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (parallel legs)
/// are counted once, and a child is clipped to its parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` by 10 ns: the union covers 10..50.
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
            // A grandchild shortens `c`, not the root.
            span("c1", Some(3), 62, 66),
            // Runs past its parent: clipped to 90..100.
            span("d", Some(0), 90, 120),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 100 - (40 + 10 + 10));
        assert_eq!(self_ns[1], 20);
        assert_eq!(self_ns[2], 30);
        assert_eq!(self_ns[3], 10 - 4);
        assert_eq!(self_ns[4], 4);
        assert_eq!(self_ns[5], 30);
    }

    #[test]
    fn recorder_nests_and_filters_by_name() {
        let mut rec = Recorder::new();
        let root = rec.begin("root", 7, None);
        let got = rec.time("leaf", 7, Some(root), || 41 + 1);
        rec.end(root);
        assert_eq!(got, 42);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].request, 7);
        let root_total = rec.durations_ns("root")[0];
        let leaf_total = rec.durations_ns("leaf")[0];
        assert!(leaf_total <= root_total);
        assert_eq!(rec.self_times_ns("root")[0], root_total - leaf_total);
        assert!(rec.durations_ns("absent").is_empty());
    }
}
