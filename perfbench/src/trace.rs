//! In-memory spans recorded by the benchmark around its own calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span has a name, start, end, parent and request id. Its *self time*
//! is its duration minus the part of its interval its children cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// Parent span id; `None` for a root.
    pub parent: Option<u64>,
    /// Request (or ingest batch) the span belongs to.
    pub request: u64,
    /// Layer boundary, e.g. `query.execute`.
    pub name: &'static str,
    /// Free-form qualifier, e.g. the query class.
    pub label: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one thread. Ids are unique across recorders that
/// were created with distinct `lane`s.
pub struct Recorder {
    epoch: Instant,
    lane: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder sharing `epoch` with its siblings.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self { epoch, lane, next: 0, spans: Vec::new() }
    }

    /// A fresh id (span or request).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    /// Nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span over `[start, end]`; returns its id.
    pub fn record(
        &mut self,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        label: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { id, parent, request, name, label, start_ns, end_ns });
        id
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in ns, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Write `spans` as JSON lines (one object per span, with its self time).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"label\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.request, s.name, s.label, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 1, name: "x", label: "", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),  // overlaps span 2
            span(4, Some(1), 90, 120), // sticks out of the parent
            span(5, Some(2), 10, 15),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 30 - 10);
        assert_eq!(s[&2], 20 - 5);
        assert_eq!(s[&4], 30);
    }
}
