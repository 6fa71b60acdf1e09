//! Spans of a traced run, kept in memory and written as JSON lines when
//! the run ends.
//!
//! Every span carries its workload. The tree is unit > setup | round N >
//! stage.<name> for the swarm workloads, and unit > fig.<name> or
//! model.<call> for the others. Spans are recorded only around the
//! benchmark's own calls into the library; stage spans are laid out from
//! the durations the profiler records per round and are marked `derived`.

use std::io::Write;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    derived: bool,
}

/// Span ids are indices into the recorder; `None` stands for "not
/// recording", so callers never branch on whether tracing is on.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, parent: SpanId, name: impl Into<String>) -> SpanId {
        let now = self.now_ns();
        self.record(parent, name, now, now, false)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Records a span with known bounds.
    pub fn record(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> SpanId {
        if !self.recording {
            return None;
        }
        self.spans.push(Span {
            parent: parent.filter(|&p| p < self.spans.len()),
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            derived,
        });
        Some(self.spans.len() - 1)
    }

    /// Start of a recorded span (0 when not recording).
    pub fn start_of(&self, id: SpanId) -> u64 {
        id.and_then(|i| self.spans.get(i)).map_or(0, |s| s.start_ns)
    }

    /// Writes one JSON object per span, children after their parents.
    pub fn write_jsonl<W: Write>(&self, workload: &str, mut out: W) -> std::io::Result<()> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        for (id, span) in self.spans.iter().enumerate() {
            let record = Value::Object(vec![
                ("workload".into(), Value::Str(workload.to_string())),
                ("id".into(), Value::UInt(id as u64)),
                (
                    "parent".into(),
                    span.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("name".into(), Value::Str(span.name.clone())),
                ("start_ns".into(), Value::UInt(span.start_ns)),
                ("end_ns".into(), Value::UInt(span.end_ns)),
                (
                    "self_ns".into(),
                    Value::UInt(self_time(span.start_ns, span.end_ns, &mut children[id])),
                ),
                ("derived".into(), Value::Bool(span.derived)),
            ]);
            let line = serde_json::to_string(&record).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may overlap each other or stick out of the
/// parent; only their union inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &mut [(10, 40), (30, 60), (35, 45)]), 50);
        // Unsorted input, and children reaching outside the parent.
        assert_eq!(self_time(10, 100, &mut [(90, 120), (0, 20)]), 70);
        // Fully covered.
        assert_eq!(self_time(0, 100, &mut [(0, 60), (50, 100)]), 0);
    }

    #[test]
    fn spans_are_recorded_only_while_recording() {
        let mut trace = Trace::new();
        assert_eq!(trace.open(None, "ignored"), None);
        trace.set_recording(true);
        let root = trace.open(None, "unit");
        let child = trace.record(root, "stage.exchange", 5, 9, true);
        trace.close(root);
        assert_eq!((root, child), (Some(0), Some(1)));
        let mut bytes = Vec::new();
        trace.write_jsonl("w", &mut bytes).expect("write trace");
        let text = String::from_utf8(bytes).expect("utf-8");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("json"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(lines[1].get("self_ns").and_then(Value::as_u64), Some(4));
        assert_eq!(lines[1].get("derived").and_then(Value::as_bool), Some(true));
    }
}
