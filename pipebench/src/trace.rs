//! In-memory spans for the traced replay: name, start, end, parent and
//! operation id, kept in a vector and written as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call is a no-op, so
/// the same replay code measures the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn close(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// Durations of every span named `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of every span named `name` (its duration minus the time
    /// its child spans cover), nanoseconds. Children of one span run one
    /// after another, so their durations do not overlap.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(span, children)| span.duration_ns().saturating_sub(children) as f64)
            .collect()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open("root", 1);
        tracer.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close(root);
        let whole = tracer.durations("root")[0];
        let child = tracer.durations("child")[0];
        assert_eq!(tracer.self_times("root"), vec![whole - child]);
        assert_eq!(tracer.self_times("child"), vec![child]);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
        let mut off = Tracer::new(false);
        off.span("child", 1, || ());
        assert!(off.to_jsonl().is_empty());
    }
}
