//! In-memory spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name (`layer.call`), a start and end in seconds since the run's
//! origin, the index of the span that was open when it began, and the id of the op it
//! belongs to.  Spans stay in memory until the run ends, when [`Tracer::write_jsonl`]
//! writes them out, one JSON object per line.  With tracing off every method is a
//! no-op that takes no timestamps.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer is the span name up to its first `.` (`bsa.solve` → `bsa`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn secs(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = self.secs(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-closed span (e.g. one bounded by two progress events) under
    /// the currently open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start: self.secs(start),
            end: self.secs(end),
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time summed per layer: each span's duration minus the time its direct
    /// children cover.  Children of one span never overlap (each thread records its
    /// own spans in call order), so subtracting their sum is exact.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *by_layer.entry(s.layer()).or_insert(0.0) += (s.duration() - children).max(0.0);
        }
        by_layer
    }

    /// Moves another tracer's spans (e.g. a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_secs_f64();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start += shift;
            s.end += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let outer = t.enter("bsa.solve");
        let inner = t.enter("validate.validate");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let by_layer = t.self_time_by_layer();
        let total = t.durations("bsa.solve")[0];
        let child = t.durations("validate.validate")[0];
        assert!((by_layer["bsa"] - (total - child)).abs() < 1e-9);
        assert!((by_layer["validate"] - child).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.enter("bsa.solve");
        t.exit(id);
        assert_eq!(t.time("x.y", || 7), 7);
        assert!(t.durations("bsa.solve").is_empty());
        assert!(t.self_time_by_layer().is_empty());
    }
}
