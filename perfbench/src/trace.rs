//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Spans live in memory while the workload runs and
//! are written out as JSON lines when it ends.
//!
//! A span's name is `<layer>.<operation>`; a layer's self time is the
//! duration of its spans minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `deck.parse`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job (deck run, I–V family, server job) the span belongs to.
    pub job: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. Disabled recorders read no clock and
/// store nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder timing against `epoch` (share one epoch across
    /// threads so their spans can be merged).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (between rounds, never inside a
    /// span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index));
        }
    }

    /// Records an already finished span as a child of the innermost
    /// open span (for intervals observed through progress events).
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            job,
        };
        self.spans.push(span);
    }

    /// Moves every span of `other` into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in ns, and the number of spans per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = layers.entry(span.layer()).or_default();
            entry.0 += span.duration_ns().saturating_sub(children);
            entry.1 += 1;
        }
        layers
    }

    /// The spans as JSON lines: `name`, `start_ns`, `end_ns`, `parent`
    /// (index of the enclosing span, or null) and `job`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.job
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let outer = t.enter("deck.run", 1);
        let a = epoch + Duration::from_millis(1);
        t.record("transient.step", 1, a, a + Duration::from_millis(2));
        t.exit(outer);
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 5_000_000;
        let layers = t.self_time_by_layer();
        assert_eq!(layers["deck"], (3_000_000, 1));
        assert_eq!(layers["transient"], (2_000_000, 1));
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.enter("core.sweep", 0);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
