//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is `(request id, layer, start, end, parent)`. Spans stay in
//! memory while the benchmark runs and are written out once at exit. A
//! layer's self time is its spans' durations minus the part covered by
//! their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root layer of every served request.
pub const REQUEST: &str = "request";

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u64,
    /// Layer name (the module the wrapped call enters).
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and never reads the
/// clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn open(&mut self, req: u64, layer: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its index.
    pub fn close(&mut self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.stack.pop().expect("close without open");
        self.spans[id].end_ns = self.now_ns();
        Some(id)
    }

    /// Records a child of span `parent` that starts with it and lasts
    /// `dur_ns` (clamped to the parent) — for a sub-step timed by a
    /// separate call, such as the profile build inside a searcher call.
    pub fn add_leading_child(&mut self, parent: Option<usize>, layer: &'static str, dur_ns: u64) {
        let Some(p) = parent else { return };
        let (req, start_ns, end_ns) = {
            let s = &self.spans[p];
            (s.req, s.start_ns, s.end_ns)
        };
        self.spans.push(Span {
            req,
            layer,
            start_ns,
            end_ns: (start_ns + dur_ns).min(end_ns),
            parent: Some(p),
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in milliseconds, summed over all spans.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.layer, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                req: 0,
                layer: REQUEST,
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
            },
            Span {
                req: 0,
                layer: "search",
                start_ns: 1_000_000,
                end_ns: 7_000_000,
                parent: Some(0),
            },
        ];
        t.add_leading_child(Some(1), "profile", 2_000_000);
        let ms = t.self_ms();
        assert_eq!(ms[REQUEST], 4.0);
        assert_eq!(ms["search"], 4.0);
        assert_eq!(ms["profile"], 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open(0, REQUEST);
        assert_eq!(t.close(), None);
        assert!(t.spans().is_empty());
    }
}
