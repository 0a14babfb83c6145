//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, a parent and the
//! id of the workload pass it belongs to. Timing is taken whether or not
//! recording is on, so the untraced runs measure through the same code
//! path and only skip the bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; pass it back to [`Spans::exit`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// Span recorder. Disabled recorders only time.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new workload pass: later spans share its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                pass: self.pass,
                parent: self.stack.last().copied(),
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            self.stack.push(idx);
            idx
        });
        Open { idx, start }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in order");
            self.stack.pop();
            self.spans[idx].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Self time per layer (the span name up to its first `.`), in
    /// seconds: each span's duration minus the part its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Total seconds of every span with exactly this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The spans as a JSON array (one object per span; its index is its id).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"pass\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.pass, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("bench.pass");
        let inner = spans.enter("machine.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit(inner);
        spans.exit(outer);
        let by_layer = spans.self_time_by_layer();
        assert!(by_layer["machine"] >= 0.002);
        assert!(by_layer["bench"] < by_layer["machine"]);
        assert_eq!(spans.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut spans = Spans::new(false);
        let ((), secs) = spans.time("machine.run", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(spans.spans.is_empty());
    }
}
