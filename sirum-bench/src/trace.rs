//! The traced pass's span recorder. Spans are taken from the benchmark's
//! side, around public calls into each layer; they stay in memory and are
//! written out once, when the run ends.

use sirum::json::json_string;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one traced operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a new span and return the span's index with `f`'s
    /// value.
    pub fn time<T>(
        &mut self,
        op: u32,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let value = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1, value)
    }

    /// Lay durations the program itself reported (phase timings) under
    /// `parent` as back-to-back child spans: they are aggregates over the
    /// run's iterations, so only their lengths are meaningful.
    pub fn aggregate_children(&mut self, parent: usize, parts: &[(&str, f64)]) {
        let op = self.spans[parent].op;
        let mut at = self.spans[parent].start_ns;
        for (name, secs) in parts {
            let len = (secs * 1e9) as u64;
            self.spans.push(Span {
                op,
                name: (*name).to_string(),
                start_ns: at,
                end_ns: at + len,
                parent: Some(parent),
            });
            at += len;
        }
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// A span's own time: its duration minus the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.duration_ns(id).saturating_sub(covered)
    }

    /// The spans as a JSON array, self time included so a reader need not
    /// recompute it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\":{i},\"op\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.op,
                json_string(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new();
        let (root, ()) = rec.time(0, "root", None, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let total = rec.duration_ns(root);
        rec.aggregate_children(root, &[("a", 0.001), ("b", 0.002)]);
        assert_eq!(rec.self_ns(root), total - 3_000_000);
        assert_eq!(rec.self_ns(root + 1), 1_000_000);
        assert!(rec.to_json().contains("\"name\":\"b\""));
    }
}
