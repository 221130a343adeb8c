//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! name, start, end and the span that was open when it started. Spans stay
//! in memory until [`Spans::write_jsonl`] at the end of the run. A disabled
//! recorder reads no clock, so the untraced run pays nothing for it.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The recorder. `enter` opens a span under the innermost open one;
/// `exit` closes it.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Spans::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = self.open.pop().expect("len > depth");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time, in nanoseconds, of every span called `name`.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        let own = self.self_ns();
        self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, ns)| ns).sum()
    }

    /// Total duration, in nanoseconds, of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer");
        s.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        s.exit(outer);
        assert!(s.total_ns("inner") >= 5_000_000);
        assert!(s.self_total_ns("outer") < s.total_ns("outer"));
        assert_eq!(s.self_total_ns("outer") + s.total_ns("inner"), s.total_ns("outer"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.time("x", || ());
        assert_eq!(s.total_ns("x"), 0);
    }
}
