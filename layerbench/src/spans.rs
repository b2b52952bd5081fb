//! An in-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code around calls into each layer, kept in memory
//! while the run lasts, and written out once at the end.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request (0 = none).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span storage with one epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index; [`Self::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ns()
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// Every span recorded so far, in open order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as TSV: `id name start_ns end_ns parent request`.
    ///
    /// # Errors
    ///
    /// Any write failure.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{parent}\t{}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_nest_inside_their_parent() {
        let mut spans = Spans::new();
        let root = spans.open("root", None, 7);
        let (_, child_ns) = spans.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_ns = spans.close(root);
        assert!(child_ns >= 2_000_000);
        assert!(root_ns >= child_ns);
        let (r, c) = (&spans.all()[root], &spans.all()[1]);
        assert_eq!((c.name, c.parent, c.request), ("child", Some(root), 7));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    }
}
