//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's side of every public call (the
//! program itself is not instrumented), kept in memory, and written out
//! once when the run ends. Every span feeds a per-name aggregate with its
//! *self time* — its duration minus what its child spans cover — and the
//! spans of the first [`KEEP_REQUESTS`] requests are kept whole.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Requests whose individual spans are kept (aggregates cover all).
pub const KEEP_REQUESTS: u32 = 10_000;

/// One closed span. `parent` 0 means a root span; spans of one request
/// share `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in open order.
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// The request (or epoch, or store call) this span belongs to.
    pub request: u32,
    /// Layer-qualified name, e.g. `core.get_one`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Spans closed.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − time covered by child spans).
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean self time per span in nanoseconds (0 with no spans).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    id: u32,
    name: &'static str,
    request: u32,
    start_ns: u64,
    children_ns: u64,
}

/// The span recorder of one run. Single-threaded by design: the traced
/// runs replay their operation stream on one thread.
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    aggregates: BTreeMap<&'static str, Aggregate>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u32) {
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id: self.next_id,
            name,
            request,
            start_ns,
            children_ns: 0,
        });
        self.next_id += 1;
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// When no span is open (unbalanced instrumentation is a benchmark bug).
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        self.close(open, end_ns);
    }

    /// Records a child of the innermost open span whose duration was
    /// measured elsewhere (the epoch phases, timed inside the pipeline).
    /// Only the duration is a measurement; `start_ns` is where the caller
    /// chose to lay it out inside the parent.
    pub fn child(&mut self, name: &'static str, request: u32, start_ns: u64, duration_ns: u64) {
        let open = Open {
            id: self.next_id,
            name,
            request,
            start_ns,
            children_ns: 0,
        };
        self.next_id += 1;
        self.close(open, start_ns + duration_ns);
    }

    /// Start of the innermost open span (for laying out [`Tracer::child`]).
    pub fn open_start_ns(&self) -> Option<u64> {
        self.stack.last().map(|o| o.start_ns)
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let duration = end_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += duration;
                p.id
            }
            None => 0,
        };
        let agg = self.aggregates.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(open.children_ns);
        if open.request < KEEP_REQUESTS {
            self.spans.push(Span {
                id: open.id,
                parent,
                request: open.request,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Totals for one span name (zeroes when it never closed).
    pub fn aggregate(&self, name: &str) -> Aggregate {
        self.aggregates.get(name).copied().unwrap_or_default()
    }

    /// Writes `{workload, spans, aggregates}` as JSON to `path`.
    pub fn write_json(&self, workload: &str, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"workload\": \"{workload}\",")?;
        writeln!(w, " \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, " ],")?;
        writeln!(w, " \"aggregates\": {{")?;
        for (i, (name, a)) in self.aggregates.iter().enumerate() {
            let comma = if i + 1 < self.aggregates.len() {
                ","
            } else {
                ""
            };
            writeln!(
                w,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                a.count, a.total_ns, a.self_ns
            )?;
        }
        writeln!(w, " }}}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new();
        t.enter("request", 0);
        t.enter("server.parse", 0);
        t.exit();
        let start = t.open_start_ns().unwrap();
        t.child("core.get_one", 0, start + 10, 1_000);
        t.exit();
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(root.parent, 0);
        for s in spans.iter().filter(|s| s.name != "request") {
            assert_eq!(s.parent, root.id);
            assert_eq!(s.request, 0);
        }
        let req = t.aggregate("request");
        let parse = t.aggregate("server.parse");
        let get = t.aggregate("core.get_one");
        assert_eq!(get.total_ns, 1_000);
        assert_eq!(
            req.self_ns,
            req.total_ns.saturating_sub(parse.total_ns + get.total_ns)
        );
        assert_eq!(t.aggregate("missing"), Aggregate::default());
    }

    #[test]
    fn spans_past_the_keep_limit_only_aggregate() {
        let mut t = Tracer::new();
        for request in [0, KEEP_REQUESTS - 1, KEEP_REQUESTS] {
            t.enter("store.get", request);
            t.exit();
        }
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.aggregate("store.get").count, 3);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new();
        t.enter("request", 7);
        t.enter("core.put", 7);
        t.exit();
        t.exit();
        // Inside the package, so the test writes nothing outside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        let path = dir.join("trace.json");
        t.write_json("unit", &path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        let agg = doc.get("aggregates").unwrap().get("core.put").unwrap();
        assert_eq!(agg.get("count").unwrap().as_f64(), Some(1.0));
    }
}
