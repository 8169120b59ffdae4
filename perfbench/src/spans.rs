//! Host-clock spans around the benchmark's calls into each layer.
//!
//! Every span has a name (`<layer>.<call>`), a start, an end, a parent and
//! the id of the op it belongs to. Self time (duration minus the children
//! it covers, and minus the recorder's own work for them) is folded into
//! per-name totals as spans close; the raw
//! spans of the first [`KEEP_SPANS`] closes are kept in memory and written
//! out once, at the end of the run. Disarmed, a span is a direct call.

use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the end-of-run file.
pub const KEEP_SPANS: usize = 100_000;
/// Duration samples kept per span name (for medians).
const KEEP_DURATIONS: usize = 200_000;
/// Name of the root span around one workload op. Its self time is the
/// benchmark glue that no layer span covers.
pub const OP_ROOT: &str = "bench.op";

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// Totals for every span of one name.
#[derive(Debug, Clone)]
pub struct NameStats {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Closed spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus covered children).
    pub self_ns: u64,
    /// Durations in ns (the first `KEEP_DURATIONS`).
    pub durations_ns: Vec<f64>,
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// The span recorder. One per run; armed only in the traced run.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: u32,
    op: u64,
    stack: Vec<Open>,
    by_name: Vec<NameStats>,
    kept: Vec<SpanRecord>,
    closed: u64,
    bookkeeping_ns: u64,
}

impl Spans {
    /// A recorder, armed or not.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: 1,
            op: 0,
            stack: Vec::new(),
            by_name: Vec::new(),
            kept: Vec::new(),
            closed: 0,
            bookkeeping_ns: 0,
        }
    }

    /// Arms or disarms the recorder between ops.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.on = on;
    }

    /// Sets the op id the following spans belong to.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open { id, name, start: Instant::now(), child_ns: 0 });
        let result = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("spans close in order");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = self.stack.last().map_or(0, |p| p.id);
        self.fold(open.name, dur, dur.saturating_sub(open.child_ns));
        self.closed += 1;
        if self.kept.len() < KEEP_SPANS {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(SpanRecord {
                id,
                parent,
                op: self.op,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
        // The recorder's own work is neither the span's nor its parent's:
        // it is left out of both, and totalled on its own.
        let spent = end.elapsed().as_nanos() as u64;
        self.bookkeeping_ns += spent;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur + spent;
        }
        result
    }

    /// Time spent recording spans, in ns: left out of every span's self
    /// time.
    pub fn bookkeeping_ns(&self) -> u64 {
        self.bookkeeping_ns
    }

    fn fold(&mut self, name: &'static str, dur: u64, self_ns: u64) {
        // Names are literals, so the pointer usually decides; the string
        // compare only runs for a name seen first at another call site.
        let found = self.by_name.iter().position(|s| std::ptr::eq(s.name, name));
        let idx = match found.or_else(|| self.by_name.iter().position(|s| s.name == name)) {
            Some(i) => i,
            None => {
                self.by_name.push(NameStats {
                    name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    durations_ns: Vec::new(),
                });
                self.by_name.len() - 1
            }
        };
        let s = &mut self.by_name[idx];
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += self_ns;
        if s.durations_ns.len() < KEEP_DURATIONS {
            s.durations_ns.push(dur as f64);
        }
    }

    /// Totals for one span name.
    pub fn stats(&self, name: &str) -> Option<&NameStats> {
        self.by_name.iter().find(|s| s.name == name)
    }

    /// Totals for every span name, in first-seen order.
    pub fn all_stats(&self) -> &[NameStats] {
        &self.by_name
    }

    /// Spans closed in total (kept or not).
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Writes the kept spans as CSV (`id,parent,op,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
        for s in &self.kept {
            writeln!(out, "{},{},{},{},{},{}", s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(true);
        sp.begin_op(7);
        sp.span(OP_ROOT, |sp| {
            sp.span("xen.a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            sp.span("sev.b", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let root = sp.stats(OP_ROOT).unwrap();
        let a = sp.stats("xen.a").unwrap();
        let b = sp.stats("sev.b").unwrap();
        assert!(root.total_ns >= root.self_ns + a.total_ns + b.total_ns);
        assert!(root.total_ns <= root.self_ns + a.total_ns + b.total_ns + sp.bookkeeping_ns());
        assert_eq!(layer_of(a.name), "xen");
        assert_eq!(sp.kept.len(), 3);
        assert!(sp.kept.iter().all(|s| s.op == 7));
        assert_eq!(sp.kept[0].parent, sp.kept[2].id);
    }

    #[test]
    fn disarmed_records_nothing() {
        let mut sp = Spans::new(false);
        assert_eq!(sp.span("xen.a", |_| 5), 5);
        assert_eq!(sp.closed(), 0);
    }
}
