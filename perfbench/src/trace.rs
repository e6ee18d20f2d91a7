//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer; they are kept
//! in a `Vec` while the workload runs and only summarized or written
//! out after it ends. With tracing disabled, [`Tracer::span`] is a
//! direct call, so untraced runs pay one branch per layer call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Root span of one benchmark op; layers under it share its op id.
pub const OP: &str = "bench.op";
/// Root span of one workload set-up.
pub const SETUP: &str = "bench.setup";

/// One recorded span.
struct Span {
    name: &'static str,
    /// Op id (0 during set-up).
    op: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    /// Span time minus the time covered by child spans, seconds.
    pub self_s: f64,
    /// Self time spent under [`OP`] spans, as a share of all op time.
    pub op_share_pct: f64,
    /// Self time spent under [`SETUP`] spans, as a share of set-up time.
    pub setup_share_pct: f64,
}

/// Span and counter recorder. Single-threaded: every workload runs on
/// the main thread.
pub struct Tracer {
    on: Cell<bool>,
    t0: Instant,
    op: Cell<u64>,
    next_op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: Cell::new(false),
            t0: Instant::now(),
            op: Cell::new(0),
            next_op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op: self.op.get(),
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Runs one benchmark op inside an [`OP`] root span; ops are
    /// numbered from 1 in the order they run.
    pub fn op<R>(&self, f: impl FnOnce() -> R) -> R {
        self.next_op.set(self.next_op.get() + 1);
        self.op.set(self.next_op.get());
        let out = self.span(OP, f);
        self.op.set(0);
        out
    }

    /// Ends every open span now: an op that panicked unwound past its
    /// spans' ends.
    pub fn close_all(&self) {
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        for idx in self.open.borrow_mut().drain(..) {
            spans[idx].end_ns = end;
        }
        self.op.set(0);
    }

    /// Adds `n` to an exact counter.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on.get() {
            *self.counts.borrow_mut().entry(name).or_default() += n;
        }
    }

    /// Exact counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.borrow().get(name).copied().unwrap_or(0)
    }

    /// Per-name calls, self time, and shares of op and set-up time.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerStat> {
        let spans = self.spans.borrow();
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            spans[i].name
        };
        let root_total = |name: &str| -> f64 {
            let ns: u64 = spans
                .iter()
                .filter(|s| s.parent.is_none() && s.name == name)
                .map(dur)
                .sum();
            ns as f64 * 1e-9
        };
        let (op_s, setup_s) = (root_total(OP), root_total(SETUP));
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let self_s = (dur(s) - child_ns[i]) as f64 * 1e-9;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_s += self_s;
            match root_of(i) {
                OP => e.op_share_pct += 100.0 * self_s / op_s,
                SETUP => e.setup_share_pct += 100.0 * self_s / setup_s,
                _ => {}
            }
        }
        out
    }

    /// Writes every span as one JSON line: name, op id, parent index,
    /// start and end in nanoseconds since the tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
