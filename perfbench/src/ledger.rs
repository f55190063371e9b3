//! The traced run's span recorder and per-op time ledger.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions, and kept in memory until the run
//! ends. Every op is one top-level `op` span; the layer calls it makes are
//! its children. A layer's self time is its span's duration (layer spans
//! do not nest), and the op span's self time — the part no layer claims —
//! is the op's remainder.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The name of the span that brackets one timed op.
pub const OP_SPAN: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or `op`) name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to; `None` during setup.
    pub op: Option<u64>,
}

/// Records spans when enabled; otherwise a pass-through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the timed closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    /// True if spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the open op (or a
    /// setup span when no op is open).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let op = self.open.and_then(|i| self.spans[i].op);
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open,
            op,
        });
        out
    }

    /// Opens the span of op `id`, started at `start`.
    pub fn begin_op(&mut self, id: u64, start: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: OP_SPAN,
            start_ns: self.ns(start),
            end_ns: self.ns(start),
            parent: None,
            op: Some(id),
        });
        self.open = Some(self.spans.len() - 1);
    }

    /// Closes the open op span at `end`.
    pub fn end_op(&mut self, end: Instant) {
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let op = s.op.map_or("null".to_owned(), |o| o.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, split into the setup window and the op window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Self nanoseconds per layer over setup spans (no op open).
    pub setup_ns: BTreeMap<&'static str, u64>,
    /// Self nanoseconds per layer over all op children.
    pub ops_ns: BTreeMap<&'static str, u64>,
    /// Summed op wall time.
    pub op_total_ns: u64,
    /// Summed op remainder: op time no layer span claims.
    pub remainder_ns: u64,
}

impl Ledger {
    /// Self time of `layer` in the op window, if it appeared there.
    pub fn op_ns(&self, layer: &str) -> Option<u64> {
        self.ops_ns.get(layer).copied()
    }
}

/// Builds the ledger from `spans`, checking for every op that its layer
/// spans lie inside it without overlapping, so that the layers' self
/// times plus the remainder add up to the op's wall time exactly.
pub fn account(spans: &[Span]) -> Result<Ledger, String> {
    let mut led = Ledger::default();
    let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        match s.parent {
            Some(p) => children.entry(p).or_default().push(i),
            None if s.name != OP_SPAN => {
                *led.setup_ns.entry(s.name).or_default() += s.end_ns - s.start_ns
            }
            None => {}
        }
    }
    for (i, op) in spans.iter().enumerate().filter(|(_, s)| s.name == OP_SPAN) {
        let wall = op.end_ns - op.start_ns;
        let mut kids: Vec<&Span> = children
            .get(&i)
            .map(|v| v.iter().map(|&k| &spans[k]).collect())
            .unwrap_or_default();
        kids.sort_by_key(|s| s.start_ns);
        let mut cursor = op.start_ns;
        let mut claimed = 0u64;
        for k in &kids {
            if k.start_ns < cursor || k.end_ns > op.end_ns {
                return Err(format!(
                    "op {:?}: span {} at {}..{} leaves the op or overlaps a sibling",
                    op.op, k.name, k.start_ns, k.end_ns
                ));
            }
            cursor = k.end_ns;
            let d = k.end_ns - k.start_ns;
            claimed += d;
            *led.ops_ns.entry(k.name).or_default() += d;
        }
        // Children are disjoint and inside the op, so this cannot underflow.
        led.remainder_ns += wall - claimed;
        led.op_total_ns += wall;
    }
    Ok(led)
}
