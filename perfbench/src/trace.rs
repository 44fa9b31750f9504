//! Spans recorded around the benchmark's calls into the program's layers.
//!
//! Tracing is off unless `--trace 1` is given; then every [`enter`] on the
//! calling thread records one span (name, start, end, parent span and
//! operation id, plus the ops and simulated cycles the call covered). Spans
//! stay in memory and are written out once, when the run ends. Per-op spans
//! ([`enter_detail`]) are recorded only while detail is on, which keeps a
//! per-call replay's memory bounded to one pass.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(false);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
    pub cycles: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns tracing on for the calling thread, with detail spans on.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
    ON.store(true, Ordering::Relaxed);
    DETAIL.store(true, Ordering::Relaxed);
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn set_detail(detail: bool) {
    DETAIL.store(detail, Ordering::Relaxed);
}

/// Closes an open span when dropped.
#[must_use = "dropping the guard closes the span"]
pub struct Guard(Option<u32>);

impl Guard {
    /// Records the operations and simulated cycles the span covered.
    pub fn count(&self, ops: u64, cycles: u64) {
        if let Some(id) = self.0 {
            with_span(id, |s| {
                s.ops += ops;
                s.cycles += cycles;
            });
        }
    }

    /// Renames the span once its outcome (say, cache hit or miss) is known.
    pub fn rename(&self, name: &'static str) {
        if let Some(id) = self.0 {
            with_span(id, |s| s.name = name);
        }
    }
}

fn with_span(id: u32, f: impl FnOnce(&mut Span)) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            f(&mut tracer.spans[id as usize]);
        }
    });
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            TRACER.with(|t| {
                if let Some(tracer) = t.borrow_mut().as_mut() {
                    let now = tracer.epoch.elapsed().as_nanos() as u64;
                    tracer.spans[id as usize].end_ns = now;
                    tracer.open.pop();
                }
            });
        }
    }
}

/// Opens a span named `name` for operation `op`.
pub fn enter(name: &'static str, op: u64) -> Guard {
    if !on() {
        return Guard(None);
    }
    TRACER.with(|t| {
        let mut slot = t.borrow_mut();
        let Some(tracer) = slot.as_mut() else {
            return Guard(None);
        };
        let id = u32::try_from(tracer.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = tracer.epoch.elapsed().as_nanos() as u64;
        tracer.spans.push(Span {
            name,
            parent: tracer.open.last().copied(),
            op,
            start_ns,
            end_ns: start_ns,
            ops: 0,
            cycles: 0,
        });
        tracer.open.push(id);
        Guard(Some(id))
    })
}

/// Like [`enter`], for a per-operation span: recorded only while detail is
/// on.
pub fn enter_detail(name: &'static str, op: u64) -> Guard {
    if DETAIL.load(Ordering::Relaxed) {
        enter(name, op)
    } else {
        Guard(None)
    }
}

/// Stops tracing and returns every recorded span, in start order.
pub fn finish() -> Vec<Span> {
    ON.store(false, Ordering::Relaxed);
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Writes spans as tab-separated lines: `id parent name op start_ns end_ns
/// ops cycles`, with `-` for a root span's parent.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\top\tstart_ns\tend_ns\tops\tcycles")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.op, s.start_ns, s.end_ns, s.ops, s.cycles
        )?;
    }
    out.flush()
}

/// Durations in ns of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}

/// Total duration (ns), ops and cycles of every span named `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0, 0), |(ns, ops, cycles), s| {
            (ns + s.ns(), ops + s.ops, cycles + s.cycles)
        })
}

/// Pauses recording (for a probe that times a whole pass as one span);
/// returns whether tracing was on.
pub fn suspend() -> bool {
    ON.swap(false, Ordering::Relaxed)
}

pub fn resume(was_on: bool) {
    ON.store(was_on, Ordering::Relaxed);
}
