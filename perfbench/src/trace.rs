//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer of the program
//! (name, layer, start, end, parent span and request id). They are kept
//! in memory and written out once, at exit. With tracing off — the
//! default, and how every end-to-end metric is measured — a span costs
//! one relaxed atomic load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The program layers spans are attributed to, in `BENCHMARK.json`
/// order. Spans of layer `request` (a queued job's submit → resolve)
/// cover time spent in other layers on other threads and have no self
/// time of their own to report.
pub const LAYERS: [&str; 10] = [
    "graph",
    "rayon",
    "mpc-runtime",
    "mpc_driver",
    "engine",
    "distance",
    "service",
    "shard",
    "queue",
    "loadgen",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    /// Program layer the wrapped call enters.
    pub layer: &'static str,
    /// The call (`run`, `query_batch`, `submit`, …).
    pub name: &'static str,
    /// Request id shared by the spans of one request (0 when none).
    pub request: u64,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    tracer().enabled.store(true, Ordering::Relaxed);
}

fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

fn since_origin(t: Instant) -> u64 {
    t.saturating_duration_since(tracer().origin).as_nanos() as u64
}

/// An open span; recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    open: Option<(u64, u64, &'static str, &'static str, u64, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((id, parent, layer, name, request, start)) = self.open.take() {
            let end = Instant::now();
            CURRENT.with(|c| c.set(parent));
            push(Span {
                id,
                parent,
                layer,
                name,
                request,
                start_ns: since_origin(start),
                end_ns: since_origin(end),
            });
        }
    }
}

fn push(span: Span) {
    tracer()
        .spans
        .lock()
        .expect("span buffer poisoned by a panicking recorder")
        .push(span);
}

/// Opens a span around a call into `layer`; spans opened on this thread
/// before it is dropped become its children.
pub fn span(layer: &'static str, name: &'static str, request: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    SpanGuard {
        open: Some((id, parent, layer, name, request, Instant::now())),
    }
}

/// Records a span whose endpoints were stamped elsewhere (a queued job's
/// submit → resolve, stamped on two different threads).
pub fn record(layer: &'static str, name: &'static str, request: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let id = tracer().next_id.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent: 0,
        layer,
        name,
        request,
        start_ns: since_origin(start),
        end_ns: since_origin(end),
    });
}

/// A snapshot of every span recorded so far, in id order.
pub fn spans() -> Vec<Span> {
    let mut v = tracer()
        .spans
        .lock()
        .expect("span buffer poisoned by a panicking recorder")
        .clone();
    v.sort_by_key(|s| s.id);
    v
}

/// Self time per layer, in milliseconds: each span's duration minus the
/// time its child spans cover.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s
            .end_ns
            .saturating_sub(s.start_ns)
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Writes the spans as tab-separated lines
/// (`id parent layer name request start_ns end_ns`).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tlayer\tname\trequest\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.layer, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                layer: "outer",
                name: "a",
                request: 0,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                id: 2,
                parent: 1,
                layer: "inner",
                name: "b",
                request: 0,
                start_ns: 2_000_000,
                end_ns: 6_000_000,
            },
        ];
        let st = self_ms_by_layer(&spans);
        assert_eq!(st["outer"], 6.0);
        assert_eq!(st["inner"], 4.0);
    }
}
