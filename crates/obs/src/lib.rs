//! # mttkrp-obs
//!
//! One tracing + metrics spine for the whole MTTKRP workspace, from the
//! kernel to the serving layer — with no external dependencies (the
//! workspace builds offline, so no `tracing`/`prometheus`; this crate *is*
//! the core they would provide).
//!
//! Three pieces:
//!
//! 1. **Spans** ([`span()`], [`Span`]) — RAII wall-time intervals with ids,
//!    parents (a thread-local stack), and typed key/value fields. The
//!    planner, every kernel execution, each distributed collective, each
//!    serve request, and each CP-ALS sweep emit one.
//! 2. **Metrics** ([`MetricsRegistry`]) — counters, gauges, and log2-bucket
//!    histograms on per-thread cells. A registry can be owned (the serve layer
//!    keeps one per server) and every global helper ([`counter_add`],
//!    [`gauge_add`], [`histogram_record`]) also feeds the active capture.
//! 3. **Export** ([`Recording`], [`validate`]) — JSONL (one self-describing
//!    object per line) plus a human summary (span tree with self/total
//!    times, top metrics), and a [`DriftReport`] comparing the paper's
//!    *modeled* communication words (Eqs. 12/14/18 via `netsim`) against
//!    the words the transport *measured* — the model-vs-reality tripwire.
//!
//! ## The disabled fast path
//!
//! Tracing is **off by default**. Every emission helper first does one
//! relaxed atomic load and returns: no allocation, no locking, no clock
//! read. The `obs_overhead_gate` binary in `mttkrp-bench` asserts that a
//! kernel run with this crate compiled in but disabled is within noise of
//! a raw run, and a test in this crate asserts the disabled hot path
//! allocates nothing at all.
//!
//! ## Capturing
//!
//! ```
//! let cap = mttkrp_obs::capture();
//! {
//!     let _root = mttkrp_obs::span("request").with("kind", "demo");
//!     let _child = mttkrp_obs::span("kernel");
//!     mttkrp_obs::counter_add("demo.runs", 1);
//! }
//! let rec = cap.finish();
//! assert_eq!(rec.spans.len(), 2);
//! assert_eq!(rec.spans[1].parent, None);           // "request" is the root
//! assert_eq!(rec.spans[0].parent, Some(rec.spans[1].id)); // "kernel" nests
//! for line in rec.to_jsonl().lines() {
//!     mttkrp_obs::validate_line(line).unwrap();    // every line is schema-valid
//! }
//! ```
//!
//! [`capture`] installs a fresh global collector and returns a guard;
//! guards serialize (a process has one capture at a time), so concurrent
//! tests queue instead of corrupting each other's recordings.

#![deny(missing_docs)]

mod drift;
mod export;
mod flight;
pub mod json;
mod metrics;
pub mod span;

pub use drift::{DriftRecord, DriftReport};
pub use export::{
    merge_traces, metrics_summary, metrics_to_jsonl, parse_trace, tree_summary, Recording,
    SpanNode, Trace,
};
pub use flight::{
    flight_close, flight_from_jsonl, flight_snapshot, flight_to_jsonl, FlightRecord,
    FLIGHT_CAPACITY,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LabeledHistogram, MetricSnapshot, MetricValue,
    MetricsRegistry, MAX_LABELS_PER_FAMILY, OVERFLOW_LABEL,
};
pub use span::{current_span_id, FieldValue, Span, SpanRecord};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// Re-exported line validators of the trace format.
pub use export::{validate, validate_line};

// ---------------------------------------------------------------------------
// Cross-process trace identity
// ---------------------------------------------------------------------------

/// The identity a span tree carries across a process boundary: a 128-bit
/// trace id, the sending process's id, and the id of the span the remote
/// tree should hang under. Serialized as four u64 header words on both wire
/// codecs (see the dist `wire` module) and as a hex string on the CLI
/// (`--trace-context`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// High 64 bits of the 128-bit trace id.
    pub trace_hi: u64,
    /// Low 64 bits of the 128-bit trace id.
    pub trace_lo: u64,
    /// The sending process's id (see `proc_id`): span ids are only unique
    /// per process, so `parent_span` means nothing without this.
    pub proc: u64,
    /// The span (in the sending process's id namespace) the receiver's
    /// tree parents under. `0` when the sender had no open span.
    pub parent_span: u64,
}

impl TraceContext {
    /// The four wire words, in header order.
    pub fn to_words(self) -> [u64; 4] {
        [self.trace_hi, self.trace_lo, self.proc, self.parent_span]
    }

    /// Rebuilds a context from [`TraceContext::to_words`].
    pub fn from_words(w: [u64; 4]) -> TraceContext {
        TraceContext {
            trace_hi: w[0],
            trace_lo: w[1],
            proc: w[2],
            parent_span: w[3],
        }
    }

    /// The 128-bit trace id as 32 hex digits.
    fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }
}

impl std::fmt::Display for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{:016x}/{}",
            self.trace_hex(),
            self.proc,
            self.parent_span
        )
    }
}

/// This process's trace identity: a random-looking nonzero u64, stable for
/// the process lifetime. Span ids are only unique within one capture of one
/// process; the (proc, span-id) pair is what crosses the wire.
fn proc_id() -> u64 {
    static PROC_ID: OnceLock<u64> = OnceLock::new();
    *PROC_ID.get_or_init(|| mix64(0x70726f63 /* "proc" */))
}

/// A SplitMix64-style mixer over process id + wall clock + a salt — enough
/// entropy to make cross-process id collisions negligible without a PRNG
/// dependency.
fn mix64(salt: u64) -> u64 {
    let pid = std::process::id() as u64;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut x = pid
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(nanos)
        .wrapping_add(salt);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1 // nonzero
}

// ---------------------------------------------------------------------------
// Global capture state
// ---------------------------------------------------------------------------

/// The one-word gate every hot-path helper checks first. Relaxed is enough:
/// a capture that races with an emission may miss that one event, which is
/// exactly the semantics of "tracing was not yet on".
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The active collector, installed by [`capture`].
static COLLECTOR: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

/// Serializes captures: one recording at a time per process, so tests that
/// trace can run under the default multi-threaded harness without
/// interleaving each other's events.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// Whether a capture is active. The disabled branch is the hot path: one
/// relaxed atomic load, nothing else.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub(crate) struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
    /// The 128-bit trace id this capture mints (replaced when a remote
    /// context is adopted: then this process is part of the caller's trace).
    trace: Mutex<(u64, u64)>,
    /// The remote parent adopted for the whole capture, if any.
    remote: Mutex<Option<TraceContext>>,
}

impl Collector {
    fn new() -> Collector {
        // A per-capture salt so back-to-back captures on a coarse clock
        // still mint distinct trace ids.
        static CAPTURE_SALT: AtomicU64 = AtomicU64::new(0);
        let salt = CAPTURE_SALT.fetch_add(2, Ordering::Relaxed);
        Collector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
            trace: Mutex::new((mix64(salt ^ 0x7472), mix64(salt.wrapping_add(1) ^ 0x6c6f))),
            remote: Mutex::new(None),
        }
    }

    pub(crate) fn trace(&self) -> (u64, u64) {
        *self.trace.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn micros_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub(crate) fn push_span(&self, record: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn snapshot(&self) -> Recording {
        let spans = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Recording {
            spans,
            metrics: self.metrics.snapshot(),
            proc: proc_id(),
            trace: self.trace(),
            remote: *self.remote.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

pub(crate) fn current_collector() -> Option<Arc<Collector>> {
    COLLECTOR
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .cloned()
}

/// A live capture: tracing is enabled while this guard exists. Obtain one
/// with [`capture`]; turn it into the recorded data with
/// [`Capture::finish`] (or just drop it to discard the recording).
pub struct Capture {
    collector: Arc<Collector>,
    _serial: MutexGuard<'static, ()>,
}

/// Starts capturing: installs a fresh collector, enables every emission
/// helper, and returns the guard that owns the recording.
///
/// Captures serialize process-wide — a second concurrent `capture()` blocks
/// until the first guard drops — so traced tests compose under the default
/// parallel test harness.
pub fn capture() -> Capture {
    let serial = CAPTURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Arc::new(Collector::new());
    *COLLECTOR.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&collector));
    ENABLED.store(true, Ordering::SeqCst);
    Capture {
        collector,
        _serial: serial,
    }
}

fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *COLLECTOR.write().unwrap_or_else(|e| e.into_inner()) = None;
}

impl Capture {
    /// Stops capturing and returns everything recorded: spans in completion
    /// order plus a snapshot of every metric.
    pub fn finish(self) -> Recording {
        uninstall();
        self.collector.snapshot()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        uninstall();
    }
}

// ---------------------------------------------------------------------------
// Emission helpers (the instrumentation surface the other crates call)
// ---------------------------------------------------------------------------

/// Opens a span named `name`, parented under the current thread's innermost
/// open span. Returns a no-op guard (allocating nothing) when tracing is
/// disabled — check [`Span::is_active`] before computing expensive field
/// values.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::noop(name);
    }
    match current_collector() {
        Some(collector) => Span::enter(collector, name),
        None => Span::noop(name),
    }
}

/// The context an outgoing request should carry: the active trace id (the
/// capture's own, or the adopted/thread-local remote one), this process's
/// id, and the innermost open span on this thread as the parent. `None`
/// when tracing is disabled — callers simply send an untraced frame.
pub fn current_context() -> Option<TraceContext> {
    if !enabled() {
        return None;
    }
    let collector = current_collector()?;
    let (trace_hi, trace_lo) = span::current_trace_override()
        .or_else(|| {
            collector
                .remote
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .map(|r| (r.trace_hi, r.trace_lo))
        })
        .unwrap_or_else(|| collector.trace());
    Some(TraceContext {
        trace_hi,
        trace_lo,
        proc: proc_id(),
        parent_span: span::current_span_id().unwrap_or(0),
    })
}

/// Joins the active capture to a remote trace: the capture's meta line
/// records the remote (proc, span) pair and the whole recording switches to
/// the remote trace id, so [`merge_traces`] parents this process's root
/// spans under the remote span. Used by rank child processes, which receive
/// their context once at launch. No-op when tracing is disabled.
pub fn adopt_remote_context(ctx: TraceContext) {
    if !enabled() {
        return;
    }
    if let Some(collector) = current_collector() {
        *collector.trace.lock().unwrap_or_else(|e| e.into_inner()) = (ctx.trace_hi, ctx.trace_lo);
        *collector.remote.lock().unwrap_or_else(|e| e.into_inner()) = Some(ctx);
    }
}

/// Adds `v` to the capture's counter `name`. No-op (one atomic load) when
/// tracing is disabled.
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    if let Some(c) = current_collector() {
        c.metrics().counter_add(name, v);
    }
}

/// Adds `delta` (possibly negative) to the capture's gauge `name`. No-op
/// when tracing is disabled.
#[inline]
pub fn gauge_add(name: &str, delta: i64) {
    if !enabled() {
        return;
    }
    if let Some(c) = current_collector() {
        c.metrics().gauge_add(name, delta);
    }
}

/// Records `v` into the capture's histogram `name`. No-op when tracing is
/// disabled.
#[inline]
pub fn histogram_record(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    if let Some(c) = current_collector() {
        c.metrics().histogram_record(name, v);
    }
}

/// Records `v` into the capture's labeled histogram family
/// ([`MetricsRegistry::histogram_record_labeled`]): the composed metric
/// is `family{label}`, bounded at [`MAX_LABELS_PER_FAMILY`] labels per
/// family. No-op when tracing is disabled.
#[inline]
pub fn histogram_record_labeled(family: &str, label: &str, v: u64) {
    if !enabled() {
        return;
    }
    if let Some(c) = current_collector() {
        c.metrics().histogram_record_labeled(family, label, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_spans_are_inert() {
        assert!(!enabled());
        let s = span("nothing");
        assert!(!s.is_active());
        counter_add("nothing.count", 1);
        let rec = capture().finish();
        assert!(rec.spans.is_empty());
        assert!(rec.metrics.is_empty());
    }

    #[test]
    fn capture_records_spans_and_metrics() {
        let cap = capture();
        assert!(enabled());
        {
            let _root = span("request").with("kind", "test");
            {
                let mut child = span("kernel");
                child.record("mode", 2u64);
                counter_add("runs", 3);
                histogram_record("lat_us", 7);
            }
            gauge_add("depth", 5);
            gauge_add("depth", -2);
        }
        let rec = cap.finish();
        assert!(!enabled());
        // Spans complete child-first.
        assert_eq!(rec.spans[0].name, "kernel");
        assert_eq!(rec.spans[1].name, "request");
        assert_eq!(rec.spans[0].parent, Some(rec.spans[1].id));
        assert_eq!(rec.spans[1].parent, None);
        let names: Vec<_> = rec.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["depth", "lat_us", "runs"]); // sorted
    }

    #[test]
    fn sequential_captures_are_isolated() {
        let first = {
            let cap = capture();
            counter_add("x", 1);
            cap.finish()
        };
        let second = {
            let cap = capture();
            {
                let _s = span("fresh");
            }
            cap.finish()
        };
        assert_eq!(first.metrics.len(), 1);
        assert!(first.spans.is_empty());
        assert!(second.metrics.is_empty());
        assert_eq!(second.spans.len(), 1);
    }

    #[test]
    fn dropped_capture_disables_tracing() {
        {
            let _cap = capture();
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn trace_context_display_roundtrips() {
        let ctx = TraceContext {
            trace_hi: 0xdead_beef_0000_0001,
            trace_lo: 2,
            proc: proc_id(),
            parent_span: 42,
        };
        assert_eq!(TraceContext::from_words(ctx.to_words()), ctx);
        let want = format!("deadbeef000000010000000000000002/{:016x}/42", proc_id());
        assert_eq!(ctx.to_string(), want);
    }

    #[test]
    fn current_context_tracks_span_stack_and_adoption() {
        assert_eq!(current_context(), None, "no context when disabled");
        let cap = capture();
        let outside = current_context().unwrap();
        assert_eq!(outside.parent_span, 0, "no open span yet");
        assert_eq!(outside.proc, proc_id());
        let (root_ctx, adopted_ctx) = {
            let root = span("request");
            let root_id = root.id().unwrap();
            let ctx = current_context().unwrap();
            assert_eq!(ctx.parent_span, root_id);
            assert_eq!(
                (ctx.trace_hi, ctx.trace_lo),
                (outside.trace_hi, outside.trace_lo)
            );
            // Adopting a remote context switches this thread's trace id.
            let mut inner = span("net.request");
            inner.adopt(TraceContext {
                trace_hi: 0xaaaa,
                trace_lo: 0xbbbb,
                proc: 0xcccc,
                parent_span: 9,
            });
            let adopted = current_context().unwrap();
            assert_eq!((adopted.trace_hi, adopted.trace_lo), (0xaaaa, 0xbbbb));
            assert_eq!(adopted.parent_span, inner.id().unwrap());
            drop(inner);
            // The override dies with the adopting span.
            let restored = current_context().unwrap();
            assert_eq!(
                (restored.trace_hi, restored.trace_lo),
                (outside.trace_hi, outside.trace_lo)
            );
            (ctx, adopted)
        };
        let rec = cap.finish();
        let req = rec.spans.iter().find(|s| s.name == "net.request").unwrap();
        assert_eq!(req.id, adopted_ctx.parent_span);
        assert!(req
            .fields
            .iter()
            .any(|(k, v)| *k == "remote_span" && *v == FieldValue::U64(9)));
        assert_eq!(
            rec.spans
                .iter()
                .filter(|s| s.id == root_ctx.parent_span)
                .count(),
            1
        );
    }
}
