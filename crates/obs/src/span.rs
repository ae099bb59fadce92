//! Spans: RAII wall-time intervals with ids, parents, and typed fields.
//!
//! Parenting is a thread-local stack: a span opened while another span is
//! open on the *same thread* becomes its child. Worker threads that open a
//! span with no enclosing one produce a root — which is exactly how the
//! serve layer models "one root span per request".

use crate::{flight, Collector, TraceContext};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed span-field value (the JSONL exporter maps each variant onto the
/// corresponding JSON type).
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, word totals, ids).
    U64(u64),
    /// Signed integer (deltas, gauges).
    I64(i64),
    /// Float (modeled costs, fits).
    F64(f64),
    /// Boolean (cache hit, converged).
    Bool(bool),
    /// Text (algorithm labels, phase names, backend names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One completed span, as stored in a [`Recording`](crate::Recording).
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Capture-unique id (monotonically assigned, starting at 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread, `None` for a root.
    pub parent: Option<u64>,
    /// Static span name (`"planner"`, `"kernel"`, `"collective"`,
    /// `"request"`, `"factorize"`, `"sweep"`, `"mode"`).
    pub(crate) name: &'static str,
    /// Small per-process thread ordinal (1-based, assigned on first use).
    pub(crate) thread: u64,
    /// Microseconds from the capture's start to the span's open.
    pub(crate) start_us: u64,
    /// Span duration in microseconds.
    pub(crate) dur_us: u64,
    /// Typed key/value fields, in recording order.
    pub(crate) fields: Vec<(&'static str, FieldValue)>,
}

/// Per-process thread ordinals: small and stable for a trace, unlike the
/// opaque [`std::thread::ThreadId`].
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORDINAL: Cell<u64> = const { Cell::new(0) };
    /// Ids of this thread's open spans, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Trace-id override installed by [`Span::adopt`]: spans (and outgoing
    /// contexts) on this thread belong to the adopted remote trace until
    /// the adopting span closes.
    static CURRENT_TRACE: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

pub(crate) fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|c| {
        let mut t = c.get();
        if t == 0 {
            t = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(t);
        }
        t
    })
}

/// The innermost open span id on this thread (the parent a new span or an
/// outgoing [`TraceContext`] would get), if any.
pub fn current_span_id() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// The trace-id override installed by [`Span::adopt`] on this thread.
pub(crate) fn current_trace_override() -> Option<(u64, u64)> {
    CURRENT_TRACE.with(|c| c.get())
}

struct ActiveSpan {
    collector: Arc<Collector>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
    /// `Some(previous)` when this span installed a trace override via
    /// [`Span::adopt`]; restored on drop.
    trace_restore: Option<Option<(u64, u64)>>,
}

/// An open span: closes (and records itself) on drop. Obtained from
/// [`crate::span()`]. When tracing is disabled the span is inert —
/// allocating and recording nothing — except that its close still deposits
/// one fixed-size event into the always-on flight recorder
/// (see [`crate::flight_snapshot`]): an inert span reads the clock once
/// when it opens and once when it closes, and the close reading gives both
/// its duration and its end on the flight timebase.
pub struct Span {
    inner: Option<ActiveSpan>,
    /// Set when inert: just enough to feed the flight recorder on drop.
    flight: Option<(&'static str, Instant)>,
}

impl Span {
    pub(crate) fn noop(name: &'static str) -> Span {
        Span {
            inner: None,
            flight: Some((name, Instant::now())),
        }
    }

    pub(crate) fn enter(collector: Arc<Collector>, name: &'static str) -> Span {
        let id = collector.next_id();
        let parent = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        let start_us = collector.micros_since_epoch();
        Span {
            inner: Some(ActiveSpan {
                collector,
                id,
                parent,
                name,
                start: Instant::now(),
                start_us,
                fields: Vec::new(),
                trace_restore: None,
            }),
            flight: None,
        }
    }

    /// Whether this span is actually recording. Check before computing
    /// expensive field values (e.g. formatted labels).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, if recording (for tests and cross-references).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|a| a.id)
    }

    /// Records a key/value field. No-op when inert.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(active) = self.inner.as_mut() {
            active.fields.push((key, value.into()));
        }
    }

    /// Builder-style [`Span::record`].
    pub fn with(mut self, key: &'static str, value: impl Into<FieldValue>) -> Span {
        self.record(key, value);
        self
    }

    /// Adopts a remote parent: records the remote trace/proc/span as fields
    /// (`remote_trace`/`remote_proc` as hex strings — they do not fit JSON's
    /// f64 numbers exactly — and `remote_span` as an id), and switches this
    /// thread onto the remote trace id until this span closes. The trace
    /// merger ([`crate::merge_traces`]) re-parents this span under the
    /// remote span. No-op when inert.
    pub fn adopt(&mut self, ctx: TraceContext) {
        let Some(active) = self.inner.as_mut() else {
            return;
        };
        active.fields.push((
            "remote_trace",
            FieldValue::Str(format!("{:016x}{:016x}", ctx.trace_hi, ctx.trace_lo)),
        ));
        active
            .fields
            .push(("remote_proc", FieldValue::Str(format!("{:016x}", ctx.proc))));
        active
            .fields
            .push(("remote_span", FieldValue::U64(ctx.parent_span)));
        let prev = CURRENT_TRACE.with(|c| c.replace(Some((ctx.trace_hi, ctx.trace_lo))));
        if active.trace_restore.is_none() {
            active.trace_restore = Some(prev);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            // Inert span: the only close-time work is the flight deposit.
            if let Some((name, start)) = self.flight.take() {
                let end = Instant::now();
                let dur_us = (end - start).as_micros() as u64;
                flight::push(name, thread_ordinal(), flight::process_micros(end), dur_us);
            }
            return;
        };
        let end = Instant::now();
        let dur_us = (end - active.start).as_micros() as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Almost always the innermost; tolerate out-of-order drops
            // (e.g. a guard moved across scopes) by removing wherever it is.
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        if let Some(prev) = active.trace_restore {
            CURRENT_TRACE.with(|c| c.set(prev));
        }
        let thread = thread_ordinal();
        flight::push(active.name, thread, flight::process_micros(end), dur_us);
        active.collector.push_span(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            thread,
            start_us: active.start_us,
            dur_us,
            fields: active.fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::{capture, span};

    #[test]
    fn parents_follow_the_thread_local_stack() {
        let cap = capture();
        let root_id;
        {
            let root = span("request");
            root_id = root.id().unwrap();
            {
                let _a = span("sweep");
                let _b = span("mode");
            }
            let _c = span("sweep");
        }
        let rec = cap.finish();
        let by_name = |n: &str| rec.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("request").parent, None);
        assert_eq!(by_name("mode").parent, Some(by_name("sweep").id));
        assert_eq!(by_name("sweep").parent, Some(root_id));
        // Both sweeps share the root parent.
        for s in rec.spans.iter().filter(|s| s.name == "sweep") {
            assert_eq!(s.parent, Some(root_id));
        }
    }

    #[test]
    fn spans_on_spawned_threads_are_roots() {
        let cap = capture();
        let _main_root = span("request");
        std::thread::spawn(|| {
            let _worker = span("kernel");
        })
        .join()
        .unwrap();
        drop(_main_root);
        let rec = cap.finish();
        let kernel = rec.spans.iter().find(|s| s.name == "kernel").unwrap();
        let request = rec.spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(kernel.parent, None, "other thread, no inherited parent");
        assert_ne!(kernel.thread, request.thread);
    }

    #[test]
    fn concurrent_emission_keeps_every_parent_consistent() {
        // N threads each build a 3-deep chain; interleaving must corrupt
        // neither ids (all unique) nor parent links (each chain intact).
        let cap = capture();
        let threads = 8;
        let chains = 25;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..chains {
                        let outer = span("request");
                        let outer_id = outer.id().unwrap();
                        let mid = span("sweep");
                        assert_eq!(mid.inner.as_ref().unwrap().parent, Some(outer_id));
                        let _inner = span("mode");
                    }
                });
            }
        });
        let rec = cap.finish();
        assert_eq!(rec.spans.len(), threads * chains * 3);
        let mut ids: Vec<u64> = rec.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), threads * chains * 3, "span ids must be unique");
        for s in &rec.spans {
            if let Some(p) = s.parent {
                let parent = rec.spans.iter().find(|t| t.id == p).unwrap();
                assert_eq!(
                    parent.thread, s.thread,
                    "stack parenting is per-thread, so parents share the thread"
                );
                assert!(parent.start_us <= s.start_us + 1);
            } else {
                assert_eq!(s.name, "request", "only chain heads are roots");
            }
        }
    }

    #[test]
    fn fields_are_typed_and_ordered() {
        let cap = capture();
        {
            let mut s = span("planner").with("algorithm", "alg2(b=16)");
            s.record("cache_hit", false);
            s.record("modeled_words", 123.5f64);
            s.record("candidates", 3usize);
        }
        let rec = cap.finish();
        let fields = &rec.spans[0].fields;
        assert_eq!(fields[0].0, "algorithm");
        assert_eq!(fields[1].1, crate::FieldValue::Bool(false));
        assert_eq!(fields[3].1, crate::FieldValue::U64(3));
    }
}
