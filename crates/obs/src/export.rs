//! Export: JSONL out, JSONL back in, schema validation, and the human
//! summaries (span tree with self/total times, metric table).
//!
//! ## The JSONL schema
//!
//! One self-describing object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"meta","version":1,"spans":N,"metrics":N,
//!  "proc":H16,"trace":H32,["remote_proc":H16,"remote_span":N]}
//! {"type":"span","id":N,"parent":N|null,"name":S,"thread":N,
//!  "start_us":N,"dur_us":N,"fields":{...}}
//! {"type":"counter","name":S,"value":N}
//! {"type":"gauge","name":S,"value":N}
//! {"type":"histogram","name":S,"count":N,"sum":N,"min":N,"max":N,
//!  "buckets":[N;65]}
//! ```
//!
//! Field values are JSON numbers/booleans/strings; a non-finite float is
//! written as `null`. `H16`/`H32` are 16/32-digit hex *strings*: process
//! and trace ids use all 64/128 bits, which JSON's f64 numbers cannot
//! carry exactly. [`validate_line`] checks exactly this shape and is what
//! CI runs over every emitted line.
//!
//! ## Concatenated multi-process traces
//!
//! [`parse_trace`] accepts several JSONL streams concatenated into one
//! text (what `mttkrp_cli report --merge` feeds it): every `meta` line
//! starts a new *segment* with its own span-id namespace. Ids are
//! re-based per segment (duplicate raw ids across processes are expected,
//! not a schema error), and the segments are stitched into one tree:
//! a segment whose meta carries `remote_proc`/`remote_span` hangs its
//! roots under that span, and any span with `remote_proc`/`remote_span`
//! *fields* (a serve request span) is re-parented the same way.

use crate::json::{self, JsonValue};
use crate::metrics::{HistogramSnapshot, MetricSnapshot, MetricValue, HISTOGRAM_BUCKETS};
use crate::span::{FieldValue, SpanRecord};
use crate::TraceContext;
use std::collections::{BTreeMap, HashMap};

/// Everything one capture recorded: spans in completion order plus a final
/// metrics snapshot. Produced by [`crate::Capture::finish`].
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Completed spans, in the order they closed.
    pub spans: Vec<SpanRecord>,
    /// Final metric values, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
    /// The recording process's id ([`crate::proc_id`]; 0 in hand-built
    /// recordings).
    pub(crate) proc: u64,
    /// The 128-bit trace id (hi, lo) this capture belongs to.
    pub(crate) trace: (u64, u64),
    /// The remote parent adopted via [`crate::adopt_remote_context`], if
    /// any: this recording's roots belong under that (proc, span).
    pub(crate) remote: Option<TraceContext>,
}

impl Recording {
    /// Serializes the recording to JSONL (meta line first, then spans, then
    /// metrics). Every produced line passes [`validate_line`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let remote = match &self.remote {
            Some(r) => format!(
                ",\"remote_proc\":\"{:016x}\",\"remote_span\":{}",
                r.proc, r.parent_span
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"version\":1,\"spans\":{},\"metrics\":{},\"proc\":\"{:016x}\",\"trace\":\"{:016x}{:016x}\"{remote}}}\n",
            self.spans.len(),
            self.metrics.len(),
            self.proc,
            self.trace.0,
            self.trace.1,
        ));
        for s in &self.spans {
            out.push_str(&span_line(s));
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&metric_line(m));
            out.push('\n');
        }
        out
    }

    /// Writes [`Recording::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// The spans as owned [`SpanNode`]s (the form the tree/drift helpers
    /// consume, shared with traces re-read from disk).
    pub fn nodes(&self) -> Vec<SpanNode> {
        self.spans.iter().map(SpanNode::from_record).collect()
    }

    /// A human summary: the span tree followed by every metric.
    pub fn summary(&self) -> String {
        let mut out = tree_summary(&self.nodes());
        if !self.metrics.is_empty() {
            out.push('\n');
            out.push_str(&metrics_summary(&self.metrics, usize::MAX));
        }
        out
    }
}

/// One span in parsed/owned form: what [`Recording::nodes`] yields and what
/// [`parse_trace`] reconstructs from a JSONL file. The tree and drift
/// helpers operate on these.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Capture-unique id.
    pub id: u64,
    /// Enclosing span's id, `None` for a root.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Thread ordinal.
    pub thread: u64,
    /// Microseconds from capture start to open.
    pub(crate) start_us: u64,
    /// Duration in microseconds.
    pub(crate) dur_us: u64,
    /// Typed fields, in recording order.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanNode {
    fn from_record(r: &SpanRecord) -> SpanNode {
        SpanNode {
            id: r.id,
            parent: r.parent,
            name: r.name.to_string(),
            thread: r.thread,
            start_us: r.start_us,
            dur_us: r.dur_us,
            fields: r
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// First field named `key`, if any.
    fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field `key` as a float (numbers of any variant coerce).
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Field `key` as an unsigned integer.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Field `key` as a string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Identity of one per-process segment of a (possibly concatenated) JSONL
/// trace — one entry per `meta` line seen by [`parse_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSegment {
    /// The segment's process id (0 for traces written before the ops
    /// plane, which carried no identity).
    pub(crate) proc: u64,
    /// The 128-bit trace id as 32 hex digits (empty when absent).
    pub trace: String,
    /// The remote `(proc, span)` this segment's roots hang under, if its
    /// meta line adopted one.
    pub(crate) remote: Option<(u64, u64)>,
    /// How many spans the segment contributed.
    spans: usize,
}

/// A trace re-read from JSONL: the file-side mirror of a [`Recording`].
/// For concatenated multi-process input, span ids have been re-based and
/// cross-process parent links resolved (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Spans, in file order, with ids unique across all segments.
    pub spans: Vec<SpanNode>,
    /// Metrics, in file order (concatenated input: all segments' metrics).
    pub metrics: Vec<MetricSnapshot>,
    /// One entry per `meta` line (empty for meta-less fragments).
    pub segments: Vec<TraceSegment>,
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn field_value_json(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) => json::number(*v),
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::Str(s) => format!("\"{}\"", json::escape(s)),
    }
}

fn span_line(s: &SpanRecord) -> String {
    let parent = match s.parent {
        Some(p) => p.to_string(),
        None => "null".to_string(),
    };
    let fields: Vec<String> = s
        .fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json::escape(k), field_value_json(v)))
        .collect();
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"dur_us\":{},\"fields\":{{{}}}}}",
        s.id,
        parent,
        json::escape(s.name),
        s.thread,
        s.start_us,
        s.dur_us,
        fields.join(",")
    )
}

/// Serializes metric snapshots as schema-valid JSONL (one
/// counter/gauge/histogram object per line) — the `STATS` scrape payload.
/// Parse back with [`parse_trace`].
pub fn metrics_to_jsonl(metrics: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&metric_line(m));
        out.push('\n');
    }
    out
}

fn metric_line(m: &MetricSnapshot) -> String {
    let name = json::escape(&m.name);
    match &m.value {
        MetricValue::Counter(v) => {
            format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}")
        }
        MetricValue::Gauge(v) => {
            format!("{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{v}}}")
        }
        MetricValue::Histogram(h) => {
            let buckets: Vec<String> = h.buckets.iter().map(|b| b.to_string()).collect();
            format!(
                "{{\"type\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(",")
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Validation + parse-back
// ---------------------------------------------------------------------------

fn need_u64(v: &JsonValue, what: &str) -> Result<u64, String> {
    v.get(what)
        .ok_or_else(|| format!("missing \"{what}\""))?
        .as_u64()
        .ok_or_else(|| format!("\"{what}\" must be a non-negative integer"))
}

fn need_str<'a>(v: &'a JsonValue, what: &str) -> Result<&'a str, String> {
    v.get(what)
        .ok_or_else(|| format!("missing \"{what}\""))?
        .as_str()
        .ok_or_else(|| format!("\"{what}\" must be a string"))
}

/// Validates one JSONL line against the trace schema. `Ok(())` when the
/// line is a well-formed meta/span/counter/gauge/histogram object.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    if v.as_object().is_none() {
        return Err("line is not a JSON object".to_string());
    }
    match need_str(&v, "type")? {
        "meta" => {
            need_u64(&v, "version")?;
            // Identity fields are optional (pre-ops-plane traces lack
            // them) but must be well-formed hex strings when present.
            for (key, digits) in [("proc", 16), ("trace", 32)] {
                if let Some(value) = v.get(key) {
                    let s = value
                        .as_str()
                        .ok_or_else(|| format!("\"{key}\" must be a hex string"))?;
                    if s.len() != digits || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(format!("\"{key}\" must be {digits} hex digits"));
                    }
                }
            }
            if let Some(value) = v.get("remote_proc") {
                let s = value
                    .as_str()
                    .ok_or("\"remote_proc\" must be a hex string")?;
                if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err("\"remote_proc\" must be 16 hex digits".to_string());
                }
                need_u64(&v, "remote_span")?;
            }
            Ok(())
        }
        "span" => {
            let id = need_u64(&v, "id")?;
            if id == 0 {
                return Err("span ids start at 1".to_string());
            }
            match v.get("parent") {
                Some(JsonValue::Null) => {}
                Some(p) => {
                    p.as_u64().ok_or("\"parent\" must be null or an id")?;
                }
                None => return Err("missing \"parent\"".to_string()),
            }
            if need_str(&v, "name")?.is_empty() {
                return Err("span name must be non-empty".to_string());
            }
            need_u64(&v, "thread")?;
            need_u64(&v, "start_us")?;
            need_u64(&v, "dur_us")?;
            let fields = v.get("fields").ok_or("missing \"fields\"")?;
            let members = fields.as_object().ok_or("\"fields\" must be an object")?;
            for (key, value) in members {
                match value {
                    JsonValue::Null
                    | JsonValue::Bool(_)
                    | JsonValue::Number(_)
                    | JsonValue::String(_) => {}
                    _ => return Err(format!("field \"{key}\" must be scalar or null")),
                }
            }
            Ok(())
        }
        "counter" => {
            need_str(&v, "name")?;
            need_u64(&v, "value")?;
            Ok(())
        }
        "gauge" => {
            need_str(&v, "name")?;
            let value = v.get("value").ok_or("missing \"value\"")?;
            match value.as_f64() {
                Some(n) if n.fract() == 0.0 => Ok(()),
                _ => Err("gauge \"value\" must be an integer".to_string()),
            }
        }
        "histogram" => {
            need_str(&v, "name")?;
            need_u64(&v, "count")?;
            need_u64(&v, "sum")?;
            need_u64(&v, "min")?;
            need_u64(&v, "max")?;
            let buckets = v
                .get("buckets")
                .ok_or("missing \"buckets\"")?
                .as_array()
                .ok_or("\"buckets\" must be an array")?;
            if buckets.len() != HISTOGRAM_BUCKETS {
                return Err(format!(
                    "\"buckets\" must have {HISTOGRAM_BUCKETS} entries, got {}",
                    buckets.len()
                ));
            }
            for b in buckets {
                b.as_u64()
                    .ok_or("bucket counts must be non-negative integers")?;
            }
            Ok(())
        }
        other => Err(format!("unknown line type \"{other}\"")),
    }
}

/// Validates every non-empty line of a JSONL document; returns how many
/// lines were checked, or the first failure annotated with its line number.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut checked = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        checked += 1;
    }
    Ok(checked)
}

fn field_from_json(v: &JsonValue) -> FieldValue {
    match v {
        JsonValue::Bool(b) => FieldValue::Bool(*b),
        JsonValue::String(s) => FieldValue::Str(s.clone()),
        JsonValue::Null => FieldValue::F64(f64::NAN),
        JsonValue::Number(n) => {
            if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 {
                FieldValue::U64(*n as u64)
            } else if n.fract() == 0.0 && *n < 0.0 && *n >= i64::MIN as f64 {
                FieldValue::I64(*n as i64)
            } else {
                FieldValue::F64(*n)
            }
        }
        _ => FieldValue::F64(f64::NAN),
    }
}

/// Parses a JSONL trace (as written by [`Recording::to_jsonl`]) back into
/// spans and metrics, validating each line along the way.
///
/// Accepts *concatenated* multi-process streams: every `meta` line opens a
/// new segment whose span ids are re-based to stay unique, and remote
/// parent declarations (meta `remote_proc`/`remote_span`, or the same pair
/// as span fields) are resolved into real parent links — so the result is
/// one well-formed tree even when the raw files reuse ids.
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    struct Seg {
        meta: Option<TraceSegment>,
        base: u64,
        span_start: usize,
    }
    let mut trace = Trace::default();
    let mut segs: Vec<Seg> = vec![Seg {
        meta: None,
        base: 0,
        span_start: 0,
    }];
    // Highest raw id (or parent reference) seen in the current segment:
    // the next segment's ids are shifted past it.
    let mut max_raw: u64 = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", i + 1);
        validate_line(line).map_err(fail)?;
        let v = json::parse(line).map_err(fail)?;
        match v.get("type").and_then(|t| t.as_str()) {
            Some("meta") => {
                let hex = |key: &str| {
                    v.get(key)
                        .and_then(|s| s.as_str())
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                };
                let base = segs.last().unwrap().base + max_raw;
                max_raw = 0;
                let remote = hex("remote_proc").map(|p| {
                    (
                        p,
                        v.get("remote_span").and_then(|s| s.as_u64()).unwrap_or(0),
                    )
                });
                segs.push(Seg {
                    meta: Some(TraceSegment {
                        proc: hex("proc").unwrap_or(0),
                        trace: v
                            .get("trace")
                            .and_then(|s| s.as_str())
                            .unwrap_or("")
                            .to_string(),
                        remote,
                        spans: 0,
                    }),
                    base,
                    span_start: trace.spans.len(),
                });
            }
            Some("span") => {
                let base = segs.last().unwrap().base;
                let fields = v
                    .get("fields")
                    .and_then(|f| f.as_object())
                    .unwrap_or(&[])
                    .iter()
                    .map(|(k, fv)| (k.clone(), field_from_json(fv)))
                    .collect();
                let raw_id = need_u64(&v, "id").map_err(fail)?;
                let raw_parent = v.get("parent").and_then(|p| p.as_u64());
                max_raw = max_raw.max(raw_id).max(raw_parent.unwrap_or(0));
                trace.spans.push(SpanNode {
                    id: raw_id + base,
                    parent: raw_parent.map(|p| p + base),
                    name: need_str(&v, "name").map_err(fail)?.to_string(),
                    thread: need_u64(&v, "thread").map_err(fail)?,
                    start_us: need_u64(&v, "start_us").map_err(fail)?,
                    dur_us: need_u64(&v, "dur_us").map_err(fail)?,
                    fields,
                });
            }
            Some("counter") => trace.metrics.push(MetricSnapshot {
                name: need_str(&v, "name").map_err(fail)?.to_string(),
                value: MetricValue::Counter(need_u64(&v, "value").map_err(fail)?),
            }),
            Some("gauge") => trace.metrics.push(MetricSnapshot {
                name: need_str(&v, "name").map_err(fail)?.to_string(),
                value: MetricValue::Gauge(
                    v.get("value").and_then(|n| n.as_f64()).unwrap_or(0.0) as i64
                ),
            }),
            Some("histogram") => {
                let buckets = v
                    .get("buckets")
                    .and_then(|b| b.as_array())
                    .unwrap_or(&[])
                    .iter()
                    .map(|b| b.as_u64().unwrap_or(0))
                    .collect();
                trace.metrics.push(MetricSnapshot {
                    name: need_str(&v, "name").map_err(fail)?.to_string(),
                    value: MetricValue::Histogram(HistogramSnapshot {
                        count: need_u64(&v, "count").map_err(fail)?,
                        sum: need_u64(&v, "sum").map_err(fail)?,
                        min: need_u64(&v, "min").map_err(fail)?,
                        max: need_u64(&v, "max").map_err(fail)?,
                        buckets,
                    }),
                });
            }
            _ => {}
        }
    }
    // Where does each process's id namespace start? First segment claiming
    // a proc id wins (collisions across 64 random bits are negligible).
    let mut proc_base: HashMap<u64, u64> = HashMap::new();
    for seg in &segs {
        if let Some(meta) = &seg.meta {
            if meta.proc != 0 {
                proc_base.entry(meta.proc).or_insert(seg.base);
            }
        }
    }
    // Segment-level stitching: a segment that adopted a remote context
    // hangs all its roots under the remote span.
    let total = trace.spans.len();
    for (si, seg) in segs.iter().enumerate() {
        let end = segs.get(si + 1).map(|s| s.span_start).unwrap_or(total);
        let Some((rproc, rspan)) = seg.meta.as_ref().and_then(|m| m.remote) else {
            continue;
        };
        if rspan == 0 {
            continue;
        }
        if let Some(&tbase) = proc_base.get(&rproc) {
            for s in &mut trace.spans[seg.span_start..end] {
                if s.parent.is_none() {
                    s.parent = Some(rspan + tbase);
                }
            }
        }
    }
    // Span-level stitching: a span carrying remote_proc/remote_span fields
    // (a serve request span) re-parents under that remote span.
    let mut relinks = Vec::new();
    for (idx, s) in trace.spans.iter().enumerate() {
        let (Some(rproc), Some(rspan)) = (s.field_str("remote_proc"), s.field_u64("remote_span"))
        else {
            continue;
        };
        if rspan == 0 {
            continue;
        }
        if let Ok(p) = u64::from_str_radix(rproc, 16) {
            if let Some(&tbase) = proc_base.get(&p) {
                relinks.push((idx, rspan + tbase));
            }
        }
    }
    for (idx, parent) in relinks {
        trace.spans[idx].parent = Some(parent);
    }
    // Record the per-meta segments (span counts from the recorded starts).
    let starts: Vec<usize> = segs.iter().map(|s| s.span_start).collect();
    for (si, seg) in segs.into_iter().enumerate() {
        if let Some(mut meta) = seg.meta {
            let end = starts.get(si + 1).copied().unwrap_or(total);
            meta.spans = end - seg.span_start;
            trace.segments.push(meta);
        }
    }
    Ok(trace)
}

/// Stitches several per-process JSONL streams (client, server, rank
/// children) into one parsed trace: concatenation plus the segment-aware
/// [`parse_trace`]. The result is one span tree per trace id, with remote
/// parent links resolved across processes.
pub fn merge_traces<S: AsRef<str>>(texts: &[S]) -> Result<Trace, String> {
    let mut joined = String::new();
    for t in texts {
        joined.push_str(t.as_ref());
        if !joined.ends_with('\n') {
            joined.push('\n');
        }
    }
    parse_trace(&joined)
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Renders the span tree aggregated by name-path: one row per distinct
/// root→…→name path, with occurrence count, total time, and self time
/// (total minus direct children). Spans with the same path — e.g. eight
/// worker-thread `request` roots — aggregate into one row.
pub fn tree_summary(nodes: &[SpanNode]) -> String {
    let by_id: HashMap<u64, &SpanNode> = nodes.iter().map(|n| (n.id, n)).collect();
    let mut child_dur: HashMap<u64, u64> = HashMap::new();
    for n in nodes {
        if let Some(p) = n.parent {
            if by_id.contains_key(&p) {
                *child_dur.entry(p).or_default() += n.dur_us;
            }
        }
    }
    // (count, total_us, self_us), keyed by the name path from the root.
    // BTreeMap order puts each parent path directly above its children.
    let mut agg: BTreeMap<Vec<&str>, (u64, u64, u64)> = BTreeMap::new();
    for n in nodes {
        let mut path = vec![n.name.as_str()];
        let mut cur = n.parent;
        while let Some(pid) = cur {
            match by_id.get(&pid) {
                Some(p) => {
                    path.push(p.name.as_str());
                    cur = p.parent;
                }
                None => break, // parent never closed: treat as root
            }
        }
        path.reverse();
        let self_us = n
            .dur_us
            .saturating_sub(child_dur.get(&n.id).copied().unwrap_or(0));
        let slot = agg.entry(path).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += n.dur_us;
        slot.2 += self_us;
    }
    let mut out = format!(
        "{:<44} {:>7} {:>10} {:>10}\n",
        "span", "count", "total", "self"
    );
    if agg.is_empty() {
        out.push_str("  (no spans recorded)\n");
        return out;
    }
    for (path, (count, total, self_us)) in &agg {
        let label = format!(
            "{}{}",
            "  ".repeat(path.len().saturating_sub(1)),
            path.last().copied().unwrap_or("?")
        );
        out.push_str(&format!(
            "{label:<44} {count:>7} {:>10} {:>10}\n",
            fmt_us(*total),
            fmt_us(*self_us)
        ));
    }
    out
}

/// Renders up to `top` metrics (they arrive sorted by name): counters and
/// gauges as single values, histograms with count/mean/p50/p99/max.
pub fn metrics_summary(metrics: &[MetricSnapshot], top: usize) -> String {
    let mut out = String::from("metric\n");
    if metrics.is_empty() {
        out.push_str("  (no metrics recorded)\n");
        return out;
    }
    for m in metrics.iter().take(top) {
        match &m.value {
            MetricValue::Counter(v) => out.push_str(&format!("  {:<42} {v}\n", m.name)),
            MetricValue::Gauge(v) => out.push_str(&format!("  {:<42} {v} (gauge)\n", m.name)),
            MetricValue::Histogram(h) => out.push_str(&format!(
                "  {:<42} count={} mean={:.1} p50={} p99={} max={}\n",
                m.name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max
            )),
        }
    }
    if metrics.len() > top {
        out.push_str(&format!("  … {} more\n", metrics.len() - top));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{capture, counter_add, gauge_add, histogram_record, span};

    fn sample_recording() -> Recording {
        let cap = capture();
        {
            let _root = span("request").with("kind", "test").with("w", 1.5f64);
            {
                let _child = span("kernel").with("backend", "native");
            }
            counter_add("runs", 2);
            gauge_add("depth", -1);
            histogram_record("lat_us", 300);
        }
        cap.finish()
    }

    #[test]
    fn every_emitted_line_validates_and_roundtrips() {
        let rec = sample_recording();
        let jsonl = rec.to_jsonl();
        assert_eq!(validate(&jsonl).unwrap(), 1 + 2 + 3); // meta + spans + metrics
        let trace = parse_trace(&jsonl).unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.metrics.len(), 3);
        let request = trace.spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(request.parent, None);
        assert_eq!(request.field_str("kind"), Some("test"));
        assert_eq!(request.field_f64("w"), Some(1.5));
        let kernel = trace.spans.iter().find(|s| s.name == "kernel").unwrap();
        assert_eq!(kernel.parent, Some(request.id));
        assert_eq!(
            trace
                .metrics
                .iter()
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>(),
            ["depth", "lat_us", "runs"]
        );
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let cap = capture();
        {
            let _s = span("planner").with("bad", f64::NAN);
        }
        let jsonl = cap.finish().to_jsonl();
        assert!(jsonl.contains("\"bad\":null"), "{jsonl}");
        validate(&jsonl).unwrap();
        let trace = parse_trace(&jsonl).unwrap();
        assert!(trace.spans[0].field_f64("bad").unwrap().is_nan());
    }

    #[test]
    fn validate_rejects_schema_violations() {
        for bad in [
            "not json",
            "[1,2,3]",
            r#"{"type":"mystery"}"#,
            r#"{"type":"span","id":0,"parent":null,"name":"x","thread":1,"start_us":0,"dur_us":0,"fields":{}}"#,
            r#"{"type":"span","id":1,"name":"x","thread":1,"start_us":0,"dur_us":0,"fields":{}}"#,
            r#"{"type":"span","id":1,"parent":null,"name":"","thread":1,"start_us":0,"dur_us":0,"fields":{}}"#,
            r#"{"type":"span","id":1,"parent":null,"name":"x","thread":1,"start_us":0,"dur_us":0,"fields":{"a":[1]}}"#,
            r#"{"type":"counter","name":"c","value":-1}"#,
            r#"{"type":"gauge","name":"g","value":1.5}"#,
            r#"{"type":"histogram","name":"h","count":0,"sum":0,"min":0,"max":0,"buckets":[0,0]}"#,
        ] {
            assert!(validate_line(bad).is_err(), "accepted {bad}");
        }
        assert!(validate_line(r#"{"type":"gauge","name":"g","value":-3}"#).is_ok());
    }

    #[test]
    fn tree_summary_aggregates_same_paths() {
        let cap = capture();
        for _ in 0..3 {
            let _root = span("request");
            let _sweep = span("sweep");
        }
        let nodes = cap.finish().nodes();
        let tree = tree_summary(&nodes);
        let request_row = tree
            .lines()
            .find(|l| l.trim_start().starts_with("request"))
            .unwrap();
        assert!(request_row.contains(" 3 "), "{tree}");
        let sweep_row = tree.lines().find(|l| l.contains("  sweep")).unwrap();
        assert!(sweep_row.contains(" 3 "), "{tree}");
        // The sweep row is indented under request.
        assert!(tree.find("request").unwrap() < tree.find("  sweep").unwrap());
    }

    #[test]
    fn merge_stitches_processes_and_rebases_duplicate_ids() {
        let trace_id = "00112233445566778899aabbccddeeff";
        // Three processes, all reusing raw span ids 1/2: a client root, a
        // server whose request span carries remote fields pointing at the
        // client, and a rank child whose meta adopted the server's context.
        let client = format!(
            "{{\"type\":\"meta\",\"version\":1,\"spans\":1,\"metrics\":0,\"proc\":\"00000000000000aa\",\"trace\":\"{trace_id}\"}}\n\
             {{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"request\",\"thread\":1,\"start_us\":0,\"dur_us\":100,\"fields\":{{}}}}\n"
        );
        let server = format!(
            "{{\"type\":\"meta\",\"version\":1,\"spans\":2,\"metrics\":0,\"proc\":\"00000000000000bb\",\"trace\":\"5555555555555555aaaaaaaaaaaaaaaa\"}}\n\
             {{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"kernel\",\"thread\":1,\"start_us\":2,\"dur_us\":10,\"fields\":{{}}}}\n\
             {{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"request\",\"thread\":1,\"start_us\":1,\"dur_us\":50,\"fields\":{{\"remote_trace\":\"{trace_id}\",\"remote_proc\":\"00000000000000aa\",\"remote_span\":1}}}}\n"
        );
        let rank = format!(
            "{{\"type\":\"meta\",\"version\":1,\"spans\":1,\"metrics\":0,\"proc\":\"00000000000000cc\",\"trace\":\"{trace_id}\",\"remote_proc\":\"00000000000000bb\",\"remote_span\":2}}\n\
             {{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"rank\",\"thread\":1,\"start_us\":3,\"dur_us\":5,\"fields\":{{\"rank\":0}}}}\n"
        );
        let merged = merge_traces(&[client, server, rank]).unwrap();
        assert_eq!(merged.spans.len(), 4);
        assert_eq!(merged.segments.len(), 3);
        // Duplicate raw ids across processes are not an error and come out
        // globally unique.
        let mut ids: Vec<u64> = merged.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "rebased ids must be unique");
        // Walk each leaf up: everything reaches the client root.
        let by_id: HashMap<u64, &SpanNode> = merged.spans.iter().map(|s| (s.id, s)).collect();
        let client_root = merged
            .spans
            .iter()
            .find(|s| s.name == "request" && s.field("remote_proc").is_none())
            .unwrap();
        let rank_span = merged.spans.iter().find(|s| s.name == "rank").unwrap();
        let mut cur = rank_span;
        let mut hops = 0;
        while let Some(p) = cur.parent {
            cur = by_id[&p];
            hops += 1;
            assert!(hops < 10);
        }
        assert_eq!(cur.id, client_root.id, "rank chain reaches the client root");
        // The server request span itself re-parented under the client.
        let server_req = merged
            .spans
            .iter()
            .find(|s| s.name == "request" && s.field("remote_proc").is_some())
            .unwrap();
        assert_eq!(server_req.parent, Some(client_root.id));
        let first_trace = merged.segments.iter().find(|s| !s.trace.is_empty());
        assert_eq!(first_trace.unwrap().trace, trace_id);
    }

    #[test]
    fn adopted_capture_emits_remote_meta_that_merges_back() {
        use crate::TraceContext;
        let upstream = TraceContext {
            trace_hi: 0x1111_2222_3333_4444,
            trace_lo: 0x5555_6666_7777_8888,
            proc: 0xabcd,
            parent_span: 7,
        };
        let cap = capture();
        crate::adopt_remote_context(upstream);
        {
            let _s = span("rank");
        }
        let rec = cap.finish();
        assert_eq!(rec.remote, Some(upstream));
        assert_eq!(rec.trace, (upstream.trace_hi, upstream.trace_lo));
        let jsonl = rec.to_jsonl();
        assert!(
            jsonl.contains("\"remote_proc\":\"000000000000abcd\""),
            "{jsonl}"
        );
        let trace = parse_trace(&jsonl).unwrap();
        assert_eq!(trace.segments[0].remote, Some((0xabcd, 7)));
        assert_eq!(trace.segments[0].trace, upstream.trace_hex());
        // No segment owns proc 0xabcd here, so the root stays a root.
        assert_eq!(trace.spans[0].parent, None);
    }

    #[test]
    fn summary_mentions_metrics() {
        let rec = sample_recording();
        let s = rec.summary();
        assert!(s.contains("request"), "{s}");
        assert!(s.contains("runs"), "{s}");
        assert!(s.contains("count=1"), "{s}");
    }
}
