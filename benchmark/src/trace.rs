//! The benchmark's own in-memory spans around the calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A traced
//! operation is one *root* span around the same public call the untraced run
//! times, followed by *replayed* child spans: the layers underneath run again
//! on the same operands, one at a time, so that each gets a duration of its
//! own. Children therefore start after their parent has ended; what ties them
//! to it is `parent`, and a span's self time is its duration minus the sum of
//! its children's.

use crate::json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span this one explains part of; `None` for a root.
    pub parent: Option<SpanId>,
    /// `layer.call`, e.g. `exec.kernel`; roots are `op.<unit>`.
    pub name: &'static str,
    /// The operation (sample index) the span belongs to.
    pub op: usize,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Collects spans; the id of a span is its position.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span and returns its result with the span's id.
    pub fn time<T>(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        (out, self.record(parent, name, op, start, dur))
    }

    /// Records a span timed elsewhere (by the caller, or by the program's own
    /// clocks, as for the plan and kernel times an ALS sweep reports).
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        op: usize,
        start: Instant,
        dur: Duration,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            name,
            op,
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&json::object(&[
                ("id", id.to_string()),
                ("parent", parent),
                ("name", json::string(s.name)),
                ("op", s.op.to_string()),
                ("start_us", json::number(s.start_us)),
                ("dur_us", json::number(s.dur_us)),
            ]));
            out.push('\n');
        }
        out
    }
}

/// Self time by span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTimes {
    /// `name -> (spans, summed self time in µs)`.
    pub by_name: BTreeMap<&'static str, (usize, f64)>,
    /// Summed duration of the operations' root spans, `op.*` (µs): what the
    /// self times beneath them add up to when no span is over-covered. Other
    /// parentless spans (`cmp.*`, run for comparison) are listed, not summed.
    pub root_us: f64,
    /// Spans whose children sum to more than the span itself (their self time
    /// is counted as zero). Replays run apart from their parent, so noise can
    /// cause a few; many mean the decomposition no longer fits the call.
    pub overcovered: usize,
    /// Spans naming a parent that does not exist.
    pub orphans: usize,
}

impl SelfTimes {
    /// Summed self time (µs) of the spans whose name starts with `prefix`.
    pub fn self_us(&self, prefix: &str) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0, which would print as "-0".
        self.by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, (_, us))| us)
            .sum::<f64>()
            + 0.0
    }

    /// [`SelfTimes::self_us`] as a share of all self time under the
    /// operations' roots. Equal to a share of `root_us` unless spans were
    /// over-covered, and adding up to 1 over the layers either way.
    pub fn share(&self, prefix: &str) -> f64 {
        let total = self.self_us("") - self.self_us("cmp.");
        if total > 0.0 && !prefix.starts_with("cmp.") {
            self.self_us(prefix) / total
        } else {
            0.0
        }
    }
}

/// Reduces spans to self times: each span's duration minus the part its
/// direct children cover. Orphans are counted and otherwise treated as roots
/// of their own, outside `root_us`.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_us = vec![0.0f64; spans.len()];
    let mut out = SelfTimes::default();
    for s in spans {
        match s.parent {
            Some(p) if p < spans.len() => child_us[p] += s.dur_us,
            Some(_) => out.orphans += 1,
            None if s.name.starts_with("op.") => out.root_us += s.dur_us,
            None => {}
        }
    }
    for (s, covered) in spans.iter().zip(child_us) {
        // A microsecond of slack: clocks are read per span.
        if covered > s.dur_us + 1.0 {
            out.overcovered += 1;
        }
        let entry = out.by_name.entry(s.name).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += (s.dur_us - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, name: &'static str, dur_us: f64) -> Span {
        Span {
            parent,
            name,
            op: 0,
            start_us: 0.0,
            dur_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(None, "op.request", 100.0),
            span(Some(0), "serve.inproc_call", 60.0),
            span(Some(1), "exec.kernel", 45.0),
            span(Some(0), "wire.write", 10.0),
            span(None, "op.request", 50.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st.root_us, 150.0);
        assert_eq!(st.by_name["op.request"], (2, 30.0 + 50.0));
        assert_eq!(st.by_name["serve.inproc_call"], (1, 15.0));
        assert_eq!(st.by_name["exec.kernel"], (1, 45.0));
        assert_eq!((st.overcovered, st.orphans), (0, 0));
        // With no span over-covered the self times add up to the roots.
        let total: f64 = st.by_name.values().map(|(_, us)| us).sum();
        assert_eq!(total, st.root_us);
        assert_eq!(st.share("exec."), 45.0 / 150.0);
        assert_eq!(st.self_us("wire."), 10.0);
    }

    #[test]
    fn overcovered_parents_are_counted_and_clamped() {
        let spans = [
            span(None, "op.round", 10.0),
            span(Some(0), "exec.kernel", 8.0),
            span(Some(0), "exec.plan", 7.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st.overcovered, 1);
        assert_eq!(st.by_name["op.round"], (1, 0.0));
    }

    #[test]
    fn orphans_are_detected() {
        let spans = [
            span(None, "op.round", 10.0),
            span(Some(9), "exec.plan", 3.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st.orphans, 1);
        assert_eq!(st.root_us, 10.0);
        assert_eq!(st.by_name["exec.plan"], (1, 3.0));
    }

    #[test]
    fn tracer_links_replays_to_their_root_and_writes_valid_jsonl() {
        let mut tr = Tracer::new();
        let (x, root) = tr.time(None, "op.round", 3, || 41 + 1);
        assert_eq!(x, 42);
        let (_, child) = tr.time(Some(root), "exec.kernel", 3, || ());
        assert_eq!(tr.spans()[child].parent, Some(root));
        assert_eq!(tr.durations("exec.kernel").len(), 1);
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for (id, line) in jsonl.lines().enumerate() {
            let v = mttkrp_obs::json::parse(line).expect("valid JSON");
            assert_eq!(v.get("id").and_then(|v| v.as_u64()), Some(id as u64));
            assert_eq!(v.get("op").and_then(|v| v.as_u64()), Some(3));
            assert!(v.get("dur_us").and_then(|v| v.as_f64()).is_some());
        }
        let first = mttkrp_obs::json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("parent"),
            Some(&mttkrp_obs::json::JsonValue::Null)
        );
    }
}
