//! The modeled-vs-measured drift gate.
//!
//! The planner prices every distributed algorithm with the paper's
//! communication lower bounds (Eqs. 12/14/18, via `netsim`'s per-phase
//! schedules); the transport layer *counts* the words each rank actually
//! moved. This module compares the two, pair by pair, and turns "the model
//! quietly stopped matching reality" into a nonzero exit code.

use crate::export::SpanNode;

/// One modeled/measured pair, e.g. the words rank 2 sent during
/// `all-gather(A^(k))`.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftRecord {
    /// What is being compared (phase, rank, direction).
    pub(crate) name: String,
    /// The cost model's prediction, in words.
    modeled: f64,
    /// What the transport counted, in words.
    measured: f64,
}

impl DriftRecord {
    /// Relative error `|measured - modeled| / max(|modeled|, |measured|, 1)`.
    /// The `1` floor keeps zero-word phases (model and reality both idle)
    /// from dividing by zero and makes sub-word noise negligible.
    pub fn rel_error(&self) -> f64 {
        let denom = self.modeled.abs().max(self.measured.abs()).max(1.0);
        (self.measured - self.modeled).abs() / denom
    }
}

/// A set of [`DriftRecord`]s judged against one tolerance.
#[derive(Clone, Debug)]
pub struct DriftReport {
    records: Vec<DriftRecord>,
    tolerance: f64,
}

impl DriftReport {
    /// An empty report with the given relative-error tolerance.
    pub(crate) fn new(tolerance: f64) -> DriftReport {
        DriftReport {
            records: Vec::new(),
            tolerance,
        }
    }

    /// Builds a report from every `collective` span in `spans`, pairing the
    /// `modeled_sent`/`measured_sent` and `modeled_recv`/`measured_recv`
    /// fields (tagged by `phase` and `rank`) that the dist layer records.
    pub fn from_spans(spans: &[SpanNode], tolerance: f64) -> DriftReport {
        let mut report = DriftReport::new(tolerance);
        for s in spans.iter().filter(|s| s.name == "collective") {
            let phase = s.field_str("phase").unwrap_or("?");
            let rank = s.field_u64("rank").unwrap_or(0);
            for (direction, modeled_key, measured_key) in [
                ("sent", "modeled_sent", "measured_sent"),
                ("recv", "modeled_recv", "measured_recv"),
            ] {
                if let (Some(modeled), Some(measured)) =
                    (s.field_f64(modeled_key), s.field_f64(measured_key))
                {
                    report.push(format!("{phase} rank{rank} {direction}"), modeled, measured);
                }
            }
        }
        report
    }

    /// Adds one modeled/measured pair.
    fn push(&mut self, name: impl Into<String>, modeled: f64, measured: f64) {
        self.records.push(DriftRecord {
            name: name.into(),
            modeled,
            measured,
        });
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no pairs were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `true` when every pair's relative error is within tolerance. An
    /// empty report is trivially ok (nothing drifted, nothing measured).
    pub fn ok(&self) -> bool {
        self.records.iter().all(|r| r.rel_error() <= self.tolerance)
    }

    /// The pair with the largest relative error, if any.
    pub fn worst(&self) -> Option<&DriftRecord> {
        self.records
            .iter()
            .max_by(|a, b| a.rel_error().total_cmp(&b.rel_error()))
    }

    /// An aligned text table: one row per pair, a `DRIFT` marker on rows
    /// beyond tolerance, and a verdict line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<36} {:>12} {:>12} {:>9}\n",
            "collective", "modeled", "measured", "rel err"
        );
        for r in &self.records {
            let marker = if r.rel_error() > self.tolerance {
                "  DRIFT"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<36} {:>12.0} {:>12.0} {:>9.5}{}\n",
                r.name,
                r.modeled,
                r.measured,
                r.rel_error(),
                marker
            ));
        }
        if self.records.is_empty() {
            out.push_str("(no modeled/measured pairs found)\n");
        }
        out.push_str(&format!(
            "drift gate: {} pairs, tolerance {:.4} -> {}\n",
            self.records.len(),
            self.tolerance,
            if self.ok() { "OK" } else { "FAIL" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{capture, span};

    #[test]
    fn rel_error_has_a_unit_floor() {
        let exact = DriftRecord {
            name: "x".into(),
            modeled: 640.0,
            measured: 640.0,
        };
        assert_eq!(exact.rel_error(), 0.0);
        let both_zero = DriftRecord {
            name: "idle".into(),
            modeled: 0.0,
            measured: 0.0,
        };
        assert_eq!(both_zero.rel_error(), 0.0);
        let off = DriftRecord {
            name: "y".into(),
            modeled: 100.0,
            measured: 110.0,
        };
        assert!((off.rel_error() - 10.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn gate_trips_beyond_tolerance() {
        let mut report = DriftReport::new(0.01);
        report.push("all-gather rank0 sent", 1000.0, 1000.0);
        assert!(report.ok());
        report.push("reduce-scatter rank1 recv", 1000.0, 1100.0);
        assert!(!report.ok());
        assert_eq!(report.worst().unwrap().name, "reduce-scatter rank1 recv");
        let table = report.table();
        assert!(table.contains("DRIFT"), "{table}");
        assert!(table.contains("FAIL"), "{table}");
    }

    #[test]
    fn the_gate_accepts_exactly_its_tolerance_and_nothing_past_it() {
        // |100 - 75| / 100 = 0.25 exactly; |100 - 74| / 100 = 0.26.
        let judged = |modeled: f64| {
            let mut report = DriftReport::new(0.25);
            report.push("all-gather rank0 sent", modeled, 100.0);
            report.ok()
        };
        assert!(judged(75.0), "at the tolerance");
        assert!(!judged(74.0), "just past it");
    }

    #[test]
    fn from_spans_pairs_collective_fields() {
        let cap = capture();
        {
            let _c = span("collective")
                .with("phase", "all-gather(tensor)")
                .with("rank", 2u64)
                .with("modeled_sent", 640u64)
                .with("measured_sent", 640u64)
                .with("modeled_recv", 320u64)
                .with("measured_recv", 321u64);
            let _other = span("kernel"); // ignored: not a collective
        }
        let nodes = cap.finish().nodes();
        let report = DriftReport::from_spans(&nodes, 0.01);
        assert_eq!(report.len(), 2);
        assert!(report.ok(), "1/321 is within 1%");
        assert_eq!(report.records[0].name, "all-gather(tensor) rank2 sent");
        let strict = DriftReport::from_spans(&nodes, 0.0001);
        assert!(!strict.ok());
    }

    #[test]
    fn empty_report_is_ok_but_says_so() {
        let report = DriftReport::new(0.01);
        assert!(report.ok());
        assert!(report.table().contains("no modeled/measured pairs"));
    }
}
