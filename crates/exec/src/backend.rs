//! The backend abstraction: one trait, many execution targets.

use crate::plan::Plan;
use mttkrp_tensor::{DenseTensor, Matrix};
use std::time::{Duration, Instant};

/// What an execution cost: the simulator backends report exact word counts
/// (the quantity the paper's bounds govern), the native backend the threads
/// it ran on. Every backend also reports its wall time
/// ([`ExecReport::elapsed`]).
#[derive(Clone, Debug)]
pub enum ExecCost {
    /// Sequential simulator: exact two-level-memory traffic.
    SeqIo {
        /// Words loaded from slow to fast memory.
        loads: u64,
        /// Words stored from fast to slow memory.
        stores: u64,
        /// Peak fast-memory residency observed, in words.
        peak_fast: usize,
    },
    /// Parallel simulator: exact per-rank network traffic.
    ParComm {
        /// Maximum words received by any single rank.
        max_recv_words: u64,
        /// Maximum words sent by any single rank.
        max_sent_words: u64,
        /// Total words moved across the whole machine.
        total_words: u64,
        /// Number of ranks that executed.
        ranks: usize,
    },
    /// Native hardware execution.
    Native {
        /// Worker threads the kernel ran on.
        threads: usize,
    },
}

/// The result of running a plan on some backend.
#[derive(Debug)]
pub struct ExecReport {
    /// The computed MTTKRP output `B^(n)` (`I_n x R`).
    pub output: Matrix,
    /// Which backend produced it.
    pub backend: &'static str,
    /// What it cost there.
    pub cost: ExecCost,
    /// Wall time of the run, as the backend measured it around its own
    /// work (for the native backend: the kernel).
    pub elapsed: Duration,
    /// The clock reading that ended [`ExecReport::elapsed`]: when the run
    /// finished.
    pub finished: Instant,
}

impl ExecReport {
    /// The report of a run that started at `start` and has just finished:
    /// one clock reading gives both [`ExecReport::elapsed`] and
    /// [`ExecReport::finished`].
    pub fn finish(
        output: Matrix,
        backend: &'static str,
        cost: ExecCost,
        start: Instant,
    ) -> ExecReport {
        let finished = Instant::now();
        ExecReport {
            output,
            backend,
            cost,
            elapsed: finished - start,
            finished,
        }
    }
}

/// A uniform execution target for MTTKRP plans.
///
/// Implementations must compute exactly the MTTKRP the plan describes
/// (validated against [`mttkrp_tensor::mttkrp_reference`] in the test
/// suite); they differ only in *where* it runs and *what cost* is observed:
///
/// - [`crate::SimBackend`] replays the plan on the strict machine-model
///   simulators and reports exact word counts;
/// - [`crate::NativeBackend`] runs a cache-tiled multi-threaded kernel at hardware
///   speed and reports wall-clock time;
/// - `mttkrp-dist`'s `DistBackend` (a downstream crate) runs distributed
///   plans on a sharded multi-rank runtime whose instrumented transport
///   reports the words each rank actually sent.
///
/// A backend is shared: one [`crate::Executor`] may run on many threads at
/// once (the serving layer keeps one per plan key for every caller).
pub trait Backend: Send + Sync {
    /// Short stable name, e.g. `"sim"` or `"native"`.
    fn name(&self) -> &'static str;

    /// Executes `plan` for the given operands. `factors[plan.mode]` is
    /// ignored, as everywhere in the workspace.
    fn execute(&self, plan: &Plan, x: &DenseTensor, factors: &[&Matrix]) -> ExecReport;
}

/// Runs `plan` on `backend` inside a `kernel` span carrying the modeled
/// cost and the cost the backend actually measured. This is *the* traced
/// execution entry point: [`crate::Executor`], the ALS engine, and the
/// serving layer all route kernel runs through it, so every backend's
/// executions land in one trace with one schema.
///
/// When tracing is disabled this opens no span: it is a direct call to
/// `backend.execute` behind one relaxed atomic load, with no allocation
/// and no clock read of its own (timed by the `obs_overhead_gate` binary in
/// `mttkrp-bench`). The backend's own readings, [`ExecReport::elapsed`] and
/// [`ExecReport::finished`], are all a caller needs to file the run: the
/// serving layer deposits an untraced request's flight-ring close from
/// them (`mttkrp_obs::flight_close`) rather than open a disabled span,
/// which would read the clock twice more.
pub fn execute_observed(
    backend: &dyn Backend,
    plan: &Plan,
    x: &DenseTensor,
    factors: &[&Matrix],
) -> ExecReport {
    if !mttkrp_obs::enabled() {
        return backend.execute(plan, x, factors);
    }
    // Open the span before executing so that spans the backend emits while
    // running (e.g. the dist layer's per-collective spans) nest under it.
    let mut span = mttkrp_obs::span("kernel")
        .with("backend", backend.name())
        .with("mode", plan.mode)
        .with("algorithm", plan.algorithm.label())
        .with("modeled_words", plan.predicted_cost);
    let report = backend.execute(plan, x, factors);
    match &report.cost {
        ExecCost::SeqIo {
            loads,
            stores,
            peak_fast,
        } => {
            span.record("measured_words", loads + stores);
            span.record("peak_fast_words", *peak_fast);
        }
        ExecCost::ParComm {
            max_recv_words,
            max_sent_words,
            total_words,
            ranks,
        } => {
            span.record("measured_words", *max_recv_words);
            span.record("max_sent_words", *max_sent_words);
            span.record("total_words", *total_words);
            span.record("ranks", *ranks);
        }
        ExecCost::Native { threads } => {
            span.record("elapsed_us", report.elapsed.as_micros() as u64);
            span.record("threads", *threads);
            span.record("isa", mttkrp_core::kernels::isa());
        }
    }
    mttkrp_obs::counter_add("exec.kernel_runs", 1);
    report
}
