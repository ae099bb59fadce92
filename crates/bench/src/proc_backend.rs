//! A real multi-process execution backend: every MTTKRP runs as
//! `ranks` spawned OS processes over TCP sockets, driven by the
//! [`dist_tcp`] launcher.
//!
//! This is the piece that puts actual rank *processes* behind the als
//! engine (and, through it, behind `mttkrp_cli listen --dist-exec proc`):
//! install a [`ProcBackend`] with
//! [`mttkrp_als::install_dist_executor`] and every
//! [`BackendChoice::Dist`](mttkrp_als::BackendChoice::Dist) MTTKRP of
//! every sweep launches a fresh P-process cluster, ships the exact
//! operand bytes to each rank on its `LAUNCH` frame, and assembles the
//! sharded output — bit-identical to the in-process fabric, because both
//! run the same rank programs over the same schedule.
//!
//! Trace propagation is automatic: `execute` reads
//! [`mttkrp_obs::current_context()`] (the live trace id and enclosing
//! span at the moment the engine calls the backend — e.g. a serve
//! worker's adopted request span) and stamps it on every rank's `LAUNCH`
//! frame, so rank-process spans join the caller's cross-process tree and
//! `mttkrp_cli report --merge` re-parents them under it.

use crate::dist_tcp::{self, LaunchSpec};
use mttkrp_dist::record_collectives;
use mttkrp_exec::{Backend, ExecReport, Plan};
use mttkrp_tensor::{DenseTensor, Matrix};
use std::path::PathBuf;
use std::time::Duration;

/// Bound on every blocking launcher step of a [`ProcBackend`] launch.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

/// An [`mttkrp_exec::Backend`] that runs each plan as real rank
/// processes over TCP. Cloneable configuration, one fresh launch per
/// `execute` call.
#[derive(Clone, Debug)]
pub struct ProcBackend {
    /// The binary to re-invoke as `dist-rank` children (normally the
    /// `mttkrp_cli` executable itself).
    exe: PathBuf,
    /// World size of every launch.
    ranks: usize,
    /// Threads per rank process.
    threads: usize,
    /// Fast-memory words per rank process.
    memory: usize,
    /// When set, each rank writes its own span tree to
    /// `<dir>/rank<me>.jsonl` for `report --merge`.
    rank_trace_dir: Option<PathBuf>,
}

impl ProcBackend {
    /// A backend launching `ranks` processes of `exe` per MTTKRP.
    pub fn new(exe: PathBuf, ranks: usize, threads: usize, memory: usize) -> ProcBackend {
        ProcBackend {
            exe,
            ranks,
            threads,
            memory,
            rank_trace_dir: None,
        }
    }

    /// Has every spawned rank write its span tree to
    /// `<dir>/rank<me>.jsonl`. Ranks of *successive* launches reuse the
    /// same paths, so with multi-sweep callers the files hold the most
    /// recent launch per rank — still one consistent trace id per merged
    /// tree, since every launch of a request shares the caller's context.
    pub fn with_rank_trace_dir(mut self, dir: PathBuf) -> ProcBackend {
        self.rank_trace_dir = Some(dir);
        self
    }
}

impl Backend for ProcBackend {
    fn name(&self) -> &'static str {
        "dist-proc"
    }

    /// Launches the plan as `self.ranks` OS processes, shipping the exact
    /// operand bytes and the live trace context, and folds the measured
    /// per-rank ledgers into the caller's capture (the same
    /// modeled-vs-measured pairs the drift gate checks).
    ///
    /// # Panics
    /// Panics when the launch fails (a child exited nonzero, went silent
    /// past the timeout, or reported out of protocol) — the engine treats
    /// backend failure as fatal, exactly like the in-process fabric does.
    fn execute(&self, plan: &Plan, x: &DenseTensor, factors: &[&Matrix]) -> ExecReport {
        let spec = LaunchSpec {
            dims: x.shape().dims().to_vec(),
            rank: factors.first().map(|f| f.cols()).unwrap_or(0),
            mode: plan.mode,
            seed: 0, // operands are shipped, never regenerated
            ranks: self.ranks,
            threads: self.threads,
            memory: self.memory,
            timeout: LAUNCH_TIMEOUT,
            kill_rank: None,
            stall_ms: 0,
            ctx: mttkrp_obs::current_context(),
            rank_trace_dir: self.rank_trace_dir.clone(),
        };
        let start = std::time::Instant::now();
        let outcome = match dist_tcp::launch(&self.exe, &spec, plan, Some((x, factors))) {
            Ok(outcome) => outcome,
            Err(e) => panic!("multi-process dist launch failed: {e}"),
        };
        record_collectives(plan, &outcome.ledgers);
        let cost = outcome.cost();
        ExecReport::finish(outcome.output, "dist-proc", cost, start)
    }
}
