//! `DistBackend`: the sharded runtime behind the `mttkrp-exec` seam.

use crate::runtime::{loopback, run_on, OutputChunk};
use mttkrp_core::par::layout::{alg3_shard, alg4_shard, matmul_shard};
use mttkrp_core::par::{
    assemble_block_chunks, assemble_row_chunks, general_rank, matmul_rank, stationary_rank,
};
use mttkrp_exec::{Algorithm, Backend, ExecCost, ExecReport, NativeBackend, Plan, TransportSpec};
use mttkrp_netsim::schedule::{self, CommSchedule};
use mttkrp_netsim::{wire, PeerExchange, TrafficLedger};
use mttkrp_tensor::{DenseTensor, Matrix};
use std::time::Instant;

/// Executes parallel plans on the sharded multi-rank runtime: rank 0 on the
/// calling thread and one thread per further rank, each reading only its
/// data block, with every remote word crossing
/// an instrumented transport.
///
/// The third [`Backend`] of the workspace, next to `mttkrp-exec`'s
/// `SimBackend` and `NativeBackend`. Distributed plans (Algorithms 3/4,
/// the parallel matmul baseline) run their real communication schedule; a
/// *sequential* (one-rank) plan runs on a single node via the native
/// shared-memory kernel, exactly as `plan_and_execute` would run it.
///
/// The plan's machine names the fabric, and nothing else does: a
/// [`MachineSpec`](mttkrp_exec::MachineSpec) with
/// [`TransportSpec::Tcp`] runs the very same rank programs over loopback
/// TCP sockets instead of in-process channels (multi-*process* TCP runs
/// are driven per rank via [`run_plan_rank`]). Word counts, ledgers, and
/// the output bits are identical either way — that equality is what the
/// test suite asserts.
#[derive(Clone, Debug, Default)]
pub struct DistBackend;

/// A [`DistBackend`] execution report plus the measured per-rank,
/// per-collective traffic — what the tests compare against the netsim
/// schedule prediction.
#[derive(Debug)]
pub struct DistReport {
    /// The ordinary execution report (output, backend name, cost).
    pub report: ExecReport,
    /// Measured per-rank ledgers, indexed by world rank (empty for
    /// sequential plans, which communicate nothing).
    pub ledgers: Vec<TrafficLedger>,
}

impl DistBackend {
    /// A dist backend that wires whatever fabric the plan's machine names
    /// (in-process channels unless the machine says
    /// [`TransportSpec::Tcp`]).
    pub fn new() -> DistBackend {
        DistBackend
    }

    /// The netsim-predicted communication schedule of `plan` — what a
    /// faithful execution must send, collective by collective. `None` for
    /// sequential plans (no communication).
    pub fn predicted_schedule(plan: &Plan) -> Option<CommSchedule> {
        let dims: Vec<usize> = plan.problem.dims.iter().map(|&d| d as usize).collect();
        let (n, r) = (plan.mode, plan.problem.rank as usize);
        Some(match &plan.algorithm {
            Algorithm::ParStationary { grid } => schedule::alg3_schedule(&dims, r, n, grid),
            Algorithm::ParGeneral { p0, grid } => schedule::alg4_schedule(&dims, r, n, *p0, grid),
            Algorithm::ParMatmul { procs } => schedule::par_matmul_schedule(&dims, r, n, *procs),
            _ => return None,
        })
    }

    /// Executes `plan` and returns the report together with the measured
    /// per-rank traffic ledgers.
    pub fn run_instrumented(
        &self,
        plan: &Plan,
        x: &DenseTensor,
        factors: &[&Matrix],
    ) -> DistReport {
        let start = Instant::now();
        let run = match plan.machine.transport {
            TransportSpec::InProcess => run_on(wire, plan, x, factors),
            TransportSpec::Tcp => run_on(loopback, plan, x, factors),
        };
        let Some(run) = run else {
            // Sequential (single-node) plan: run the same native kernel
            // `plan_and_execute` would use, sized to the plan's machine.
            let native = NativeBackend::new(plan.machine.threads, plan.machine.fast_memory_words);
            let mut report = native.execute(plan, x, factors);
            report.backend = "dist";
            return DistReport {
                report,
                ledgers: Vec::new(),
            };
        };
        let finished = Instant::now();
        let cost = ExecCost::ParComm {
            max_recv_words: run.max_recv_words(),
            max_sent_words: run.max_sent_words(),
            total_words: run.summary.total_words,
            ranks: run.stats.len(),
        };
        record_collectives(plan, &run.ledgers);
        DistReport {
            report: ExecReport {
                output: run.output,
                backend: "dist",
                cost,
                elapsed: finished - start,
                finished,
            },
            ledgers: run.ledgers,
        }
    }
}

/// Emits one `collective` span per (rank, phase) of a finished distributed
/// run, tagging each with the words the transport *measured* and the words
/// [`DistBackend::predicted_schedule`] — the paper's Eq. 12/14/18 cost
/// model — says the rank should have moved. These spans are what
/// `mttkrp_obs::DriftReport::from_spans` pairs up for the drift gate.
///
/// The spans are emitted after the rank threads have joined (the ledgers
/// only exist then), so they carry no duration; they nest under whatever
/// span the calling thread has open — the `kernel` span, in the normal
/// [`Backend::execute`] path. Free when tracing is disabled.
pub fn record_collectives(plan: &Plan, ledgers: &[TrafficLedger]) {
    if !mttkrp_obs::enabled() || ledgers.is_empty() {
        return;
    }
    let predicted = DistBackend::predicted_schedule(plan);
    for (rank, ledger) in ledgers.iter().enumerate() {
        let modeled: &[schedule::PhaseTraffic] = predicted
            .as_ref()
            .and_then(|p| p.ranks.get(rank))
            .map(|r| r.phases.as_slice())
            .unwrap_or(&[]);
        for (i, measured) in ledger.phases().iter().enumerate() {
            let mut span = mttkrp_obs::span("collective");
            if span.is_active() {
                span.record("phase", measured.phase.to_string());
                span.record("rank", rank);
                span.record("measured_sent", measured.words_sent);
                span.record("measured_recv", measured.words_received);
                span.record("messages", measured.messages_sent);
                if let Some(m) = modeled.get(i) {
                    span.record("modeled_sent", m.words_sent);
                    span.record("modeled_recv", m.words_received);
                }
            }
            mttkrp_obs::counter_add("dist.words_measured", measured.words_sent);
            if let Some(m) = modeled.get(i) {
                mttkrp_obs::counter_add("dist.words_modeled", m.words_sent);
            }
        }
    }
}

impl Backend for DistBackend {
    fn name(&self) -> &'static str {
        "dist"
    }

    fn execute(&self, plan: &Plan, x: &DenseTensor, factors: &[&Matrix]) -> ExecReport {
        self.run_instrumented(plan, x, factors).report
    }
}

// ---------------------------------------------------------------------------
// Single-rank plan execution (one rank of a multi-process machine)
// ---------------------------------------------------------------------------

/// Runs world rank `ep.world_rank()`'s program of `plan` on an already
/// connected transport, taking this rank's shard alone from the global
/// operands, and returns this rank's output chunk and measured ledger.
///
/// This is the per-process entry point of a multi-node run: every process
/// regenerates the (deterministic) operands, takes its own shard, and
/// drives the *identical* rank body the in-process runners run.
/// The launcher collects the chunks with [`assemble_plan_output`] and
/// checks the ledgers against [`DistBackend::predicted_schedule`].
///
/// Panics if `plan` is sequential (there is no rank program to run).
pub fn run_plan_rank<T: PeerExchange>(
    plan: &Plan,
    x: &DenseTensor,
    factors: &[&Matrix],
    mut ep: T,
) -> (OutputChunk, TrafficLedger) {
    let n = plan.mode;
    let r = plan.problem.rank as usize;
    let me = ep.world_rank();
    let chunk = match &plan.algorithm {
        Algorithm::ParStationary { grid } => {
            let shard = alg3_shard(x, factors, n, grid, me);
            OutputChunk::Row(stationary_rank(&shard, grid, n, r, &mut ep))
        }
        Algorithm::ParGeneral { p0, grid } => {
            let shard = alg4_shard(x, factors, n, *p0, grid, me);
            OutputChunk::Block(general_rank(&shard, *p0, grid, n, &mut ep))
        }
        Algorithm::ParMatmul { procs } => {
            let shard = matmul_shard(x, factors, n, *procs, me);
            OutputChunk::Row(matmul_rank(&shard, n, r, &mut ep))
        }
        seq => panic!("run_plan_rank needs a distributed plan, got {seq}"),
    };
    (chunk, ep.finish())
}

/// Assembles the per-rank output chunks of a distributed `plan` (in world
/// rank order) into the global `I_n x R` output — the same assemblers the
/// in-process runtime and the simulator use.
pub fn assemble_plan_output(plan: &Plan, chunks: &[OutputChunk]) -> Matrix {
    let i_n = plan.problem.dims[plan.mode] as usize;
    let r = plan.problem.rank as usize;
    let (mut rows, mut blocks) = (Vec::new(), Vec::new());
    for chunk in chunks {
        match chunk {
            OutputChunk::Row(rc) => rows.push(rc.clone()),
            OutputChunk::Block(bc) => blocks.push(bc.clone()),
        }
    }
    assert!(
        rows.is_empty() || blocks.is_empty(),
        "chunks of one run are all rows or all blocks"
    );
    if blocks.is_empty() {
        assemble_row_chunks(i_n, r, &rows)
    } else {
        assemble_block_chunks(i_n, r, &blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_exec::{MachineSpec, Planner, SimBackend, DEFAULT_CACHE_WORDS};
    use mttkrp_tensor::mttkrp_reference;

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        crate::operands(dims, r, seed, 90)
    }

    #[test]
    fn dist_backend_bitwise_matches_sim_backend() {
        let (x, factors) = setup(&[8, 8, 8], 4, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = mttkrp_core::Problem::from_shape(x.shape(), 4);
        for ranks in [2usize, 4, 8] {
            let machine = MachineSpec::cluster(ranks, 1, DEFAULT_CACHE_WORDS);
            let plan = Planner::new(machine.with_transport(TransportSpec::Tcp))
                .plan_executable(&problem, 0);
            let dist = DistBackend::new().execute(&plan, &x, &refs);
            let sim = SimBackend::new().execute(&plan, &x, &refs);
            assert_eq!(dist.output.data(), sim.output.data(), "P = {ranks}");
            assert_eq!(dist.backend, "dist");
            let recv = |cost: &ExecCost| match cost {
                ExecCost::ParComm { max_recv_words, .. } => *max_recv_words,
                other => panic!("expected a ParComm cost, got {other:?}"),
            };
            assert_eq!(recv(&dist.cost), recv(&sim.cost));
        }
    }

    #[test]
    fn tcp_machine_runs_the_same_plan_bitwise() {
        let (x, factors) = setup(&[8, 8, 8], 4, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = mttkrp_core::Problem::from_shape(x.shape(), 4);
        let tcp_machine = MachineSpec::cluster(4, 1, 1 << 16).with_transport(TransportSpec::Tcp);
        let plan = Planner::new(tcp_machine).plan_executable(&problem, 0);
        assert!(plan.explain().contains("transport: tcp sockets"));

        // The machine alone picks the fabric: one loopback wiring for the
        // TCP plan, none for the same plan in process.
        let wirings = || crate::runtime::LOOPBACK_WIRINGS.with(std::cell::Cell::get);
        let before = wirings();
        let tcp = DistBackend::new().run_instrumented(&plan, &x, &refs);
        assert_eq!(wirings(), before + 1);
        let mut chan_plan = plan.clone();
        chan_plan.machine.transport = TransportSpec::InProcess;
        let chan = DistBackend::new().run_instrumented(&chan_plan, &x, &refs);
        assert_eq!(wirings(), before + 1);
        assert_eq!(tcp.report.output.data(), chan.report.output.data());
        assert_eq!(tcp.ledgers, chan.ledgers);
        let predicted = DistBackend::predicted_schedule(&plan).unwrap();
        crate::assert_matches_schedule(&tcp.ledgers, &predicted);
    }

    #[test]
    fn measured_ledger_matches_predicted_schedule() {
        let (x, factors) = setup(&[8, 8, 8], 8, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = mttkrp_core::Problem::from_shape(x.shape(), 8);
        let plan = Planner::new(MachineSpec::cluster(8, 1, DEFAULT_CACHE_WORDS))
            .plan_executable(&problem, 1);
        let out = DistBackend::new().run_instrumented(&plan, &x, &refs);
        let predicted = DistBackend::predicted_schedule(&plan).expect("parallel plan");
        assert_eq!(out.ledgers.len(), predicted.num_ranks());
        crate::assert_matches_schedule(&out.ledgers, &predicted);
    }

    #[test]
    fn sequential_plan_runs_on_one_node() {
        let (x, factors) = setup(&[6, 5, 4], 3, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = mttkrp_core::Problem::from_shape(x.shape(), 3);
        let plan = Planner::new(MachineSpec::shared(1, 256)).plan(&problem, 0);
        let out = DistBackend::new().run_instrumented(&plan, &x, &refs);
        assert!(out.ledgers.is_empty());
        assert_eq!(out.report.backend, "dist");
        let oracle = mttkrp_reference(&x, &refs, 0);
        assert!(out.report.output.max_abs_diff(&oracle) < 1e-12);
    }

    #[test]
    fn run_plan_rank_drives_one_rank_per_transport() {
        use crate::transport::TcpTransport;
        let (x, factors) = setup(&[8, 8, 8], 4, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = mttkrp_core::Problem::from_shape(x.shape(), 4);
        let plan = Planner::new(MachineSpec::cluster(4, 1, 1 << 16)).plan_executable(&problem, 0);
        assert!(!plan.algorithm.is_sequential());

        // Run each rank's program on its own TCP transport — the exact
        // shape of a multi-process run, compressed into threads.
        let eps = TcpTransport::wire_loopback(4, std::time::Duration::from_secs(30)).unwrap();
        let results: Vec<(OutputChunk, TrafficLedger)> = std::thread::scope(|scope| {
            let (plan, x, refs) = (&plan, &x, &refs);
            let handles: Vec<_> = eps
                .into_iter()
                .map(|ep| scope.spawn(move || run_plan_rank(plan, x, refs, ep)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let chunks: Vec<OutputChunk> = results.iter().map(|(c, _)| c.clone()).collect();
        let output = assemble_plan_output(&plan, &chunks);

        // Bitwise equal to the whole-machine in-process run...
        let whole = DistBackend::new().run_instrumented(&plan, &x, &refs);
        assert_eq!(output.data(), whole.report.output.data());
        // ...and every rank's ledger word-exact against the schedule.
        let predicted = DistBackend::predicted_schedule(&plan).unwrap();
        let ledgers: Vec<TrafficLedger> = results.into_iter().map(|(_, l)| l).collect();
        crate::assert_matches_schedule(&ledgers, &predicted);
    }
}
