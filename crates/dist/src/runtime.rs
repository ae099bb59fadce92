//! The fabric a parallel plan runs on.
//!
//! Each algorithm is `mttkrp-core::par`'s one runner — shard, run one rank
//! body per endpoint, assemble. [`run_on`] hands the runner of a plan's
//! algorithm the fabric it is given: the in-process channel fabric
//! ([`mttkrp_netsim::wire`]) or loopback TCP sockets ([`loopback`]), as the
//! plan's machine names. It is the same code path either way, so the
//! assembled output is **bitwise identical** on both, and each rank's
//! measured traffic equals the predicted
//! [`mttkrp_netsim::schedule::CommSchedule`] collective by collective.
//!
//! In-process, rank 0 runs on the calling thread and ranks `1..P` on `P - 1`
//! spawned OS threads ([`mttkrp_netsim::run_spmd`]), so a one-rank run
//! spawns none; across processes, a launcher runs one rank body per process
//! (see [`crate::backend::run_plan_rank`]) — same bodies, same schedule,
//! same words.

use crate::transport::TcpTransport;
use mttkrp_core::par::{self, BlockChunk, ParRun, RowChunk};
use mttkrp_exec::{Algorithm, Plan};
use mttkrp_netsim::PeerExchange;
use mttkrp_tensor::{DenseTensor, Matrix};
use std::time::Duration;

/// Default bound on every blocking TCP step in an in-process loopback run.
const LOOPBACK_TIMEOUT: Duration = Duration::from_secs(60);

/// One rank's share of the assembled output: either a row block of
/// `B^(n)` (Algorithm 3, matmul baseline) or a row-and-column block
/// (Algorithm 4). This is what a rank hands back across processes over the
/// launcher's wire protocol (a [`crate::transport::wire::Fabric::Chunk`]).
#[derive(Clone, Debug, PartialEq)]
pub enum OutputChunk {
    /// `(row_lo, row_hi, row-major data)` — full output width.
    Row(RowChunk),
    /// `(row_lo, row_hi, col_lo, col_hi, row-major data)`.
    Block(BlockChunk),
}

#[cfg(test)]
thread_local! {
    /// Loopback machines this thread has wired: what tests read to tell
    /// which fabric a run took.
    pub(crate) static LOOPBACK_WIRINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Wires a loopback TCP machine for an in-process run.
pub(crate) fn loopback(p: usize) -> Vec<TcpTransport> {
    #[cfg(test)]
    LOOPBACK_WIRINGS.with(|n| n.set(n.get() + 1));
    TcpTransport::wire_loopback(p, LOOPBACK_TIMEOUT).expect("loopback TCP wiring failed")
}

/// Runs `plan`'s parallel algorithm on the endpoints `fabric(P)` hands out:
/// `mttkrp-core`'s runner for Algorithm 3, Algorithm 4 or the matmul
/// baseline. `None` for a sequential plan, which has no rank program.
pub(crate) fn run_on<E: PeerExchange>(
    fabric: impl FnOnce(usize) -> Vec<E>,
    plan: &Plan,
    x: &DenseTensor,
    factors: &[&Matrix],
) -> Option<ParRun> {
    let n = plan.mode;
    Some(match &plan.algorithm {
        Algorithm::ParStationary { grid } => par::mttkrp_stationary_on(fabric, x, factors, n, grid),
        Algorithm::ParGeneral { p0, grid } => {
            par::mttkrp_general_on(fabric, x, factors, n, *p0, grid)
        }
        Algorithm::ParMatmul { procs } => par::mttkrp_par_matmul_on(fabric, x, factors, n, *procs),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::Problem;
    use mttkrp_exec::{MachineSpec, Planner};
    use mttkrp_netsim::schedule::{self, Phase};
    use mttkrp_netsim::{collectives, run_spmd, wire};
    use mttkrp_tensor::mttkrp_reference;

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        crate::operands(dims, r, seed, 40)
    }

    /// `algorithm` at output mode `n` of `x`'s problem, run over loopback
    /// TCP.
    fn over_tcp(x: &DenseTensor, refs: &[&Matrix], n: usize, algorithm: Algorithm) -> ParRun {
        let problem = Problem::from_shape(x.shape(), refs[0].cols());
        let mut plan = Planner::new(MachineSpec::shared(1, 1 << 16)).plan(&problem, n);
        plan.algorithm = algorithm;
        run_on(loopback, &plan, x, refs).expect("a parallel algorithm")
    }

    #[test]
    fn stationary_over_tcp_is_bitwise_identical_to_channels() {
        let (x, factors) = setup(&[4, 6, 8], 3, 9);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let grid = [2, 2, 2];
        for n in 0..3 {
            let chan = par::mttkrp_stationary(&x, &refs, n, &grid);
            let grid = grid.to_vec();
            let tcp = over_tcp(&x, &refs, n, Algorithm::ParStationary { grid });
            assert_eq!(chan.output.data(), tcp.output.data(), "mode {n}");
            assert_eq!(chan.ledgers, tcp.ledgers, "mode {n}");
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(tcp.output.max_abs_diff(&oracle) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn general_over_tcp_matches_schedule_word_for_word() {
        let (x, factors) = setup(&[4, 4, 6], 6, 11);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (p0, grid) = (3, [2, 2, 1]);
        for n in 0..3 {
            let sim = par::mttkrp_general(&x, &refs, n, p0, &grid);
            let grid = grid.to_vec();
            let tcp = over_tcp(&x, &refs, n, Algorithm::ParGeneral { p0, grid });
            assert_eq!(tcp.output.data(), sim.output.data(), "mode {n}");
            let predicted = schedule::alg4_schedule(&[4, 4, 6], 6, n, p0, &[2, 2, 1]);
            crate::assert_matches_schedule(&tcp.ledgers, &predicted);
        }
    }

    #[test]
    fn stationary_traffic_matches_schedule_phase_by_phase() {
        let (x, factors) = setup(&[6, 6, 6], 2, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let grid = vec![2, 2, 2];
        let predicted = schedule::alg3_schedule(&[6, 6, 6], 2, 0, &grid);
        let tcp = over_tcp(&x, &refs, 0, Algorithm::ParStationary { grid });
        crate::assert_matches_schedule(&tcp.ledgers, &predicted);
    }

    #[test]
    fn matmul_baseline_bitwise_matches_netsim() {
        let (x, factors) = setup(&[4, 6, 8], 3, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let tcp = over_tcp(&x, &refs, n, Algorithm::ParMatmul { procs: 2 });
            let sim = par::mttkrp_par_matmul(&x, &refs, n, 2);
            assert_eq!(tcp.output.data(), sim.output.data(), "mode {n}");
            assert_eq!(tcp.ledgers, sim.ledgers, "mode {n}");
        }
    }

    #[test]
    fn rank_panic_propagates_instead_of_deadlocking() {
        // Rank 1 dies before its collective while every other rank blocks
        // in the all-gather waiting for it. Without poisoning, the blocked
        // ranks would wait forever and this test would hang; with it, the
        // run aborts and the original panic propagates.
        let result = std::panic::catch_unwind(|| {
            run_spmd(wire(4), |ep| {
                let world = ep.world();
                ep.begin_phase(Phase::TensorAllGather);
                if ep.world_rank() == 1 {
                    panic!("deliberate failure injection");
                }
                collectives::all_gather(ep, &world, &[ep.world_rank() as f64])
            })
        });
        let msg = crate::panic_text(result.expect_err("the rank panic must propagate"));
        assert!(
            msg.contains("deliberate failure injection"),
            "expected the original panic, got: {msg}"
        );
    }

    #[test]
    fn a_one_rank_run_is_the_callers_thread() {
        let caller = std::thread::current().id();
        let (seen, _) = run_spmd(wire(1), |_| std::thread::current().id());
        assert_eq!(seen, [caller]);
    }

    /// Two ranks: `dying` panics while its peer blocks in an all-gather
    /// waiting for it. Returns the payload the run re-threw.
    fn payload_when_a_rank_panics_beside_a_blocked_peer(dying: usize) -> String {
        let caller = std::thread::current().id();
        let result = std::panic::catch_unwind(|| {
            run_spmd(wire(2), |ep| {
                let world = ep.world();
                ep.begin_phase(Phase::TensorAllGather);
                let me = ep.world_rank();
                assert_eq!(me == 0, std::thread::current().id() == caller);
                if me == dying {
                    panic!("rank {me} fails on purpose");
                }
                collectives::all_gather(ep, &world, &[me as f64])
            })
        });
        crate::panic_text(result.expect_err("the rank panic must propagate"))
    }

    #[test]
    fn rank_0_panicking_on_the_caller_rethrows_its_payload() {
        let msg = payload_when_a_rank_panics_beside_a_blocked_peer(0);
        assert_eq!(msg, "rank 0 fails on purpose");
    }

    #[test]
    fn rank_1_panicking_while_the_caller_blocks_rethrows_its_payload() {
        let msg = payload_when_a_rank_panics_beside_a_blocked_peer(1);
        assert_eq!(msg, "rank 1 fails on purpose");
    }

    #[test]
    fn single_rank_runs_without_communication() {
        let (x, factors) = setup(&[3, 4, 5], 2, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_stationary(&x, &refs, 1, &[1, 1, 1]);
        assert_eq!(run.summary.total_words, 0);
        let oracle = mttkrp_reference(&x, &refs, 1);
        assert!(run.output.max_abs_diff(&oracle) < 1e-10);
    }

    #[test]
    fn order4_general_with_p0() {
        let (x, factors) = setup(&[4, 2, 4, 2], 4, 6);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (p0, grid) = (2, vec![2, 1, 2, 1]);
        let sim = par::mttkrp_general(&x, &refs, 2, p0, &grid);
        let tcp = over_tcp(&x, &refs, 2, Algorithm::ParGeneral { p0, grid });
        assert_eq!(tcp.output.data(), sim.output.data());
        assert_eq!(tcp.ledgers, sim.ledgers);
    }
}
