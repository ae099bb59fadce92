//! The whole-machine entry points over a chosen fabric.
//!
//! Each algorithm is `mttkrp-core::par`'s one runner — shard, run one rank
//! body per endpoint, assemble — handed either the in-process channel
//! fabric ([`mttkrp_netsim::wire`]) or loopback TCP sockets
//! ([`TcpTransport::wire_loopback`]). It is the same code path either way,
//! so the assembled output is **bitwise identical** on both, and each
//! rank's measured traffic equals the predicted
//! [`mttkrp_netsim::schedule::CommSchedule`] collective by collective.
//!
//! In-process, rank 0 runs on the calling thread and ranks `1..P` on `P - 1`
//! spawned OS threads ([`mttkrp_netsim::run_spmd`]), so a one-rank run
//! spawns none; across processes, a launcher runs one rank body per process
//! (see [`crate::backend::run_plan_rank`]) — same bodies, same schedule,
//! same words.

use crate::transport::TcpTransport;
use mttkrp_core::par::{self, BlockChunk, ParRun, RowChunk};
use mttkrp_netsim::wire;
use mttkrp_tensor::{DenseTensor, Matrix};
use std::time::Duration;

/// Which fabric an in-process multi-rank run wires its ranks with.
///
/// Both run the identical rank programs; `Tcp` moves every word through
/// real loopback sockets (wire codec, reader threads and all), which is
/// exactly what a multi-node run does — only the addresses differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channels ([`mttkrp_netsim::Endpoint`]).
    #[default]
    Channel,
    /// Loopback TCP sockets ([`crate::transport::TcpTransport`]).
    Tcp,
}

/// Default bound on every blocking TCP step in an in-process loopback run.
const LOOPBACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Result of a sharded multi-rank MTTKRP run: the output, and the measured
/// per-rank totals and per-collective ledgers.
pub type DistRun = ParRun;

/// One rank's share of the assembled output: either a row block of
/// `B^(n)` (Algorithm 3, matmul baseline) or a row-and-column block
/// (Algorithm 4). This is what a rank hands back across processes over the
/// launcher's wire protocol ([`crate::transport::wire::encode_chunk`]).
#[derive(Clone, Debug, PartialEq)]
pub enum OutputChunk {
    /// `(row_lo, row_hi, row-major data)` — full output width.
    Row(RowChunk),
    /// `(row_lo, row_hi, col_lo, col_hi, row-major data)`.
    Block(BlockChunk),
}

/// Wires a loopback TCP machine for an in-process run.
fn loopback(p: usize) -> Vec<TcpTransport> {
    TcpTransport::wire_loopback(p, LOOPBACK_TIMEOUT).expect("loopback TCP wiring failed")
}

/// Algorithm 3 (stationary tensor) on `P = prod(grid)` ranks, each owning
/// its shard, over in-process channels. `factors[n]` is ignored.
pub fn mttkrp_dist_stationary(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    grid: &[usize],
) -> DistRun {
    mttkrp_dist_stationary_on(TransportKind::Channel, x, factors, n, grid)
}

/// [`mttkrp_dist_stationary`] over the chosen fabric.
pub fn mttkrp_dist_stationary_on(
    kind: TransportKind,
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    grid: &[usize],
) -> DistRun {
    match kind {
        TransportKind::Channel => par::mttkrp_stationary_on(wire, x, factors, n, grid),
        TransportKind::Tcp => par::mttkrp_stationary_on(loopback, x, factors, n, grid),
    }
}

/// Algorithm 4 (general) on `P = p0 * prod(grid)` ranks over in-process
/// channels. `factors[n]` is ignored.
pub fn mttkrp_dist_general(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    p0: usize,
    grid: &[usize],
) -> DistRun {
    mttkrp_dist_general_on(TransportKind::Channel, x, factors, n, p0, grid)
}

/// [`mttkrp_dist_general`] over the chosen fabric.
pub fn mttkrp_dist_general_on(
    kind: TransportKind,
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    p0: usize,
    grid: &[usize],
) -> DistRun {
    match kind {
        TransportKind::Channel => par::mttkrp_general_on(wire, x, factors, n, p0, grid),
        TransportKind::Tcp => par::mttkrp_general_on(loopback, x, factors, n, p0, grid),
    }
}

/// The 1D parallel matmul baseline on `procs` ranks over in-process
/// channels. `factors[n]` is ignored.
pub fn mttkrp_dist_matmul(x: &DenseTensor, factors: &[&Matrix], n: usize, procs: usize) -> DistRun {
    mttkrp_dist_matmul_on(TransportKind::Channel, x, factors, n, procs)
}

/// [`mttkrp_dist_matmul`] over the chosen fabric.
pub fn mttkrp_dist_matmul_on(
    kind: TransportKind,
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    procs: usize,
) -> DistRun {
    match kind {
        TransportKind::Channel => par::mttkrp_par_matmul_on(wire, x, factors, n, procs),
        TransportKind::Tcp => par::mttkrp_par_matmul_on(loopback, x, factors, n, procs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_netsim::schedule::{self, Phase};
    use mttkrp_netsim::{collectives, run_spmd, PeerExchange};
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 40 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn stationary_bitwise_matches_netsim_and_oracle() {
        let (x, factors) = setup(&[4, 6, 8], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let dist = mttkrp_dist_stationary(&x, &refs, n, &[2, 2, 2]);
            let sim = par::mttkrp_stationary(&x, &refs, n, &[2, 2, 2]);
            // Bitwise: same shards, same ring order, same kernel.
            assert_eq!(dist.output.data(), sim.output.data(), "mode {n}");
            // And per-rank traffic identical to the simulator's counters.
            assert_eq!(dist.stats, sim.stats, "mode {n}");
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(dist.output.max_abs_diff(&oracle) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn stationary_over_tcp_is_bitwise_identical_to_channels() {
        let (x, factors) = setup(&[4, 6, 8], 3, 9);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let chan = mttkrp_dist_stationary_on(TransportKind::Channel, &x, &refs, 1, &[2, 2, 2]);
        let tcp = mttkrp_dist_stationary_on(TransportKind::Tcp, &x, &refs, 1, &[2, 2, 2]);
        assert_eq!(chan.output.data(), tcp.output.data());
        assert_eq!(chan.stats, tcp.stats);
        for (l_chan, l_tcp) in chan.ledgers.iter().zip(&tcp.ledgers) {
            assert_eq!(l_chan, l_tcp);
        }
    }

    #[test]
    fn general_over_tcp_matches_schedule_word_for_word() {
        let (x, factors) = setup(&[4, 4, 6], 6, 11);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let dist = mttkrp_dist_general_on(TransportKind::Tcp, &x, &refs, 0, 3, &[2, 2, 1]);
        let sim = par::mttkrp_general(&x, &refs, 0, 3, &[2, 2, 1]);
        assert_eq!(dist.output.data(), sim.output.data());
        let predicted = schedule::alg4_schedule(&[4, 4, 6], 6, 0, 3, &[2, 2, 1]);
        for (me, ledger) in dist.ledgers.iter().enumerate() {
            assert!(
                ledger.matches(&predicted.ranks[me].phases),
                "rank {me}:\n{}",
                ledger.diff_table(&predicted.ranks[me].phases)
            );
        }
    }

    #[test]
    fn stationary_traffic_matches_schedule_phase_by_phase() {
        let (x, factors) = setup(&[6, 6, 6], 2, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let dist = mttkrp_dist_stationary(&x, &refs, 0, &[2, 2, 2]);
        let predicted = schedule::alg3_schedule(&[6, 6, 6], 2, 0, &[2, 2, 2]);
        for (me, ledger) in dist.ledgers.iter().enumerate() {
            assert!(
                ledger.matches(&predicted.ranks[me].phases),
                "rank {me}:\n{}",
                ledger.diff_table(&predicted.ranks[me].phases)
            );
        }
    }

    #[test]
    fn general_bitwise_matches_netsim_and_schedule() {
        let (x, factors) = setup(&[4, 4, 6], 6, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let dist = mttkrp_dist_general(&x, &refs, n, 3, &[2, 2, 1]);
            let sim = par::mttkrp_general(&x, &refs, n, 3, &[2, 2, 1]);
            assert_eq!(dist.output.data(), sim.output.data(), "mode {n}");
            assert_eq!(dist.stats, sim.stats, "mode {n}");
            let predicted = schedule::alg4_schedule(&[4, 4, 6], 6, n, 3, &[2, 2, 1]);
            for (me, ledger) in dist.ledgers.iter().enumerate() {
                assert_eq!(ledger.phases(), &predicted.ranks[me].phases[..]);
            }
        }
    }

    #[test]
    fn matmul_baseline_bitwise_matches_netsim() {
        let (x, factors) = setup(&[4, 6, 8], 3, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let dist = mttkrp_dist_matmul(&x, &refs, n, 2);
            let sim = par::mttkrp_par_matmul(&x, &refs, n, 2);
            assert_eq!(dist.output.data(), sim.output.data(), "mode {n}");
            assert_eq!(dist.stats, sim.stats, "mode {n}");
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
        let payload = result.expect_err("the rank panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
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
        let payload = result.expect_err("the rank panic must propagate");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
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
        let run = mttkrp_dist_stationary(&x, &refs, 1, &[1, 1, 1]);
        assert_eq!(run.summary.total_words, 0);
        let oracle = mttkrp_reference(&x, &refs, 1);
        assert!(run.output.max_abs_diff(&oracle) < 1e-10);
    }

    #[test]
    fn order4_general_with_p0() {
        let (x, factors) = setup(&[4, 2, 4, 2], 4, 6);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let dist = mttkrp_dist_general(&x, &refs, 2, 2, &[2, 1, 2, 1]);
        let sim = par::mttkrp_general(&x, &refs, 2, 2, &[2, 1, 2, 1]);
        assert_eq!(dist.output.data(), sim.output.data());
    }
}
