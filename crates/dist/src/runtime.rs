//! The sharded runtime: `P` ranks executing the paper's parallel MTTKRP
//! algorithms over an instrumented [`Transport`].
//!
//! Each entry point shards the operands ([`crate::layout`]) — a rank of
//! Algorithm 3 or of the matmul baseline reads its box of the tensor in
//! place, through a view that reaches nothing else, so sharding copies
//! factor chunks only — hands one shard to each rank, runs the algorithm's
//! communication schedule with the real ring collectives
//! ([`crate::collectives`]), and assembles the per-rank output chunks with
//! the same assemblers the simulator uses.
//! The rank programs are generic over the transport — the channel fabric
//! and loopback TCP run the *identical* code — so the two invariants hold
//! on every fabric: the assembled output is **bitwise identical** to
//! [`mttkrp_core::par`]'s simulated runs, and the measured per-rank
//! traffic equals the predicted
//! [`mttkrp_netsim::schedule::CommSchedule`] collective by collective.
//!
//! In-process, rank 0 runs on the calling thread and ranks `1..P` on `P - 1`
//! spawned OS threads ([`run_spmd`]), so a one-rank run spawns none; across
//! processes, a launcher runs one rank program per process (see
//! [`crate::backend::run_plan_rank`]) — same programs, same schedule, same
//! words.

use crate::collectives::{all_gather, reduce_scatter};
use crate::layout::{
    output_counts, shard_alg3, shard_alg4, shard_matmul, Alg3Shard, Alg4Shard, MatmulShard,
};
use crate::transport::{wire, Endpoint, TcpTransport, TrafficLedger, Transport};
use mttkrp_core::kernels::{block_mttkrp, local_mttkrp};
use mttkrp_core::par::{assemble_block_chunks, assemble_row_chunks, BlockChunk, RowChunk};
use mttkrp_netsim::schedule::{split_range, Phase};
use mttkrp_netsim::{CommStats, CommSummary, ProcessorGrid};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::time::Duration;

/// Which fabric an in-process multi-rank run wires its ranks with.
///
/// Both run the identical rank programs; `Tcp` moves every word through
/// real loopback sockets (wire codec, reader threads and all), which is
/// exactly what a multi-node run does — only the addresses differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channels ([`crate::transport::channel`]).
    #[default]
    Channel,
    /// Loopback TCP sockets ([`crate::transport::tcp`]).
    Tcp,
}

/// Default bound on every blocking TCP step in an in-process loopback run.
const LOOPBACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Result of a sharded multi-rank MTTKRP run.
#[derive(Debug)]
pub struct DistRun {
    /// The assembled global output `B^(n)` (`I_n x R`).
    pub output: Matrix,
    /// Measured per-rank communication totals, indexed by world rank.
    pub stats: Vec<CommStats>,
    /// Measured per-rank, per-collective traffic, indexed by world rank.
    pub ledgers: Vec<TrafficLedger>,
    /// Aggregate summary (max/total words over ranks).
    pub summary: CommSummary,
}

impl DistRun {
    /// Maximum over ranks of words received — the per-processor bandwidth
    /// cost the paper's Eqs. (14)/(18) count.
    pub fn max_recv_words(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.words_received)
            .max()
            .unwrap_or(0)
    }

    /// Maximum over ranks of words sent.
    pub fn max_sent_words(&self) -> u64 {
        self.stats.iter().map(|s| s.words_sent).max().unwrap_or(0)
    }
}

/// One rank's share of the assembled output: either a row block of
/// `B^(n)` (Algorithm 3, matmul baseline) or a row-and-column block
/// (Algorithm 4). This is what a rank hands back — in-process by return
/// value, across processes over the launcher's wire protocol
/// ([`crate::transport::wire::encode_chunk`]).
#[derive(Clone, Debug, PartialEq)]
pub enum OutputChunk {
    /// `(row_lo, row_hi, row-major data)` — full output width.
    Row(RowChunk),
    /// `(row_lo, row_hi, col_lo, col_hi, row-major data)`.
    Block(BlockChunk),
}

/// Runs `program` SPMD, one rank per transport endpoint, indexed by world
/// rank: rank 0 on the calling thread, every other rank on a thread of its
/// own. Outputs and ledgers are returned in world-rank order.
///
/// A rank panic propagates *without deadlocking the machine*: the dying
/// rank poisons every peer ([`Transport::poison_all`]), so ranks blocked
/// in a collective abort instead of waiting forever for messages that
/// will never come; every thread is then joined (claiming all the chained
/// panics) and the original payload is re-thrown — whichever rank, the
/// caller's included, threw it.
pub fn run_spmd<T: Transport + 'static, O: Send>(
    endpoints: Vec<T>,
    program: impl Fn(&mut T) -> O + Send + Sync,
) -> (Vec<O>, Vec<TrafficLedger>) {
    let ranks: Vec<usize> = (0..endpoints.len()).collect();
    run_ranks(ranks, endpoints, |_, ep| program(ep))
}

/// [`run_spmd`] with a per-rank shard moved into each rank.
pub(crate) fn run_ranks<S: Send, T: Transport, O: Send>(
    shards: Vec<S>,
    endpoints: Vec<T>,
    program: impl Fn(S, &mut T) -> O + Send + Sync,
) -> (Vec<O>, Vec<TrafficLedger>) {
    let p = shards.len();
    assert_eq!(p, endpoints.len(), "one endpoint per shard");
    let program = &program;
    let rank = move |shard: S, mut ep: T| {
        let out =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| program(shard, &mut ep)));
        match out {
            Ok(out) => (out, ep.finish()),
            Err(payload) => {
                ep.poison_all();
                std::panic::resume_unwind(payload);
            }
        }
    };
    let mut ranks = shards.into_iter().zip(endpoints);
    let Some((shard0, ep0)) = ranks.next() else {
        return (Vec::new(), Vec::new());
    };
    let mut results = Vec::with_capacity(p);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .map(|(shard, ep)| scope.spawn(move || rank(shard, ep)))
            .collect();
        results.push(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || rank(shard0, ep0),
        )));
        // Join *every* handle before propagating anything, so no panic is
        // left unclaimed for the scope to trip over during unwinding.
        for handle in handles {
            results.push(handle.join());
        }
    });
    if results.iter().any(Result::is_err) {
        // Prefer an original panic over the chained aborts it provoked on
        // blocked ranks (every transport-side abort message reads
        // "rank N aborting: ...").
        let mut errs: Vec<_> = results.into_iter().filter_map(Result::err).collect();
        let original = errs
            .iter()
            .position(|p| match p.downcast_ref::<String>() {
                Some(msg) => !msg.contains(" aborting:"),
                None => true,
            })
            .unwrap_or(0);
        std::panic::resume_unwind(errs.swap_remove(original));
    }
    let mut outputs = Vec::with_capacity(p);
    let mut ledgers = Vec::with_capacity(p);
    for res in results {
        let Ok((out, ledger)) = res else {
            unreachable!("error case handled above")
        };
        outputs.push(out);
        ledgers.push(ledger);
    }
    (outputs, ledgers)
}

/// Wires a loopback TCP machine for an in-process run.
fn loopback(p: usize) -> Vec<TcpTransport> {
    TcpTransport::wire_loopback(p, LOOPBACK_TIMEOUT).expect("loopback TCP wiring failed")
}

fn finish(output: Matrix, ledgers: Vec<TrafficLedger>) -> DistRun {
    let stats: Vec<CommStats> = ledgers.iter().map(TrafficLedger::totals).collect();
    let summary = CommSummary::from_ranks(&stats);
    DistRun {
        output,
        stats,
        ledgers,
        summary,
    }
}

/// One rank of Algorithm 3 (stationary tensor): the program PR 3 ran over
/// channels, now drivable by any [`Transport`] — including a lone rank in
/// its own process on a TCP machine.
pub fn stationary_rank<T: Transport>(
    shard: Alg3Shard<'_>,
    grid: &[usize],
    n: usize,
    r: usize,
    ep: &mut T,
) -> RowChunk {
    let pgrid = ProcessorGrid::new(grid);
    let order = shard.ranges.len();
    let me = shard.rank;
    // Line 4: All-Gather each input factor's block row across the
    // mode-k hyperslice from the per-rank owned chunks.
    let mut gathered: Vec<Matrix> = Vec::with_capacity(order);
    for k in 0..order {
        let block_rows = shard.ranges[k].1 - shard.ranges[k].0;
        if k == n {
            gathered.push(Matrix::zeros(block_rows, r));
            continue;
        }
        ep.begin_phase(Phase::FactorAllGather { mode: k });
        let comm = pgrid.hyperslice_comm(me, k);
        let full = all_gather(ep, &comm, &shard.factor_chunks[k]);
        assert_eq!(full.len(), block_rows * r);
        gathered.push(Matrix::from_rows_vec(block_rows, r, full));
    }

    // Line 6: local MTTKRP on the owned (stationary) subtensor, in place.
    let refs: Vec<&Matrix> = gathered.iter().collect();
    let c_local = block_mttkrp(&shard.block, &refs, n);

    // Line 7: Reduce-Scatter across the mode-n hyperslice.
    ep.begin_phase(Phase::OutputReduceScatter);
    let comm_n = pgrid.hyperslice_comm(me, n);
    let block_rows = shard.ranges[n].1 - shard.ranges[n].0;
    let counts = output_counts(block_rows, r, comm_n.size());
    let mine = reduce_scatter(ep, &comm_n, c_local.data(), &counts);
    let (g0, g1) = shard.factor_rows[n];
    (g0, g1, mine)
}

/// One rank of Algorithm 4 (general). `cols_per_part = R / P_0`.
pub fn general_rank<T: Transport>(
    shard: Alg4Shard,
    p0: usize,
    grid: &[usize],
    n: usize,
    r: usize,
    ep: &mut T,
) -> BlockChunk {
    let order = shard.ranges.len();
    let cols_per_part = r / p0.max(1);
    let mut gdims = Vec::with_capacity(order + 1);
    gdims.push(p0);
    gdims.extend_from_slice(grid);
    let pgrid = ProcessorGrid::new(&gdims);
    let me = shard.rank;

    // Line 3: All-Gather the subtensor parts across the rank-dimension
    // fiber, materializing the full block.
    ep.begin_phase(Phase::TensorAllGather);
    let fiber = pgrid.fiber_comm(me, 0);
    let gathered_tensor = all_gather(ep, &fiber, &shard.tensor_part);
    let sub_dims: Vec<usize> = shard.ranges.iter().map(|&(a, b)| b - a).collect();
    let sub_shape = Shape::new(&sub_dims);
    assert_eq!(gathered_tensor.len(), sub_shape.num_entries());
    let x_local = DenseTensor::from_vec(sub_shape, gathered_tensor);

    // Line 5: All-Gather the factor chunks A^(k)(S^(k), T_{p0}) across
    // the slice {p' : p'_0 = p_0, p'_k = p_k}.
    let mut gathered: Vec<Matrix> = Vec::with_capacity(order);
    for k in 0..order {
        let block_rows = shard.ranges[k].1 - shard.ranges[k].0;
        if k == n {
            gathered.push(Matrix::zeros(block_rows, cols_per_part));
            continue;
        }
        ep.begin_phase(Phase::FactorAllGather { mode: k });
        let varying: Vec<usize> = (0..=order).filter(|&j| j != 0 && j != k + 1).collect();
        let comm = pgrid.slice_comm(me, &varying);
        let full = all_gather(ep, &comm, &shard.factor_chunks[k]);
        assert_eq!(full.len(), block_rows * cols_per_part);
        gathered.push(Matrix::from_rows_vec(block_rows, cols_per_part, full));
    }

    // Line 7: local MTTKRP over the gathered subtensor and the T_{p0}
    // columns of the gathered factor blocks.
    let refs: Vec<&Matrix> = gathered.iter().collect();
    let c_local = local_mttkrp(&x_local, &refs, n);

    // Line 8: Reduce-Scatter across {p' : p'_0 = p_0, p'_n = p_n}.
    ep.begin_phase(Phase::OutputReduceScatter);
    let varying: Vec<usize> = (0..=order).filter(|&j| j != 0 && j != n + 1).collect();
    let comm_n = pgrid.slice_comm(me, &varying);
    let block_rows = shard.ranges[n].1 - shard.ranges[n].0;
    let counts = output_counts(block_rows, cols_per_part, comm_n.size());
    let mine = reduce_scatter(ep, &comm_n, c_local.data(), &counts);
    let (g0, g1) = shard.factor_rows[n];
    (g0, g1, shard.col_range.0, shard.col_range.1, mine)
}

/// One rank of the 1D parallel matmul baseline.
pub fn matmul_rank<T: Transport>(
    shard: MatmulShard<'_>,
    procs: usize,
    n: usize,
    r: usize,
    i_n: usize,
    ep: &mut T,
) -> RowChunk {
    // Local partial product over the owned slab, in place.
    let refs: Vec<&Matrix> = shard.local_factors.iter().collect();
    let partial = block_mttkrp(&shard.block, &refs, n);

    // Reduce-Scatter the I_n x R partials across all ranks.
    ep.begin_phase(Phase::OutputReduceScatter);
    let world = ep.world();
    let counts = output_counts(i_n, r, procs);
    let mine = reduce_scatter(ep, &world, partial.data(), &counts);
    let (lo, hi) = split_range(i_n, procs, shard.rank);
    (lo, hi, mine)
}

// ---------------------------------------------------------------------------
// Whole-machine entry points
// ---------------------------------------------------------------------------

/// Algorithm 3 (stationary tensor) on `P = prod(grid)` ranks, each owning
/// its shard, over in-process channels. `factors[n]` is ignored;
/// every `P_k` must divide `I_k`.
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
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shards = shard_alg3(x, factors, n, grid);
    let p = shards.len();
    let (chunks, ledgers) = match kind {
        TransportKind::Channel => run_ranks(shards, wire(p), move |shard, ep: &mut Endpoint| {
            stationary_rank(shard, grid, n, r, ep)
        }),
        TransportKind::Tcp => {
            run_ranks(shards, loopback(p), move |shard, ep: &mut TcpTransport| {
                stationary_rank(shard, grid, n, r, ep)
            })
        }
    };
    finish(assemble_row_chunks(x.shape().dim(n), r, &chunks), ledgers)
}

/// Algorithm 4 (general) on `P = p0 * prod(grid)` rank threads over
/// in-process channels. `p0` must divide `R`; every `P_k` must divide
/// `I_k`; `factors[n]` is ignored.
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
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shards = shard_alg4(x, factors, n, p0, grid);
    let p = shards.len();
    let (chunks, ledgers) = match kind {
        TransportKind::Channel => run_ranks(shards, wire(p), move |shard, ep: &mut Endpoint| {
            general_rank(shard, p0, grid, n, r, ep)
        }),
        TransportKind::Tcp => {
            run_ranks(shards, loopback(p), move |shard, ep: &mut TcpTransport| {
                general_rank(shard, p0, grid, n, r, ep)
            })
        }
    };
    finish(assemble_block_chunks(x.shape().dim(n), r, &chunks), ledgers)
}

/// The 1D parallel matmul baseline on `procs` rank threads over
/// in-process channels. `procs` must divide the slab-mode extent;
/// `factors[n]` is ignored.
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
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let i_n = x.shape().dim(n);
    let shards = shard_matmul(x, factors, n, procs);
    let p = shards.len();
    let (chunks, ledgers) = match kind {
        TransportKind::Channel => run_ranks(shards, wire(p), move |shard, ep: &mut Endpoint| {
            matmul_rank(shard, procs, n, r, i_n, ep)
        }),
        TransportKind::Tcp => {
            run_ranks(shards, loopback(p), move |shard, ep: &mut TcpTransport| {
                matmul_rank(shard, procs, n, r, i_n, ep)
            })
        }
    };
    finish(assemble_row_chunks(i_n, r, &chunks), ledgers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::par;
    use mttkrp_netsim::schedule;
    use mttkrp_tensor::mttkrp_reference;

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
                crate::collectives::all_gather(ep, &world, &[ep.world_rank() as f64])
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
                crate::collectives::all_gather(ep, &world, &[me as f64])
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
