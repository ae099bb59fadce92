//! Collective communication operations, implemented with the *bucket*
//! (ring) algorithms the paper assumes (Section V-C3): with `q` processors
//! each collective proceeds in `q - 1` steps, at each of which each
//! processor passes one block to its ring neighbor. The per-rank bandwidth
//! cost is exactly `sum of the other ranks' block sizes`, which is
//! `(q - 1) * w` for balanced blocks — bandwidth-optimal (Chan et al.).
//!
//! All collectives must be called by every member of the communicator
//! (SPMD); block sizes may be uneven.
//!
//! The ring algorithms are generic over the transport ([`PeerExchange`]):
//! the channel fabric and `mttkrp-dist`'s TCP transport run the exact same
//! routing and the same deterministic reduction order — which is what makes
//! a run bitwise identical on every fabric. There is exactly one
//! implementation of each ring; transports differ only in how a `sendrecv`
//! moves the words.

use crate::comm::Comm;
use crate::transport::PeerExchange;

/// Ring All-Gather: every rank contributes `local`; returns the
/// concatenation of all contributions in local-index order.
///
/// Per-rank cost: sends `sum_{j != me} |block_j|`... more precisely each
/// rank forwards `q - 1` blocks and receives `q - 1` blocks, whose total
/// size is `total - |local|` words each way.
pub fn all_gather<T: PeerExchange>(rank: &mut T, comm: &Comm, local: &[f64]) -> Vec<f64> {
    let q = comm.size();
    let me = comm
        .local_index(rank.world_rank())
        .expect("caller must be a member of the communicator");
    if q == 1 {
        return local.to_vec();
    }
    let right = (me + 1) % q;
    let left = (me + q - 1) % q;

    let mut blocks: Vec<Option<Vec<f64>>> = vec![None; q];
    blocks[me] = Some(local.to_vec());
    // At step s we forward the block that originated at (me - s) mod q and
    // receive the block that originated at (me - s - 1) mod q.
    for s in 0..(q - 1) {
        let send_origin = (me + q - s % q) % q;
        let send_origin = send_origin % q;
        let outgoing = blocks[send_origin]
            .as_ref()
            .expect("ring invariant violated: block to forward not present")
            .clone();
        let incoming = rank.sendrecv(comm, right, &outgoing, left);
        let recv_origin = (me + q - (s + 1) % q) % q % q;
        blocks[recv_origin] = Some(incoming);
    }

    let mut out = Vec::new();
    for b in blocks {
        out.extend(b.expect("all-gather finished with a missing block"));
    }
    out
}

/// Ring Reduce-Scatter: `data` is the concatenation of `q` segments with
/// lengths `counts[0..q]` (in local-index order); every rank contributes a
/// full copy of `data`, and rank `i` returns the element-wise sum of all
/// contributions restricted to segment `i`.
///
/// The reduction order along the ring is deterministic, so results are
/// bitwise reproducible — across runs *and* across transports.
pub fn reduce_scatter<T: PeerExchange>(
    rank: &mut T,
    comm: &Comm,
    data: &[f64],
    counts: &[usize],
) -> Vec<f64> {
    let q = comm.size();
    assert_eq!(counts.len(), q, "need one segment count per rank");
    let total: usize = counts.iter().sum();
    assert_eq!(data.len(), total, "data length must equal sum of counts");
    let me = comm
        .local_index(rank.world_rank())
        .expect("caller must be a member of the communicator");

    let offsets: Vec<usize> = counts
        .iter()
        .scan(0usize, |acc, &c| {
            let o = *acc;
            *acc += c;
            Some(o)
        })
        .collect();
    let segment = |j: usize, buf: &[f64]| buf[offsets[j]..offsets[j] + counts[j]].to_vec();

    if q == 1 {
        return segment(0, data);
    }
    let right = (me + 1) % q;
    let left = (me + q - 1) % q;

    // Working copy of my contribution; segments accumulate partial sums as
    // they travel around the ring. The chain for segment j starts at rank
    // (j + 1) mod q and ends at rank j after q - 1 hops.
    let mut work: Vec<Vec<f64>> = (0..q).map(|j| segment(j, data)).collect();
    for s in 0..(q - 1) {
        // At step s, I hold the s-hop partial of segment (me - s - 1) mod q;
        // forward it, then receive and accumulate segment (me - s - 2) mod q.
        let send_seg = (me + q - (s + 1) % q) % q;
        let send_seg = send_seg % q;
        let outgoing = work[send_seg].clone();
        let incoming = rank.sendrecv(comm, right, &outgoing, left);
        let recv_seg = (me + 2 * q - (s + 2)) % q;
        assert_eq!(incoming.len(), counts[recv_seg], "segment size mismatch");
        for (w, x) in work[recv_seg].iter_mut().zip(&incoming) {
            *w += x;
        }
    }
    work[me].clone()
}

/// All-Reduce = Reduce-Scatter + All-Gather (both bucket algorithms), the
/// standard bandwidth-optimal composition. Segment sizes are balanced as
/// evenly as possible.
pub fn all_reduce<T: PeerExchange>(rank: &mut T, comm: &Comm, data: &[f64]) -> Vec<f64> {
    let q = comm.size();
    let n = data.len();
    let base = n / q;
    let rem = n % q;
    let counts: Vec<usize> = (0..q).map(|j| base + usize::from(j < rem)).collect();
    let mine = reduce_scatter(rank, comm, data, &counts);
    all_gather(rank, comm, &mine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run_spmd, SimMachine};
    use crate::schedule::{all_gather_traffic, reduce_scatter_traffic, Phase};
    use crate::transport::wire;

    #[test]
    fn all_gather_balanced() {
        let p = 4;
        let res = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            let me = rank.world_rank() as f64;
            all_gather(rank, &world, &[me * 2.0, me * 2.0 + 1.0])
        });
        for out in &res.outputs {
            assert_eq!(out, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        }
        // Bucket cost: each rank sends and receives (q-1)*w = 3*2 words.
        for st in &res.stats {
            assert_eq!(st.words_sent, 6);
            assert_eq!(st.words_received, 6);
        }
    }

    #[test]
    fn all_gather_uneven_blocks() {
        let p = 3;
        let res = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            let me = rank.world_rank();
            let local: Vec<f64> = (0..=me).map(|i| (me * 10 + i) as f64).collect();
            all_gather(rank, &world, &local)
        });
        for out in &res.outputs {
            assert_eq!(out, &[0.0, 10.0, 11.0, 20.0, 21.0, 22.0]);
        }
        // Each rank receives total - own words.
        assert_eq!(res.stats[0].words_received, 5);
        assert_eq!(res.stats[1].words_received, 4);
        assert_eq!(res.stats[2].words_received, 3);
    }

    #[test]
    fn all_gather_singleton_is_free() {
        let res = SimMachine::new(1).run(|rank| {
            let world = rank.world();
            all_gather(rank, &world, &[1.0, 2.0])
        });
        assert_eq!(res.outputs[0], vec![1.0, 2.0]);
        assert_eq!(res.summary().total_words, 0);
    }

    #[test]
    fn reduce_scatter_sums_segments() {
        let p = 3;
        let counts = [2usize, 1, 2];
        let res = SimMachine::new(p).run(|rank| {
            let world = rank.world();
            let me = rank.world_rank() as f64;
            // Rank r contributes [r, r, r, r, r] (5 = 2+1+2 words).
            let data = vec![me; 5];
            reduce_scatter(rank, &world, &data, &counts)
        });
        // Sum over ranks of r = 0+1+2 = 3 in every position.
        assert_eq!(res.outputs[0], vec![3.0, 3.0]);
        assert_eq!(res.outputs[1], vec![3.0]);
        assert_eq!(res.outputs[2], vec![3.0, 3.0]);
    }

    #[test]
    fn reduce_scatter_cost_matches_bucket_bound() {
        // Balanced segments of w words: each rank sends exactly (q-1)*w.
        let p = 4;
        let w = 3;
        let res = SimMachine::new(p).run(move |rank| {
            let world = rank.world();
            let data = vec![1.0; p * w];
            let counts = vec![w; p];
            reduce_scatter(rank, &world, &data, &counts)
        });
        for st in &res.stats {
            assert_eq!(st.words_sent, ((p - 1) * w) as u64);
            assert_eq!(st.words_received, ((p - 1) * w) as u64);
        }
        for out in &res.outputs {
            assert_eq!(out, &vec![p as f64; w]);
        }
    }

    #[test]
    fn all_reduce_matches_serial_sum() {
        let p = 5;
        let n = 7;
        let res = SimMachine::new(p).run(move |rank| {
            let world = rank.world();
            let me = rank.world_rank();
            let data: Vec<f64> = (0..n).map(|i| (me * n + i) as f64).collect();
            all_reduce(rank, &world, &data)
        });
        let mut expect = vec![0.0; n];
        for r in 0..p {
            for (i, e) in expect.iter_mut().enumerate() {
                *e += (r * n + i) as f64;
            }
        }
        for out in &res.outputs {
            assert_eq!(out, &expect);
        }
    }

    #[test]
    fn collectives_on_subcommunicator() {
        use crate::comm::Comm;
        let p = 4;
        // Even ranks form one group, odd ranks another.
        let res = SimMachine::new(p).run(move |rank| {
            let me = rank.world_rank();
            let members: Vec<usize> = (0..p).filter(|r| r % 2 == me % 2).collect();
            let comm = Comm::subset(members, 1);
            all_gather(rank, &comm, &[me as f64])
        });
        assert_eq!(res.outputs[0], vec![0.0, 2.0]);
        assert_eq!(res.outputs[1], vec![1.0, 3.0]);
        assert_eq!(res.outputs[2], vec![0.0, 2.0]);
        assert_eq!(res.outputs[3], vec![1.0, 3.0]);
    }

    #[test]
    fn concurrent_disjoint_collectives_do_not_interfere() {
        use crate::comm::Comm;
        let p = 6;
        let res = SimMachine::new(p).run(move |rank| {
            let me = rank.world_rank();
            let group = me / 3; // {0,1,2} and {3,4,5}
            let members: Vec<usize> = (group * 3..group * 3 + 3).collect();
            let comm = Comm::subset(members, 2);
            let summed = all_reduce(rank, &comm, &[me as f64]);
            summed[0]
        });
        assert_eq!(res.outputs[..3], [3.0, 3.0, 3.0]);
        assert_eq!(res.outputs[3..], [12.0, 12.0, 12.0]);
    }

    #[test]
    fn measured_traffic_matches_schedule_prediction() {
        let p = 4;
        let sizes = [3usize, 1, 4, 2];
        let (_, ledgers) = run_spmd(wire(p), |ep| {
            let me = ep.world_rank();
            let world = ep.world();
            ep.begin_phase(Phase::FactorAllGather { mode: 1 });
            let gathered = all_gather(ep, &world, &vec![1.0; sizes[me]]);
            ep.begin_phase(Phase::OutputReduceScatter);
            reduce_scatter(ep, &world, &gathered, &sizes)
        });
        for (me, ledger) in ledgers.iter().enumerate() {
            let expect = [
                all_gather_traffic(Phase::FactorAllGather { mode: 1 }, &sizes, me),
                reduce_scatter_traffic(Phase::OutputReduceScatter, &sizes, me),
            ];
            assert!(
                ledger.matches(&expect),
                "rank {me}:\n{}",
                ledger.diff_table(&expect)
            );
        }
    }

    #[test]
    fn singleton_collectives_move_nothing() {
        let (outs, ledgers) = run_spmd(wire(1), |ep| {
            let world = ep.world();
            ep.begin_phase(Phase::TensorAllGather);
            let g = all_gather(ep, &world, &[1.0, 2.0]);
            ep.begin_phase(Phase::OutputReduceScatter);
            let r = reduce_scatter(ep, &world, &[3.0, 4.0], &[2]);
            (g, r)
        });
        let ((g, r), ledger) = (&outs[0], &ledgers[0]);
        assert_eq!(g, &[1.0, 2.0]);
        assert_eq!(r, &[3.0, 4.0]);
        assert_eq!(ledger.totals().words_sent, 0);
        assert_eq!(ledger.totals().messages_sent, 0);
    }
}
