//! The parallel MTTKRP-via-matmul baseline (paper Section VI-B).
//!
//! The baseline treats the MTTKRP as the rectangular matrix multiplication
//! `B = X_(n) * K` with `K` the explicit Khatri-Rao product. Following the
//! paper's (generous) assumptions, `K` is available in the right
//! distribution for free — only the matmul itself communicates.
//!
//! For the relevant shape (`I_n x I/I_n` times `I/I_n x R`) and `P` up to
//! `I^(1-1/N)`, the communication-optimal algorithm is the *one-large-
//! dimension* (1D) algorithm: partition the contraction dimension, compute
//! local `I_n x R` partial products, and Reduce-Scatter the result. Its
//! per-processor cost is `(1 - 1/P) * I_n * R ~ I_n * R`, independent of
//! `P` — this is the flat region of the matmul curve in Figure 4, and the
//! gap to Algorithm 3's `N R (I/P)^(1/N)` is the paper's headline
//! comparison. (The large-`P` CARMA regimes are modeled analytically in
//! [`crate::model::carma_cost`]; executing them would only change constants.)

use super::layout::{output_counts, shard_matmul, MatmulShard};
use super::stationary::{assemble_row_chunks, RowChunk};
use super::ParRun;
use crate::kernels::block_mttkrp;
use mttkrp_netsim::schedule::Phase;
use mttkrp_netsim::{collectives, run_spmd, wire, PeerExchange};
use mttkrp_tensor::{DenseTensor, Matrix};

/// One rank of the 1D matmul baseline, over its slab and its endpoint: the
/// rank's rows of `B^(n)`.
pub fn matmul_rank<E: PeerExchange>(
    shard: &MatmulShard,
    n: usize,
    r: usize,
    ep: &mut E,
) -> RowChunk {
    // Computing the local partial product B_partial = X_slab * K_slab is
    // exactly a local MTTKRP over the slab, read in place; an empty slab
    // contributes zeros.
    let rows = shard.partial_rows;
    let partial = match &shard.block {
        Some(block) => {
            let refs: Vec<&Matrix> = shard.local_factors.iter().collect();
            block_mttkrp(block, &refs, n).into_data()
        }
        None => vec![0.0; rows * r],
    };

    // Reduce-Scatter the I_n x R partial products across all ranks.
    ep.begin_phase(Phase::OutputReduceScatter);
    let world = ep.world();
    let counts = output_counts(rows, r, world.size());
    let mine = collectives::reduce_scatter(ep, &world, &partial, &counts);
    let (lo, hi) = shard.out_rows;
    (lo, hi, mine)
}

/// Runs the 1D matmul baseline on the `procs` endpoints `fabric(procs)`
/// hands out: one [`matmul_rank`] per endpoint, outputs assembled.
///
/// The contraction dimension (all modes except `n`, linearized) is split by
/// `split_range` slabs of the *last* non-`n` mode. `factors[n]` is ignored.
pub fn mttkrp_par_matmul_on<E: PeerExchange>(
    fabric: impl FnOnce(usize) -> Vec<E>,
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    procs: usize,
) -> ParRun {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shards = shard_matmul(x, factors, n, procs);
    let (chunks, ledgers) = run_spmd(fabric(shards.len()), |ep| {
        matmul_rank(&shards[ep.world_rank()], n, r, ep)
    });
    ParRun::new(assemble_row_chunks(x.shape().dim(n), r, &chunks), ledgers)
}

/// Runs the 1D matmul baseline on `procs` simulated processors:
/// [`mttkrp_par_matmul_on`] over the in-process channel fabric.
pub fn mttkrp_par_matmul(x: &DenseTensor, factors: &[&Matrix], n: usize, procs: usize) -> ParRun {
    mttkrp_par_matmul_on(wire, x, factors, n, procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::mttkrp_stationary;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 80 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn baseline_correct_all_modes() {
        let (x, factors) = setup(&[4, 6, 8], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let run = mttkrp_par_matmul(&x, &refs, n, 2);
            let expect = mttkrp_reference(&x, &refs, n);
            assert!(run.output.max_abs_diff(&expect) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn cost_is_flat_in_p() {
        // 1D algorithm: per-rank received words = (1 - 1/P) I_n R, nearly
        // independent of P -- the flat matmul curve of Figure 4.
        let (x, factors) = setup(&[8, 8, 8], 4, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let w2 = mttkrp_par_matmul(&x, &refs, 0, 2).max_recv_words();
        let w4 = mttkrp_par_matmul(&x, &refs, 0, 4).max_recv_words();
        let w8 = mttkrp_par_matmul(&x, &refs, 0, 8).max_recv_words();
        let inr = 8 * 4u64;
        assert_eq!(w2, inr / 2);
        assert_eq!(w4, inr * 3 / 4);
        assert_eq!(w8, inr * 7 / 8);
        assert!(w8 < inr);
    }

    #[test]
    fn stationary_beats_matmul_baseline() {
        // The paper's headline: exploiting tensor structure moves fewer
        // words. The matmul baseline must communicate the whole I_n x R
        // output (~I_n R words per rank); the stationary algorithm's
        // traffic shrinks with P. At the asymptotic crossover P > N^N this
        // holds cubically; at small P it already shows when mode n is long.
        // dims (64, 8, 8), n = 0, R = 4, P = 8:
        //   stationary (2x2x2): 3*32 + 3*4 + 3*4 = 120 words each way;
        //   matmul 1D:          (7/8) * 64 * 4  = 224 words each way.
        let (x, factors) = setup(&[64, 8, 8], 4, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let ours = mttkrp_stationary(&x, &refs, 0, &[2, 2, 2]);
        let mm = mttkrp_par_matmul(&x, &refs, 0, 8);
        assert_eq!(ours.max_recv_words(), 120);
        assert_eq!(mm.max_recv_words(), 224);
        assert!(ours.summary.max_words < mm.summary.max_words);
        let expect = mttkrp_reference(&x, &refs, 0);
        assert!(ours.output.max_abs_diff(&expect) < 1e-10);
        assert!(mm.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn single_proc_no_comm() {
        let (x, factors) = setup(&[3, 4, 5], 2, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_par_matmul(&x, &refs, 2, 1);
        assert_eq!(run.summary.total_words, 0);
        let expect = mttkrp_reference(&x, &refs, 2);
        assert!(run.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn slab_mode_avoids_n() {
        // When n is the last mode, the slab must use the second-to-last.
        let (x, factors) = setup(&[4, 6, 8], 2, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_par_matmul(&x, &refs, 2, 3);
        let expect = mttkrp_reference(&x, &refs, 2);
        assert!(run.output.max_abs_diff(&expect) < 1e-10);
    }
}
