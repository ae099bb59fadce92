//! Algorithm 4 of the paper: the parallel *general* MTTKRP, which
//! parallelizes over all `N+1` dimensions of the iteration space.
//!
//! Processors form an `(N+1)`-way grid `P = P_0 * P_1 * ... * P_N`; the new
//! dimension `P_0` partitions the rank (factor-column) dimension `[R]` into
//! parts `T_{p_0}`. Unlike Algorithm 3, the tensor *is* communicated:
//! processor `p` initially owns only a `1/P_0` part of its subtensor, and
//! Line 3 All-Gathers the full subtensor across the grid fiber along
//! dimension 0.
//!
//! With `p_0 = 1` the algorithm reduces exactly to Algorithm 3. With the
//! optimal `P_0 ~ (NR)^(N/(2N-1)) / (I/P)^((N-1)/(2N-1))` its cost attains
//! Theorem 4.2's bound (the large-`P` regime of Corollary 4.2).

use super::layout::{local_partial, output_counts, shard_alg4, Alg4Shard};
use super::ParRun;
use crate::kernels::TensorBlock;
use mttkrp_netsim::schedule::Phase;
use mttkrp_netsim::{collectives, run_spmd, wire, PeerExchange, ProcessorGrid};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};

/// Per-rank output: global row range, global column range, row-major chunk.
pub type BlockChunk = (usize, usize, usize, usize, Vec<f64>);

/// Assembles rectangular chunks into a full `rows x cols` matrix, asserting
/// that the chunks tile the output exactly (every entry produced once).
pub fn assemble_block_chunks(rows: usize, cols: usize, chunks: &[BlockChunk]) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    let mut covered = vec![false; rows * cols];
    for (r0, r1, c0, c1, data) in chunks {
        let w = c1 - c0;
        assert_eq!(data.len(), (r1 - r0) * w, "chunk size mismatch");
        for (li, row) in (*r0..*r1).enumerate() {
            for (lj, col) in (*c0..*c1).enumerate() {
                let cell = row * cols + col;
                assert!(!covered[cell], "entry ({row},{col}) produced twice");
                covered[cell] = true;
                out[(row, col)] = data[li * w + lj];
            }
        }
    }
    assert!(covered.iter().all(|&c| c), "some output entries missing");
    out
}

/// One rank of Algorithm 4 on the grid `p0 x grid`, over its shard and its
/// endpoint: the rank's block of `B^(n)`.
pub fn general_rank<E: PeerExchange>(
    shard: &Alg4Shard,
    p0: usize,
    grid: &[usize],
    n: usize,
    ep: &mut E,
) -> BlockChunk {
    let order = shard.ranges.len();
    let cols = shard.col_range.1 - shard.col_range.0;
    let rows = |k: usize| shard.ranges[k].1 - shard.ranges[k].0;
    // Grid layout: dimension 0 is the rank dimension p_0; dimension k+1 is
    // the tensor mode k.
    let mut gdims = Vec::with_capacity(order + 1);
    gdims.push(p0);
    gdims.extend_from_slice(grid);
    let pgrid = ProcessorGrid::new(&gdims);
    let me = shard.rank;

    // Line 3: All-Gather the subtensor parts across the fiber along grid
    // dimension 0 (the P_0 ranks sharing this subtensor).
    ep.begin_phase(Phase::TensorAllGather);
    let fiber = pgrid.fiber_comm(me, 0);
    let gathered_tensor = collectives::all_gather(ep, &fiber, &shard.tensor_part);
    let sub_dims: Vec<usize> = (0..order).map(rows).collect();

    // Line 5: All-Gather factor chunks A^(k)(S^(k), T_{p_0}) across the
    // slice {p' : p'_0 = p_0, p'_k = p_k}.
    let mut gathered: Vec<Vec<f64>> = Vec::with_capacity(order);
    for k in 0..order {
        if k == n {
            gathered.push(Vec::new());
            continue;
        }
        ep.begin_phase(Phase::FactorAllGather { mode: k });
        let varying: Vec<usize> = (0..=order).filter(|&j| j != 0 && j != k + 1).collect();
        let comm = pgrid.slice_comm(me, &varying);
        let full = collectives::all_gather(ep, &comm, &shard.factor_chunks[k]);
        assert_eq!(full.len(), rows(k) * cols);
        gathered.push(full);
    }

    // Line 7: local MTTKRP over the gathered subtensor and the T_{p_0}
    // columns of the gathered factor blocks — unless the subtensor or the
    // column part is empty.
    let x_local = (cols > 0 && sub_dims.iter().all(|&d| d > 0))
        .then(|| DenseTensor::from_vec(Shape::new(&sub_dims), gathered_tensor));
    let block = x_local.as_ref().map(TensorBlock::whole);
    let c_local = local_partial(block.as_ref(), gathered, n, rows(n), cols);

    // Line 8: Reduce-Scatter across {p' : p'_0 = p_0, p'_n = p_n}.
    ep.begin_phase(Phase::OutputReduceScatter);
    let varying: Vec<usize> = (0..=order).filter(|&j| j != 0 && j != n + 1).collect();
    let comm_n = pgrid.slice_comm(me, &varying);
    let counts = output_counts(rows(n), cols, comm_n.size());
    let mine = collectives::reduce_scatter(ep, &comm_n, &c_local, &counts);
    let (g0, g1) = shard.factor_rows[n];
    (g0, g1, shard.col_range.0, shard.col_range.1, mine)
}

/// Runs Algorithm 4 on the endpoints `fabric(P)` hands out, `P = p0 *
/// prod(grid)`: one [`general_rank`] per endpoint, outputs assembled.
///
/// `p0` partitions the rank dimension into `split_range` parts; `grid` gives
/// `(P_1, ..., P_N)`, and mode `k` is cut into `P_k` blocks the same way.
/// `factors[n]` is ignored. With `p0 == 1` this is Algorithm 3 with extra
/// bookkeeping.
pub fn mttkrp_general_on<E: PeerExchange>(
    fabric: impl FnOnce(usize) -> Vec<E>,
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    p0: usize,
    grid: &[usize],
) -> ParRun {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shards = shard_alg4(x, factors, n, p0, grid);
    let (chunks, ledgers) = run_spmd(fabric(shards.len()), |ep| {
        general_rank(&shards[ep.world_rank()], p0, grid, n, ep)
    });
    ParRun::new(assemble_block_chunks(x.shape().dim(n), r, &chunks), ledgers)
}

/// Runs Algorithm 4 on the simulated machine: [`mttkrp_general_on`] over
/// the in-process channel fabric.
pub fn mttkrp_general(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    p0: usize,
    grid: &[usize],
) -> ParRun {
    mttkrp_general_on(wire, x, factors, n, p0, grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use crate::par::mttkrp_stationary;
    use crate::problem::Problem;
    use mttkrp_netsim::schedule::alg4_schedule;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 70 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn p0_equals_1_matches_stationary_exactly() {
        let (x, factors) = setup(&[4, 6, 4], 4, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let gen = mttkrp_general(&x, &refs, n, 1, &[2, 1, 2]);
            let stat = mttkrp_stationary(&x, &refs, n, &[2, 1, 2]);
            assert!(gen.output.max_abs_diff(&stat.output) < 1e-12, "mode {n}");
            // Same communication volume, too (the degenerate fiber
            // all-gather is free).
            assert_eq!(gen.summary.total_words, stat.summary.total_words);
        }
    }

    #[test]
    fn correct_with_rank_partitioning() {
        let (x, factors) = setup(&[4, 4, 6], 6, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let run = mttkrp_general(&x, &refs, n, 3, &[2, 2, 1]);
            let expect = mttkrp_reference(&x, &refs, n);
            assert!(
                run.output.max_abs_diff(&expect) < 1e-10,
                "mode {n}: {}",
                run.output.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn correct_with_pure_rank_parallelism() {
        // P = P_0 only: each group of columns computed independently;
        // the tensor is replicated via the fiber all-gather.
        let (x, factors) = setup(&[3, 4, 5], 8, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_general(&x, &refs, 1, 4, &[1, 1, 1]);
        let expect = mttkrp_reference(&x, &refs, 1);
        assert!(run.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn measured_words_match_eq18_even_case() {
        // dims 8^3, R = 8, P0 = 2, grid 2x2x2 (P = 16).
        // Tensor term: (P0-1) * I/P = 1 * 32 = 32 per rank.
        // Factor terms k != n: q = P/(P0 Pk) = 4, w = Ik R/P = 4:
        //   (4-1)*4 = 12 each; reduce-scatter same.
        let (x, factors) = setup(&[8, 8, 8], 8, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_general(&x, &refs, 0, 2, &[2, 2, 2]);
        let p = Problem::new(&[8, 8, 8], 8);
        let modeled = model::alg4_cost(&p, 2, &[2, 2, 2]);
        assert_eq!(modeled, 32.0 + 3.0 * 12.0);
        for st in &run.stats {
            assert_eq!(st.words_received as f64, modeled);
            assert_eq!(st.words_sent as f64, modeled);
        }
        let expect = mttkrp_reference(&x, &refs, 0);
        assert!(run.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn rank_partitioning_reduces_factor_traffic_when_r_large() {
        // R large relative to I/P: Algorithm 4 with P0 > 1 should move
        // fewer words than Algorithm 3 on the same processor count.
        let (x, factors) = setup(&[4, 4, 4], 32, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let stat = mttkrp_stationary(&x, &refs, 0, &[4, 2, 2]);
        let gen = mttkrp_general(&x, &refs, 0, 4, &[2, 2, 1]);
        assert!(
            gen.summary.max_words < stat.summary.max_words,
            "alg4 {} !< alg3 {}",
            gen.summary.max_words,
            stat.summary.max_words
        );
        let expect = mttkrp_reference(&x, &refs, 0);
        assert!(gen.output.max_abs_diff(&expect) < 1e-10);
        assert!(stat.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn order4_with_p0() {
        let (x, factors) = setup(&[4, 2, 4, 2], 4, 6);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_general(&x, &refs, 2, 2, &[2, 1, 2, 1]);
        let expect = mttkrp_reference(&x, &refs, 2);
        assert!(run.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn uneven_rank_parts_match_oracle_and_schedule() {
        // R = 5 on P_0 = 2: column parts of 3 and 2. P_0 = 8 > R leaves
        // three ranks no columns; they still forward their tensor parts.
        let dims = [4usize, 4, 4];
        let (x, factors) = setup(&dims, 5, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for (p0, grid) in [(2usize, [1usize, 1, 1]), (2, [1, 2, 1]), (8, [1, 1, 1])] {
            let run = mttkrp_general(&x, &refs, 0, p0, &grid);
            let expect = mttkrp_reference(&x, &refs, 0);
            assert!(
                run.output.max_abs_diff(&expect) < 1e-10,
                "p0 {p0} grid {grid:?}"
            );
            let predicted = alg4_schedule(&dims, 5, 0, p0, &grid);
            for (me, ledger) in run.ledgers.iter().enumerate() {
                assert_eq!(
                    ledger.phases(),
                    &predicted.ranks[me].phases[..],
                    "rank {me}"
                );
            }
        }
    }
}
