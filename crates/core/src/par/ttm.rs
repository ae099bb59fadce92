//! Parallel multi-TTM — the Tucker-side extension of Section VII,
//! executed with the same stationary-tensor organization as Algorithm 3.
//!
//! The HOOI bottleneck `Y = X x_{k != n} U^(k)T` (contract every mode but
//! `n` with a tall orthonormal factor `U^(k)`, `I_k x R_k`) has exactly
//! Algorithm 3's data-flow shape:
//! 1. All-Gather each `U^(k)`'s block rows within the mode-`k` hyperslice;
//! 2. a local TTM chain on the stationary subtensor;
//! 3. Reduce-Scatter the partial results within the mode-`n` hyperslice
//!    (ranks sharing `p_n` compute contributions to the same output rows).
//!
//! The factor traffic is `sum_{k != n} (P/P_k - 1) I_k R_k / P` words per
//! rank — Eq. (14) with per-mode ranks — which is how the paper's
//! machinery transfers to Tucker kernels.

use super::dist::{split_range, split_sizes};
use mttkrp_netsim::{collectives, CommStats, CommSummary, ProcessorGrid, SimMachine};
use mttkrp_tensor::{ttm_chain, DenseTensor, Matrix, Shape};

/// Result of a parallel multi-TTM run.
#[derive(Debug)]
pub struct ParTtmRun {
    /// The assembled output tensor `Y` (extent `R_k` in every contracted
    /// mode, `I_n` in mode `n`).
    pub output: DenseTensor,
    /// Per-rank communication counters.
    pub stats: Vec<CommStats>,
    /// Aggregate summary.
    pub summary: CommSummary,
}

/// Runs the stationary-tensor parallel multi-TTM: contracts every mode
/// except `n` with `us[k]^T` (`us[k]` is `I_k x R_k`; `us[n]` is ignored).
///
/// `grid` gives `(P_1, ..., P_N)`; every `P_k` must divide `I_k`.
pub fn ttm_compress_stationary(
    x: &DenseTensor,
    us: &[&Matrix],
    n: usize,
    grid: &[usize],
) -> ParTtmRun {
    let shape = x.shape().clone();
    let order = shape.order();
    assert!(n < order, "mode out of range");
    assert_eq!(us.len(), order, "need one factor per mode");
    for (k, u) in us.iter().enumerate() {
        if k != n {
            assert_eq!(u.rows(), shape.dim(k), "factor {k} must have I_{k} rows");
        }
    }
    assert_eq!(grid.len(), order, "need one grid dimension per mode");
    for (k, (&g, d)) in grid.iter().zip(shape.dims()).enumerate() {
        assert!(
            g >= 1 && d % g == 0,
            "grid dim {k} = {g} must divide I_{k} = {d}"
        );
    }
    let pgrid = ProcessorGrid::new(grid);
    let machine = SimMachine::new(pgrid.num_ranks());

    // Output shape: R_k in contracted modes, I_n in mode n.
    let out_dims: Vec<usize> = (0..order)
        .map(|k| if k == n { shape.dim(n) } else { us[k].cols() })
        .collect();
    let out_shape = Shape::new(&out_dims);
    let slice_size: usize = out_dims
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != n)
        .map(|(_, &d)| d)
        .product();

    // Per-rank output: global mode-n row range + per-row slices (each of
    // `slice_size` words, the contracted-mode hyperslab for that row).
    type SliceChunk = (usize, usize, Vec<f64>);

    let result = machine.run(|rank| -> SliceChunk {
        let me = rank.world_rank();
        let coords = pgrid.coords(me);
        let ranges: Vec<(usize, usize)> = (0..order)
            .map(|k| {
                let rows = shape.dim(k) / grid[k];
                (coords[k] * rows, (coords[k] + 1) * rows)
            })
            .collect();
        let x_local = x.subtensor(&ranges);

        // Gather factor block rows within hyperslices (as in Algorithm 3).
        let mut gathered: Vec<Option<Matrix>> = (0..order).map(|_| None).collect();
        for k in 0..order {
            if k == n {
                continue;
            }
            let block_rows = ranges[k].1 - ranges[k].0;
            let r_k = us[k].cols();
            let comm = pgrid.hyperslice_comm(me, k);
            let my_idx = comm.local_index(me).expect("member of own hyperslice");
            let (lo, hi) = split_range(block_rows, comm.size(), my_idx);
            let mut chunk = Vec::with_capacity((hi - lo) * r_k);
            for row in lo..hi {
                chunk.extend_from_slice(us[k].row(ranges[k].0 + row));
            }
            let full = collectives::all_gather(rank, &comm, &chunk);
            assert_eq!(full.len(), block_rows * r_k);
            gathered[k] = Some(Matrix::from_rows_vec(block_rows, r_k, full));
        }

        // Local TTM chain: contract each k != n with the gathered block's
        // transpose.
        let transposed: Vec<(usize, Matrix)> = (0..order)
            .filter(|&k| k != n)
            .map(|k| (k, gathered[k].as_ref().unwrap().transpose()))
            .collect();
        let chain: Vec<(usize, &Matrix)> = transposed.iter().map(|(k, m)| (*k, m)).collect();
        let y_local = ttm_chain(&x_local, &chain);

        // Serialize as mode-n-major rows of contracted-mode slices.
        let local_rows = ranges[n].1 - ranges[n].0;
        let ly_shape = y_local.shape().clone();
        debug_assert_eq!(ly_shape.dim(n), local_rows);
        let mut buf = vec![0.0f64; local_rows * slice_size];
        let mut idx = vec![0usize; order];
        for (lin, &v) in y_local.data().iter().enumerate() {
            ly_shape.delinearize_into(lin, &mut idx);
            let row = idx[n];
            // Colex position among the non-n modes.
            let mut pos = 0usize;
            let mut stride = 1usize;
            for (k, &i) in idx.iter().enumerate() {
                if k == n {
                    continue;
                }
                pos += i * stride;
                stride *= ly_shape.dim(k);
            }
            buf[row * slice_size + pos] = v;
        }

        // Reduce-Scatter across the mode-n hyperslice, by output rows.
        let comm_n = pgrid.hyperslice_comm(me, n);
        let my_idx = comm_n.local_index(me).expect("member of own hyperslice");
        let counts: Vec<usize> = split_sizes(local_rows, comm_n.size())
            .into_iter()
            .map(|rows| rows * slice_size)
            .collect();
        let mine = collectives::reduce_scatter(rank, &comm_n, &buf, &counts);
        let (lo, hi) = split_range(local_rows, comm_n.size(), my_idx);
        (ranges[n].0 + lo, ranges[n].0 + hi, mine)
    });

    // Assemble.
    let mut output = vec![0.0; out_shape.num_entries()];
    let out_strides = out_shape.strides();
    let non_n: Vec<usize> = (0..order).filter(|&k| k != n).collect();
    for (lo, hi, data) in &result.outputs {
        for (li, row) in (*lo..*hi).enumerate() {
            for pos in 0..slice_size {
                // Delinearize pos over the non-n output modes.
                let mut rem = pos;
                let mut lin = row * out_strides[n];
                for &k in &non_n {
                    let d = out_dims[k];
                    lin += (rem % d) * out_strides[k];
                    rem /= d;
                }
                output[lin] = data[li * slice_size + pos];
            }
        }
    }
    let summary = CommSummary::from_ranks(&result.stats);
    ParTtmRun {
        output: DenseTensor::from_vec(out_shape, output),
        stats: result.stats,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(dims: &[usize], ranks: &[usize], seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape, seed);
        let us = dims
            .iter()
            .zip(ranks)
            .enumerate()
            .map(|(k, (&d, &r))| Matrix::random(d, r, seed + 500 + k as u64))
            .collect();
        (x, us)
    }

    fn sequential_oracle(x: &DenseTensor, us: &[&Matrix], n: usize) -> DenseTensor {
        let transposed: Vec<(usize, Matrix)> = (0..x.order())
            .filter(|&k| k != n)
            .map(|k| (k, us[k].transpose()))
            .collect();
        let chain: Vec<(usize, &Matrix)> = transposed.iter().map(|(k, m)| (*k, m)).collect();
        ttm_chain(x, &chain)
    }

    #[test]
    fn matches_sequential_chain_all_modes() {
        let (x, us) = setup(&[4, 6, 4], &[2, 3, 2], 1);
        let refs: Vec<&Matrix> = us.iter().collect();
        for n in 0..3 {
            let run = ttm_compress_stationary(&x, &refs, n, &[2, 3, 2]);
            let oracle = sequential_oracle(&x, &refs, n);
            assert!(
                run.output.frob_dist(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()),
                "mode {n}: {}",
                run.output.frob_dist(&oracle)
            );
        }
    }

    #[test]
    fn single_rank_no_comm() {
        let (x, us) = setup(&[3, 4, 5], &[2, 2, 3], 2);
        let refs: Vec<&Matrix> = us.iter().collect();
        let run = ttm_compress_stationary(&x, &refs, 0, &[1, 1, 1]);
        assert_eq!(run.summary.total_words, 0);
        let oracle = sequential_oracle(&x, &refs, 0);
        assert!(run.output.frob_dist(&oracle) < 1e-10);
    }

    #[test]
    fn factor_traffic_scales_with_tucker_ranks() {
        // Halving the Tucker ranks halves the all-gather words (they are
        // I_k * R_k / P sized) while MTTKRP-style traffic would be R-sized.
        let (x, us_big) = setup(&[8, 8, 8], &[4, 4, 4], 3);
        let (_, us_small) = setup(&[8, 8, 8], &[2, 2, 2], 4);
        let rb: Vec<&Matrix> = us_big.iter().collect();
        let rs: Vec<&Matrix> = us_small.iter().collect();
        let big = ttm_compress_stationary(&x, &rb, 0, &[2, 2, 2]);
        let small = ttm_compress_stationary(&x, &rs, 0, &[2, 2, 2]);
        // Gather terms halve; the reduce-scatter term also shrinks
        // (slice_size is a product of the other ranks).
        assert!(small.summary.max_words < big.summary.max_words);
    }

    #[test]
    fn even_case_gather_words_match_eq14_analog() {
        // 8^3, ranks all 4, grid 2x2x2 (P = 8): gather term per mode
        // (q-1) * I_k R_k / P = 3 * 4 = 12 each way, two modes = 24;
        // reduce-scatter: local rows 4, slice 16, q = 4:
        // (q-1) * (rows/q) * slice = 3 * 16 = 48. Total received = 72.
        let (x, us) = setup(&[8, 8, 8], &[4, 4, 4], 5);
        let refs: Vec<&Matrix> = us.iter().collect();
        let run = ttm_compress_stationary(&x, &refs, 0, &[2, 2, 2]);
        for st in &run.stats {
            assert_eq!(st.words_received, 24 + 48);
        }
    }

    #[test]
    fn order4_parallel_ttm() {
        let (x, us) = setup(&[4, 4, 2, 6], &[2, 3, 1, 2], 6);
        let refs: Vec<&Matrix> = us.iter().collect();
        let run = ttm_compress_stationary(&x, &refs, 3, &[2, 2, 1, 3]);
        let oracle = sequential_oracle(&x, &refs, 3);
        assert!(run.output.frob_dist(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));
    }
}
