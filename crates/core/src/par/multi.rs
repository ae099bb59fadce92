//! Distributed **all-modes** MTTKRP — the communication half of
//! Section VII's multi-MTTKRP claim ("optimizing over multiple MTTKRPs can
//! save both communication and computation").
//!
//! Running Algorithm 3 once per mode All-Gathers each factor's block rows
//! `N-1` times per sweep (every other mode's MTTKRP needs it). Computing
//! all `N` outputs together gathers each factor **once**, evaluates the
//! local contributions for every mode from the same gathered data (with
//! the dimension tree of [`crate::multi`], saving arithmetic too), and
//! Reduce-Scatters each mode's output. Per rank and sweep:
//!
//! - per-mode (N x Algorithm 3): `N * sum_k (P/P_k - 1) I_k R / P` words;
//! - all-modes (this module):    `2 * sum_k (P/P_k - 1) I_k R / P` words —
//!
//! an `N/2`x communication saving, measured exactly by the simulator.

use super::layout::{alg3_shard, output_counts};
use super::stationary::{assemble_row_chunks, RowChunk};
use crate::multi::mttkrp_all_modes_tree;
use mttkrp_netsim::{collectives, CommStats, CommSummary, PeerExchange, ProcessorGrid, SimMachine};
use mttkrp_tensor::{DenseTensor, Matrix};

/// Result of a distributed all-modes MTTKRP run.
#[derive(Debug)]
pub struct AllModesRun {
    /// The assembled outputs, `outputs[n]` = `B^(n)` (`I_n x R`).
    pub outputs: Vec<Matrix>,
    /// Per-rank communication counters.
    pub stats: Vec<CommStats>,
    /// Aggregate summary.
    pub summary: CommSummary,
}

/// Computes `MTTKRP(X, {A}, n)` for **every** mode in one pass on the
/// simulated machine: one All-Gather per factor, a local dimension-tree
/// evaluation, one Reduce-Scatter per output.
///
/// `grid` gives `(P_1, ..., P_N)`. The data distribution is Algorithm 3's
/// ([`alg3_shard`]), and all `N` factors participate (none is ignored).
pub fn mttkrp_all_modes_stationary(
    x: &DenseTensor,
    factors: &[&Matrix],
    grid: &[usize],
) -> AllModesRun {
    let r = mttkrp_tensor::validate_operands(x, factors, 0);
    let order = x.shape().order();
    let pgrid = ProcessorGrid::new(grid);

    // Per-rank output: one row chunk per mode.
    let result = SimMachine::new(pgrid.num_ranks()).run(|rank| -> Vec<RowChunk> {
        let me = rank.world_rank();
        let shard = alg3_shard(x, factors, 0, grid, me);
        let rows = |k: usize| shard.ranges[k].1 - shard.ranges[k].0;

        // One All-Gather per factor (vs N-1 per factor for per-mode runs).
        let gathered: Vec<Vec<f64>> = (0..order)
            .map(|k| {
                let comm = pgrid.hyperslice_comm(me, k);
                collectives::all_gather(rank, &comm, &shard.factor_chunks[k])
            })
            .collect();

        // Local all-modes MTTKRP with cross-mode reuse; a rank whose block is
        // empty contributes zeros.
        let locals: Vec<Vec<f64>> = match shard.block {
            Some(_) => {
                let x_local = x.subtensor(&shard.ranges);
                let factors: Vec<Matrix> = gathered
                    .into_iter()
                    .enumerate()
                    .map(|(k, full)| Matrix::from_rows_vec(rows(k), r, full))
                    .collect();
                let refs: Vec<&Matrix> = factors.iter().collect();
                let (locals, _flops) = mttkrp_all_modes_tree(&x_local, &refs);
                locals.into_iter().map(Matrix::into_data).collect()
            }
            None => (0..order).map(|k| vec![0.0; rows(k) * r]).collect(),
        };

        // One Reduce-Scatter per mode.
        let mut out = Vec::with_capacity(order);
        for (n, c_local) in locals.iter().enumerate() {
            let comm_n = pgrid.hyperslice_comm(me, n);
            let counts = output_counts(rows(n), r, comm_n.size());
            let mine = collectives::reduce_scatter(rank, &comm_n, c_local, &counts);
            let (g0, g1) = shard.factor_rows[n];
            out.push((g0, g1, mine));
        }
        out
    });

    let outputs = (0..order)
        .map(|n| {
            let chunks: Vec<RowChunk> = result
                .outputs
                .iter()
                .map(|per_rank| per_rank[n].clone())
                .collect();
            assemble_row_chunks(x.shape().dim(n), r, &chunks)
        })
        .collect();
    let summary = result.summary();
    AllModesRun {
        outputs,
        stats: result.stats,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use crate::par::mttkrp_stationary;
    use crate::problem::Problem;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape, seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 700 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn all_outputs_match_oracle() {
        let (x, factors) = setup(&[4, 6, 8], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_all_modes_stationary(&x, &refs, &[2, 3, 2]);
        for n in 0..3 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(
                run.outputs[n].max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()),
                "mode {n}"
            );
        }
    }

    #[test]
    fn order4_all_modes() {
        let (x, factors) = setup(&[4, 4, 2, 6], 2, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_all_modes_stationary(&x, &refs, &[2, 2, 1, 3]);
        for n in 0..4 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(run.outputs[n].max_abs_diff(&oracle) < 1e-9, "mode {n}");
        }
    }

    #[test]
    fn communication_is_2x_eq14_in_even_case() {
        // Gathers + reduce-scatters each cost Eq. (14)'s sum once, on every
        // rank. `I_k = P_k * (P / P_k) * 2` makes every split even.
        let grids: [&[usize]; 6] = [
            &[2, 2, 2],
            &[4, 2, 1],
            &[1, 2, 4],
            &[2, 1, 3],
            &[2, 2, 1, 2],
            &[3, 1, 2, 1],
        ];
        let cases = grids
            .iter()
            .flat_map(|grid| {
                let p: usize = grid.iter().product();
                let dims: Vec<usize> = grid.iter().map(|&pk| pk * (p / pk) * 2).collect();
                [1, 3, 4].map(|r| (dims.clone(), grid.to_vec(), r))
            })
            .chain([(vec![8, 8, 8], vec![2, 2, 2], 4)]);
        for (seed, (dims, grid, r)) in cases.enumerate() {
            let (x, factors) = setup(&dims, r, 3 + seed as u64);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let run = mttkrp_all_modes_stationary(&x, &refs, &grid);
            let p = Problem::from_shape(x.shape(), r);
            let grid_u64: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
            let per_sum = model::alg3_cost(&p, &grid_u64); // = sum_k (q_k-1) w_k
            for st in &run.stats {
                assert_eq!(
                    st.words_received as f64,
                    2.0 * per_sum,
                    "grid {grid:?}, R = {r}"
                );
            }
        }
    }

    #[test]
    fn saves_communication_vs_per_mode_sweep() {
        // The Section VII claim, measured: all-modes moves 2/N of the
        // per-mode sweep's words (here N = 3 -> 1.5x saving).
        let (x, factors) = setup(&[8, 8, 8], 4, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let all = mttkrp_all_modes_stationary(&x, &refs, &[2, 2, 2]);
        let per_mode_total: u64 = (0..3)
            .map(|n| {
                mttkrp_stationary(&x, &refs, n, &[2, 2, 2])
                    .summary
                    .max_words
            })
            .sum();
        assert!(
            all.summary.max_words * 3 == per_mode_total * 2,
            "expected exactly 2/N of the sweep words: {} vs {}",
            all.summary.max_words,
            per_mode_total
        );
    }

    #[test]
    fn single_rank_no_comm() {
        let (x, factors) = setup(&[3, 4, 5], 2, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_all_modes_stationary(&x, &refs, &[1, 1, 1]);
        assert_eq!(run.summary.total_words, 0);
        for n in 0..3 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(run.outputs[n].max_abs_diff(&oracle) < 1e-9);
        }
    }
}
