//! Distributed-memory CP-ALS built on the stationary-tensor MTTKRP
//! (Algorithm 3), i.e. the "medium-grained" organization the paper cites
//! (Smith & Karypis) with communication-optimal dense MTTKRP inside.
//!
//! The tensor stays stationary in its `N`-way grid distribution for the
//! whole run. Factor matrices live in exactly the distribution Algorithm 3
//! expects (block rows over grid slices, row chunks within hyperslices), so
//! the output distribution of each mode's MTTKRP/solve *is* the input
//! distribution for the next mode — no redistribution between modes, the
//! property Section VII highlights for multi-MTTKRP optimization.
//!
//! Per mode and sweep, beyond Algorithm 3's communication, the only extra
//! traffic is two `R x R`-sized All-Reduces (Gram matrix and column norms)
//! and one scalar All-Reduce for the fit — all lower-order terms.

use super::layout::alg3_shard;
use super::stationary::stationary_rank;
use mttkrp_netsim::schedule::Phase;
use mttkrp_netsim::{collectives, CommStats, CommSummary, PeerExchange, SimMachine};
use mttkrp_tensor::{solve_spd_right, DenseTensor, KruskalTensor, Matrix};

/// Options for distributed CP-ALS (mirrors the sequential options).
pub use crate::cp_als::CpAlsOptions;

/// Result of a distributed CP-ALS run.
#[derive(Debug)]
pub struct DistCpAlsRun {
    /// The fitted model, assembled from the per-rank factor chunks.
    pub model: KruskalTensor,
    /// Fit after each sweep (identical on every rank by construction).
    pub fit_history: Vec<f64>,
    /// Sweeps performed.
    pub iterations: usize,
    /// Per-rank communication counters for the whole run.
    pub stats: Vec<CommStats>,
    /// Aggregate communication summary.
    pub summary: CommSummary,
}

/// Per-rank factor chunk: mode, global row range, row-major data.
type FactorChunk = (usize, usize, usize, Vec<f64>);

/// Runs distributed CP-ALS on the simulated machine.
///
/// `grid` gives `(P_1, ..., P_N)`, Algorithm 3's block distribution.
pub fn dist_cp_als(x: &DenseTensor, r: usize, grid: &[usize], opts: &CpAlsOptions) -> DistCpAlsRun {
    assert!(r >= 1, "rank must be positive");
    let shape = x.shape().clone();
    let order = shape.order();

    // Deterministic initial factors, identical on every rank (each rank
    // slices its own chunk out of the same seeded matrix).
    let init: Vec<Matrix> = (0..order)
        .map(|k| {
            let mut f = Matrix::random(shape.dim(k), r, opts.seed.wrapping_add(k as u64));
            f.normalize_cols();
            f
        })
        .collect();
    let init: Vec<&Matrix> = init.iter().collect();

    let procs = grid.iter().product();
    let result = SimMachine::new(procs).run(|rank| -> (Vec<FactorChunk>, Vec<f64>) {
        let me = rank.world_rank();
        let world = rank.world();

        // The Algorithm 3 distribution, kept for the whole run: the owned
        // (stationary) block and, per mode, the owned chunk of the factor's
        // block row, which each mode's solve updates in place.
        let mut shard = alg3_shard(x, &init, 0, grid, me);
        let block = shard
            .block
            .as_ref()
            .map_or_else(Vec::new, |b| b.copy_entries(0, b.shape().num_entries()));
        let norm_x_sq_local: f64 = block.iter().map(|&v| v * v).sum();
        let norm_x_sq = collectives::all_reduce(rank, &world, &[norm_x_sq_local])[0];
        let norm_x = norm_x_sq.sqrt();

        // Replicated Gram matrices, built once by All-Reduce of local
        // partial Grams.
        let mut grams: Vec<Matrix> = Vec::with_capacity(order);
        for (&(lo, hi), chunk) in shard.factor_rows.iter().zip(&shard.factor_chunks) {
            let partial = if lo == hi {
                Matrix::zeros(r, r)
            } else {
                Matrix::from_rows_vec(hi - lo, r, chunk.clone()).gram()
            };
            let summed = collectives::all_reduce(rank, &world, partial.data());
            grams.push(Matrix::from_rows_vec(r, r, summed));
        }

        let mut weights = vec![1.0f64; r];
        let mut fit_history = Vec::new();
        let mut prev_fit = f64::NEG_INFINITY;

        for _sweep in 0..opts.max_iters {
            let mut last_inner = 0.0f64;
            for n in 0..order {
                // --- Algorithm 3, Lines 4-7: my row chunk of B. ---
                let (lo, hi, mine) = stationary_rank(&shard, grid, n, r, rank);
                // The solve's all-reduces follow no predicted schedule.
                rank.begin_phase(Phase::Unscheduled);

                // --- Normal equations on my rows. ---
                let mut v = Matrix::from_fn(r, r, |_, _| 1.0);
                for (k, g) in grams.iter().enumerate() {
                    if k != n {
                        v = v.hadamard(g);
                    }
                }
                let b_chunk = if lo == hi {
                    Matrix::zeros(1, r)
                } else {
                    Matrix::from_rows_vec(hi - lo, r, mine)
                };
                let mut a_chunk = if lo == hi {
                    Matrix::zeros(1, r)
                } else {
                    solve_spd_right(&b_chunk, &v).expect("normal equations solve failed")
                };

                // --- Column norms via All-Reduce; normalize. ---
                let mut sumsq = vec![0.0f64; r];
                if lo != hi {
                    for i in 0..a_chunk.rows() {
                        for (c, &val) in a_chunk.row(i).iter().enumerate() {
                            sumsq[c] += val * val;
                        }
                    }
                }
                let sumsq = collectives::all_reduce(rank, &world, &sumsq);
                let norms: Vec<f64> = sumsq.iter().map(|&s| s.sqrt()).collect();
                // Inner product <B, A_prenorm> accumulates the fit term.
                if n == order - 1 {
                    let mut inner = 0.0;
                    if lo != hi {
                        for i in 0..a_chunk.rows() {
                            let (br, ar) = (b_chunk.row(i), a_chunk.row(i));
                            for c in 0..r {
                                inner += br[c] * ar[c];
                            }
                        }
                    }
                    last_inner = collectives::all_reduce(rank, &world, &[inner])[0];
                }
                if lo != hi {
                    for i in 0..a_chunk.rows() {
                        for (c, val) in a_chunk.row_mut(i).iter_mut().enumerate() {
                            if norms[c] > 0.0 {
                                *val /= norms[c];
                            }
                        }
                    }
                }
                weights = norms;

                // --- Refresh the replicated Gram of mode n. ---
                let partial = if lo == hi {
                    Matrix::zeros(r, r)
                } else {
                    a_chunk.gram()
                };
                let summed = collectives::all_reduce(rank, &world, partial.data());
                grams[n] = Matrix::from_rows_vec(r, r, summed);
                if lo != hi {
                    shard.factor_chunks[n].copy_from_slice(a_chunk.data());
                }
            }

            // --- Fit (replicated arithmetic; identical on all ranks). ---
            let mut vall = Matrix::from_fn(r, r, |_, _| 1.0);
            for g in &grams {
                vall = vall.hadamard(g);
            }
            let mut model_norm_sq = 0.0;
            for a in 0..r {
                for b in 0..r {
                    model_norm_sq += weights[a] * vall[(a, b)] * weights[b];
                }
            }
            let resid_sq = (norm_x_sq - 2.0 * last_inner + model_norm_sq).max(0.0);
            let fit = 1.0 - resid_sq.sqrt() / norm_x;
            fit_history.push(fit);
            if (fit - prev_fit).abs() < opts.tol {
                break;
            }
            prev_fit = fit;
        }

        // Ship back owned rows (with weights folded out; weights returned
        // implicitly via the shared fit computation — rank 0's copy wins).
        let mut out: Vec<FactorChunk> = shard
            .factor_rows
            .iter()
            .zip(shard.factor_chunks)
            .enumerate()
            .map(|(k, (&(lo, hi), data))| (k, lo, hi, data))
            .collect();
        // Weights ride along as a pseudo-chunk (mode = order).
        out.push((order, 0, r, weights.clone()));
        (out, fit_history)
    });

    // Assemble the model from rank chunks.
    let mut factors: Vec<Matrix> = (0..order).map(|k| Matrix::zeros(shape.dim(k), r)).collect();
    let mut weights = vec![1.0f64; r];
    for (chunks, _) in &result.outputs {
        for &(k, lo, hi, ref data) in chunks {
            if k == order {
                weights = data.clone();
                continue;
            }
            for (li, row) in (lo..hi).enumerate() {
                factors[k]
                    .row_mut(row)
                    .copy_from_slice(&data[li * r..(li + 1) * r]);
            }
        }
    }
    let (_, fit_history) = &result.outputs[0];
    let iterations = fit_history.len();
    let mut model = KruskalTensor::from_factors(factors);
    model.weights = weights;
    let summary = CommSummary::from_ranks(&result.stats);
    DistCpAlsRun {
        model,
        fit_history: fit_history.clone(),
        iterations,
        stats: result.stats,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp_als::cp_als;
    use mttkrp_tensor::Shape;

    #[test]
    fn single_rank_matches_sequential_fits() {
        let truth = KruskalTensor::random(&Shape::new(&[6, 4, 4]), 2, 21);
        let x = truth.full();
        let opts = CpAlsOptions {
            max_iters: 30,
            tol: 1e-10,
            seed: 3,
        };
        let seq = cp_als(&x, 2, &opts);
        let dist = dist_cp_als(&x, 2, &[1, 1, 1], &opts);
        assert_eq!(seq.fit_history.len(), dist.fit_history.len());
        for (a, b) in seq.fit_history.iter().zip(&dist.fit_history) {
            assert!((a - b).abs() < 1e-8, "fit mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn distributed_recovers_low_rank_tensor() {
        let truth = KruskalTensor::random(&Shape::new(&[8, 4, 6]), 2, 33);
        let x = truth.full();
        let run = dist_cp_als(
            &x,
            2,
            &[2, 2, 2],
            &CpAlsOptions {
                max_iters: 300,
                tol: 1e-12,
                seed: 5,
            },
        );
        let fit = *run.fit_history.last().unwrap();
        assert!(fit > 0.9999, "fit = {fit}");
        // The assembled model itself must reconstruct X.
        let direct = run.model.fit_to(&x);
        assert!((direct - fit).abs() < 1e-6, "assembled model fit {direct}");
    }

    #[test]
    fn fits_identical_across_grids() {
        // The arithmetic is deterministic and grid-independent at the level
        // of convergence behavior; fits should agree to float tolerance.
        let truth = KruskalTensor::random(&Shape::new(&[4, 4, 4]), 2, 44);
        let x = truth.full();
        let opts = CpAlsOptions {
            max_iters: 15,
            tol: 0.0,
            seed: 9,
        };
        let a = dist_cp_als(&x, 2, &[1, 1, 1], &opts);
        let b = dist_cp_als(&x, 2, &[2, 2, 1], &opts);
        for (fa, fb) in a.fit_history.iter().zip(&b.fit_history) {
            assert!((fa - fb).abs() < 1e-6, "{fa} vs {fb}");
        }
    }

    #[test]
    fn communication_happens_and_is_counted() {
        let truth = KruskalTensor::random(&Shape::new(&[4, 4, 4]), 2, 55);
        let x = truth.full();
        let run = dist_cp_als(
            &x,
            2,
            &[2, 2, 2],
            &CpAlsOptions {
                max_iters: 2,
                tol: 0.0,
                seed: 1,
            },
        );
        assert!(run.summary.total_words > 0);
        assert_eq!(run.stats.len(), 8);
    }
}
