//! The sequential MTTKRP-via-matrix-multiplication baseline
//! (paper Sections III-B and VI-A).
//!
//! Two phases, both executed on the strict memory simulator:
//! 1. **Form the Khatri-Rao product** `K` (`(I/I_n) x R`) explicitly in slow
//!    memory. Rows are generated with an odometer so that factor entries are
//!    reused while their odometer digit is unchanged; the cost is
//!    `~ 2 (I/I_n) R` words (write each `K` entry once, reload only changed
//!    factor entries).
//! 2. **Blocked classical matmul** `B = X_(n) * K` with square blocks of
//!    side `t = floor(sqrt(M/3))`, cost
//!    `~ I_n R + I * ceil(R/t) + (I/I_n) R ceil(I_n/t)` words
//!    (`~ I + 2 I R / sqrt(M)` in the regime `t <= R, I_n`).
//!
//! `X_(n)` is accessed *in place* through the unfolding index map — the
//! baseline is charged nothing for the layout permutation, which is
//! generous to it (the paper notes a real implementation would permute).

use super::SeqRun;
use mttkrp_memsim::{IoStats, TwoLevelMemory};
use mttkrp_tensor::{DenseTensor, Matrix};

/// Result of the two-phase baseline with a per-phase cost breakdown.
#[derive(Debug)]
pub struct MatmulRun {
    /// The computed `B^(n)`.
    pub output: Matrix,
    /// I/O of the Khatri-Rao formation phase.
    krp_stats: IoStats,
    /// I/O of the matrix-multiplication phase.
    matmul_stats: IoStats,
    /// Peak fast-memory residency over both phases.
    peak_fast: usize,
}

impl MatmulRun {
    /// Total I/O over both phases.
    pub fn total_stats(&self) -> IoStats {
        self.krp_stats + self.matmul_stats
    }

    /// Collapses into the common [`SeqRun`] shape.
    pub fn into_seq_run(self) -> SeqRun {
        SeqRun {
            stats: self.total_stats(),
            output: self.output,
            peak_fast: self.peak_fast,
            // The baseline breaks atomicity, so the N-ary-multiply segment
            // accounting does not apply to it.
            segments: Vec::new(),
        }
    }
}

/// Runs the matmul-based MTTKRP baseline with fast capacity `m`.
///
/// # Panics
/// Panics if `m < max(N, 3)` (phase 1 needs `N` words resident, phase 2
/// needs one word of each operand).
pub fn mttkrp_seq_matmul(x: &DenseTensor, factors: &[&Matrix], n: usize, m: usize) -> MatmulRun {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shape = x.shape().clone();
    let order = shape.order();
    assert!(
        m >= order.max(3),
        "fast memory must hold at least max(N, 3) = {} words",
        order.max(3)
    );

    let mut mem = TwoLevelMemory::new(m);
    let x_id = mem.alloc(x.data().to_vec());
    let a_ids: Vec<_> = factors
        .iter()
        .map(|f| mem.alloc(f.data().to_vec()))
        .collect();
    let krows = shape.num_entries() / shape.dim(n);
    let k_id = mem.alloc_zeros(krows * r); // K stored row-major
    let b_id = mem.alloc_zeros(shape.dim(n) * r);

    let other_modes: Vec<usize> = (0..order).filter(|&k| k != n).collect();

    // ---- Phase 1: form K(j, r) = prod_{k != n} A^(k)(i_k(j), r). ----
    // Iterate rows with an odometer over the non-n modes (lowest fastest,
    // matching the unfolding's column order); keep the N-1 current factor
    // entries resident and reload only digits that changed.
    for rr in 0..r {
        let mut digits = vec![0usize; other_modes.len()];
        // Load the initial N-1 entries.
        for (s, &k) in other_modes.iter().enumerate() {
            mem.load(a_ids[k], digits[s] * factors[k].cols() + rr);
        }
        for j in 0..krows {
            let mut prod = 1.0;
            for (s, &k) in other_modes.iter().enumerate() {
                prod *= mem.get(a_ids[k], digits[s] * factors[k].cols() + rr);
            }
            mem.create(k_id, j * r + rr, prod);
            mem.store_evict(k_id, j * r + rr);
            if j + 1 == krows {
                break;
            }
            // Advance the odometer; reload entries whose digit changed.
            for (s, &k) in other_modes.iter().enumerate() {
                mem.evict(a_ids[k], digits[s] * factors[k].cols() + rr);
                digits[s] += 1;
                if digits[s] < shape.dim(k) {
                    mem.load(a_ids[k], digits[s] * factors[k].cols() + rr);
                    // Digits below s were reset; reload them too.
                    for (s2, &k2) in other_modes.iter().enumerate().take(s) {
                        mem.load(a_ids[k2], digits[s2] * factors[k2].cols() + rr);
                    }
                    break;
                }
                digits[s] = 0;
            }
        }
        // Release the last row's entries.
        for (s, &k) in other_modes.iter().enumerate() {
            mem.evict(a_ids[k], digits[s] * factors[k].cols() + rr);
        }
    }
    let krp_stats = mem.stats();
    mem.reset_stats();

    // ---- Phase 2: blocked matmul B = X_(n) * K. ----
    let m_dim = shape.dim(n);
    let k_dim = krows;
    let n_dim = r;
    let t = (((m / 3) as f64).sqrt().floor() as usize).max(1);

    // Map an unfolding coordinate (i, j) to the tensor's linear index.
    let mut idx = vec![0usize; order];
    let xn_lin = |i: usize, mut j: usize, idx: &mut [usize]| -> usize {
        idx[n] = i;
        for &k in &other_modes {
            idx[k] = j % shape.dim(k);
            j /= shape.dim(k);
        }
        shape.linearize(idx)
    };

    let mut ib = 0usize;
    while ib < m_dim {
        let ie = (ib + t).min(m_dim);
        let mut jb = 0usize;
        while jb < n_dim {
            let je = (jb + t).min(n_dim);
            // C block accumulates in fast memory (created, not loaded).
            for i in ib..ie {
                for j in jb..je {
                    mem.create(b_id, i * r + j, 0.0);
                }
            }
            let mut kb = 0usize;
            while kb < k_dim {
                let ke = (kb + t).min(k_dim);
                // Load A block (X_(n) entries, in place) and B block (K).
                for i in ib..ie {
                    for kk in kb..ke {
                        mem.load(x_id, xn_lin(i, kk, &mut idx));
                    }
                }
                for kk in kb..ke {
                    for j in jb..je {
                        mem.load(k_id, kk * r + j);
                    }
                }
                for i in ib..ie {
                    for j in jb..je {
                        let mut acc = mem.get(b_id, i * r + j);
                        for kk in kb..ke {
                            acc +=
                                mem.get(x_id, xn_lin(i, kk, &mut idx)) * mem.get(k_id, kk * r + j);
                        }
                        mem.set(b_id, i * r + j, acc);
                    }
                }
                for i in ib..ie {
                    for kk in kb..ke {
                        mem.evict(x_id, xn_lin(i, kk, &mut idx));
                    }
                }
                for kk in kb..ke {
                    for j in jb..je {
                        mem.evict(k_id, kk * r + j);
                    }
                }
                kb = ke;
            }
            for i in ib..ie {
                for j in jb..je {
                    mem.store_evict(b_id, i * r + j);
                }
            }
            jb = je;
        }
        ib = ie;
    }
    let matmul_stats = mem.stats();

    let output = Matrix::from_rows_vec(m_dim, r, mem.slow_data(b_id).to_vec());
    MatmulRun {
        output,
        krp_stats,
        matmul_stats,
        peak_fast: mem.peak_fast(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 50 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn baseline_computes_correct_result() {
        let (x, factors) = setup(&[4, 5, 3], 2, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let run = mttkrp_seq_matmul(&x, &refs, n, 48);
            let expect = mttkrp_reference(&x, &refs, n);
            assert!(run.output.max_abs_diff(&expect) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn krp_phase_cost_is_about_2kr() {
        // KRP formation ~ 2 * (I/I_n) * R words (stores exactly (I/In)R,
        // loads (I/In)R * (1 + small)).
        let (x, factors) = setup(&[4, 8, 8], 3, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_seq_matmul(&x, &refs, 0, 64);
        let krows = 64u64;
        let r = 3u64;
        assert_eq!(run.krp_stats.stores, krows * r);
        assert!(run.krp_stats.loads >= krows * r);
        assert!(run.krp_stats.loads <= krows * r + (krows / 8 + 1) * r + r);
    }

    #[test]
    fn matmul_phase_stores_output_once() {
        let (x, factors) = setup(&[5, 4, 4], 3, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_seq_matmul(&x, &refs, 0, 75);
        assert_eq!(run.matmul_stats.stores, 5 * 3);
    }

    #[test]
    fn bigger_memory_means_less_matmul_io() {
        let (x, factors) = setup(&[8, 8, 8], 8, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let small = mttkrp_seq_matmul(&x, &refs, 0, 12);
        let large = mttkrp_seq_matmul(&x, &refs, 0, 1200);
        assert!(large.matmul_stats.total() < small.matmul_stats.total());
        // Both still correct.
        let expect = mttkrp_reference(&x, &refs, 0);
        assert!(small.output.max_abs_diff(&expect) < 1e-10);
        assert!(large.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn peak_fast_within_capacity() {
        let (x, factors) = setup(&[6, 5, 4], 4, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let m = 27;
        let run = mttkrp_seq_matmul(&x, &refs, 1, m);
        assert!(run.peak_fast <= m);
    }

    #[test]
    fn order4_baseline_correct() {
        let (x, factors) = setup(&[3, 2, 4, 3], 2, 6);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_seq_matmul(&x, &refs, 2, 32);
        let expect = mttkrp_reference(&x, &refs, 2);
        assert!(run.output.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn total_stats_adds_phases() {
        let (x, factors) = setup(&[3, 3, 3], 2, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = mttkrp_seq_matmul(&x, &refs, 0, 16);
        assert_eq!(
            run.total_stats().total(),
            run.krp_stats.total() + run.matmul_stats.total()
        );
    }
}
