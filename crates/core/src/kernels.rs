//! The dense in-memory MTTKRP kernel (no I/O simulation).
//!
//! The paper treats the local computation of its parallel algorithms (Line 6
//! of Algorithm 3, Line 7 of Algorithm 4) as the same dense MTTKRP it bounds
//! sequentially, and so does this workspace: every dense MTTKRP outside the
//! [`mttkrp_tensor::mttkrp_reference`] oracle is a walk over contiguous
//! *mode-0 runs* of the tensor, built from one pair of primitives:
//! - [`hadamard_row`]: the Hadamard product `w` of the factor rows of every
//!   mode but `0` and `n`, which is constant along a run;
//! - [`accumulate_run`]: `B(i_0, :) += X(i) * w` for `n == 0`,
//!   `B(i_n, :) += (X(i) * A^(0)(i_0, :)) * w` otherwise, over one run.
//!
//! [`accumulate_flat_range`] streams a contiguous range of the tensor's colex
//! data run by run. [`local_mttkrp`] is that streamer over the whole tensor:
//! what every `dist` rank, every simulated rank program of [`crate::par`],
//! [`mod@crate::cp_als`] and [`crate::multi`] run. `mttkrp_exec::native` walks
//! tiles and bands of runs over the same pair on a thread pool. A walk fixes
//! only the *order* in which runs reach an output row, and so which bits
//! come out; the arithmetic of a run is here and nowhere else.
//!
//! Hoisting `w` out of the run saves multiplies against the atomic `N`-ary
//! multiply of Definition 2.1 (counts in [`crate::arith::atomic_kernel_flops`])
//! but every operand of every product is still resident when it is formed,
//! so the communication model is unaffected.
//!
//! [`local_mttkrp_twostep`] is a different computation: the arithmetic-saving
//! variant of Section V-C3, which breaks atomicity by forming the local
//! Khatri-Rao product explicitly and calling matrix multiplication.

use mttkrp_tensor::{khatri_rao_colex, matricize, DenseTensor, Matrix};

/// Sets `w` to the Hadamard product of the rows `A^(k)(idx[k], :)` over every
/// mode `k` other than `0` and `n` (all ones when there is no such mode).
/// `idx[0]` and `idx[n]` are not read.
#[inline]
pub fn hadamard_row(factors: &[&Matrix], n: usize, idx: &[usize], w: &mut [f64]) {
    w.fill(1.0);
    for (k, f) in factors.iter().enumerate().skip(1) {
        if k == n {
            continue;
        }
        for (wv, &a) in w.iter_mut().zip(f.row(idx[k])) {
            *wv *= a;
        }
    }
}

/// Accumulates one contiguous mode-0 run into `out`, a row-major buffer of
/// `w.len()` columns: `run` holds the tensor entries at mode-0 indices
/// `i0..i0 + run.len()` of one fibre and `w` is that fibre's
/// [`hadamard_row`]. With `row_n == None` (output mode 0) rows `i0..` of
/// `out` each gain `x * w`; with `Some(i_n)` row `i_n` gains
/// `(x * a0[i0]) * w` per entry, `a0` being the mode-0 factor.
#[inline]
pub fn accumulate_run(
    run: &[f64],
    i0: usize,
    a0: &Matrix,
    row_n: Option<usize>,
    w: &[f64],
    out: &mut [f64],
) {
    let r = w.len();
    match row_n {
        None => {
            for (i, &xv) in (i0..).zip(run) {
                for (ov, &wv) in out[i * r..(i + 1) * r].iter_mut().zip(w) {
                    *ov += xv * wv;
                }
            }
        }
        Some(i_n) => {
            let orow = &mut out[i_n * r..(i_n + 1) * r];
            for (i, &xv) in (i0..).zip(run) {
                let a = a0.row(i);
                for c in 0..r {
                    orow[c] += xv * a[c] * w[c];
                }
            }
        }
    }
}

/// Accumulates the MTTKRP contribution of the flat entry range `[lo, hi)` of
/// the tensor's colex data into `out`, a row-major `I_n x R` buffer, one
/// mode-0 run at a time (a range may start and end mid-run). Operands are
/// taken as checked by [`mttkrp_tensor::validate_operands`].
///
/// Streaming consecutive ranges into one buffer visits the entries in the
/// order of a single pass, so the result is bit-identical however the
/// tensor is cut.
pub fn accumulate_flat_range(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    let shape = x.shape();
    let i0 = shape.dim(0);
    let data = x.data();
    let mut idx = vec![0usize; shape.order()];
    let mut w = vec![0.0f64; factors[0].cols()];

    let mut lin = lo;
    while lin < hi {
        shape.delinearize_into(lin, &mut idx);
        let run = (i0 - idx[0]).min(hi - lin);
        hadamard_row(factors, n, &idx, &mut w);
        let row_n = (n != 0).then(|| idx[n]);
        accumulate_run(&data[lin..lin + run], idx[0], factors[0], row_n, &w, out);
        lin += run;
    }
}

/// Local MTTKRP, `B(i_n, r) = sum_i X(i) * prod_{k != n} A^(k)(i_k, r)`: one
/// sequential stream through the tensor ([`accumulate_flat_range`] over all
/// of it). `factors[n]` is ignored. Multiply count:
/// [`crate::arith::atomic_kernel_flops`].
pub fn local_mttkrp(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let mut b = Matrix::zeros(x.shape().dim(n), r);
    accumulate_flat_range(x, factors, n, 0, x.num_entries(), b.data_mut());
    b
}

/// Two-step local MTTKRP (paper Section V-C3, Eq. (17)): forms the explicit
/// Khatri-Rao product and multiplies, `B = X_(n) * KRP`. Breaks the atomic
/// `N`-ary multiply assumption but computes the same values with
/// `~2 |X| R` flops instead of `N |X| R`.
pub fn local_mttkrp_twostep(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    mttkrp_tensor::validate_operands(x, factors, n);
    let unfolded = matricize(x, n);
    let others: Vec<&Matrix> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != n)
        .map(|(_, &f)| f)
        .collect();
    let krp = khatri_rao_colex(&others);
    unfolded.matmul(&krp)
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
            .map(|(k, &d)| Matrix::random(d, r, seed + 20 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn fast_kernel_matches_oracle() {
        let (x, factors) = setup(&[5, 4, 3], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let fast = local_mttkrp(&x, &refs, n);
            let slow = mttkrp_reference(&x, &refs, n);
            assert!(fast.max_abs_diff(&slow) < 1e-11, "mode {n}");
        }
    }

    #[test]
    fn twostep_matches_oracle() {
        let (x, factors) = setup(&[4, 3, 5, 2], 2, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..4 {
            let two = local_mttkrp_twostep(&x, &refs, n);
            let slow = mttkrp_reference(&x, &refs, n);
            assert!(two.max_abs_diff(&slow) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn order2_kernels_agree() {
        let (x, factors) = setup(&[7, 6], 4, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..2 {
            let a = local_mttkrp(&x, &refs, n);
            let b = local_mttkrp_twostep(&x, &refs, n);
            assert!(a.max_abs_diff(&b) < 1e-11);
        }
    }
}
