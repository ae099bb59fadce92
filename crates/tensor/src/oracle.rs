//! Brute-force reference MTTKRP, straight from Definition 2.1 of the paper.
//!
//! `B(i_n, r) = sum_{i : i_n fixed} X(i) * prod_{k != n} A^(k)(i_k, r)`,
//! with each product evaluated atomically as an `N`-ary multiply. This is
//! the oracle every optimized implementation in the workspace is tested
//! against.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;

/// Validates MTTKRP operands: `factors` must hold one `I_k x R` matrix per
/// mode (the entry at position `n` is ignored but must still have `I_n`
/// rows, which keeps call sites honest), and `n` must be a valid mode.
///
/// Returns the common rank `R`.
pub fn validate_operands(x: &DenseTensor, factors: &[&Matrix], n: usize) -> usize {
    validate_factors(x.shape(), factors, n)
}

/// [`validate_operands`] against a shape alone, for operands that are a view
/// of a tensor rather than a tensor.
pub fn validate_factors(shape: &Shape, factors: &[&Matrix], n: usize) -> usize {
    let order = shape.order();
    assert!(order >= 2, "MTTKRP requires an order >= 2 tensor");
    assert!(n < order, "mode {n} out of range for order-{order} tensor");
    assert_eq!(
        factors.len(),
        order,
        "need one factor matrix per mode (entry {n} is ignored)"
    );
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        assert_eq!(
            f.rows(),
            shape.dim(k),
            "factor {k} must have I_{k} = {} rows",
            shape.dim(k)
        );
        assert_eq!(f.cols(), r, "all factors must share the rank R");
    }
    r
}

/// Reference MTTKRP (Definition 2.1): iterates the full `[I_1] x ... x [I_N] x [R]`
/// iteration space and performs one atomic `N`-ary multiply per point.
///
/// `factors[n]` is ignored (the paper's `A^(n)` does not participate).
pub fn mttkrp_reference(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    let r = validate_operands(x, factors, n);
    let shape = x.shape();
    let mut b = Matrix::zeros(shape.dim(n), r);
    let mut idx = vec![0usize; shape.order()];
    // The participating factor rows of the current entry, in mode order.
    let mut rows: Vec<&[f64]> = Vec::with_capacity(shape.order());
    for (lin, &xv) in x.data().iter().enumerate() {
        shape.delinearize_into(lin, &mut idx);
        rows.clear();
        let others = factors.iter().enumerate().filter(|&(k, _)| k != n);
        rows.extend(others.map(|(k, f)| f.row(idx[k])));
        let out_row = b.row_mut(idx[n]);
        for (c, out) in out_row.iter_mut().enumerate() {
            // One atomic N-ary multiply: X(i) * prod_{k != n} A^(k)(i_k, c).
            let mut prod = xv;
            for row in &rows {
                prod *= row[c];
            }
            *out += prod;
        }
    }
    b
}

/// MTTKRP via the matrix-multiplication approach (paper Section III-B):
/// `B = X_(n) * khatri_rao_colex(factors without n)`.
///
/// Numerically equal to [`mttkrp_reference`] but breaks the atomicity
/// assumption; used as the baseline the paper compares against.
pub fn mttkrp_via_matmul(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    validate_operands(x, factors, n);
    let unfolded = crate::matricize::matricize(x, n);
    let others: Vec<&Matrix> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != n)
        .map(|(_, &f)| f)
        .collect();
    let krp = crate::khatri_rao::khatri_rao_colex(&others);
    unfolded.matmul(&krp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::KruskalTensor;
    use crate::shape::Shape;

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = (0..dims.len())
            .map(|k| Matrix::random(dims[k], r, seed + 10 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn reference_matches_matmul_3way_all_modes() {
        let (x, factors) = setup(&[4, 5, 3], 2, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let a = mttkrp_reference(&x, &refs, n);
            let b = mttkrp_via_matmul(&x, &refs, n);
            assert!(
                a.max_abs_diff(&b) < 1e-10,
                "mode {n}: mismatch {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn reference_matches_matmul_4way() {
        let (x, factors) = setup(&[3, 2, 4, 3], 3, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..4 {
            let a = mttkrp_reference(&x, &refs, n);
            let b = mttkrp_via_matmul(&x, &refs, n);
            assert!(a.max_abs_diff(&b) < 1e-10);
        }
    }

    #[test]
    fn reference_matches_matmul_2way_is_matmul() {
        // For N = 2, MTTKRP with mode n = 0 is X * A^(1).
        let (x, factors) = setup(&[4, 6], 3, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let a = mttkrp_reference(&x, &refs, 0);
        let direct = Matrix::from_fn(4, 6, |i, j| x.get(&[i, j])).matmul(&factors[1]);
        assert!(a.max_abs_diff(&direct) < 1e-10);
    }

    #[test]
    fn mttkrp_of_rank_one_tensor_has_closed_form() {
        // If X = u o v o w then MTTKRP mode 0 gives
        // B(i, r) = u_i * (v . a2_r) * (w . a3_r).
        let u = Matrix::from_rows_vec(3, 1, vec![1.0, -2.0, 0.5]);
        let v = Matrix::from_rows_vec(2, 1, vec![2.0, 1.0]);
        let w = Matrix::from_rows_vec(4, 1, vec![1.0, 0.0, -1.0, 3.0]);
        let kt = KruskalTensor::from_factors(vec![u.clone(), v.clone(), w.clone()]);
        let x = kt.full();
        let a2 = Matrix::random(2, 2, 4);
        let a3 = Matrix::random(4, 2, 5);
        let dummy = Matrix::zeros(3, 2);
        let b = mttkrp_reference(&x, &[&dummy, &a2, &a3], 0);
        for i in 0..3 {
            for r in 0..2 {
                let dot_v: f64 = (0..2).map(|j| v[(j, 0)] * a2[(j, r)]).sum();
                let dot_w: f64 = (0..4).map(|j| w[(j, 0)] * a3[(j, r)]).sum();
                let expect = u[(i, 0)] * dot_v * dot_w;
                assert!((b[(i, r)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn linearity_in_tensor() {
        let (x1, factors) = setup(&[3, 3, 3], 2, 6);
        let x2 = DenseTensor::random(Shape::new(&[3, 3, 3]), 99);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let b1 = mttkrp_reference(&x1, &refs, 1);
        let b2 = mttkrp_reference(&x2, &refs, 1);
        let sum = DenseTensor::from_vec(
            x1.shape().clone(),
            x1.data()
                .iter()
                .zip(x2.data())
                .map(|(a, b)| a + b)
                .collect(),
        );
        let bsum = mttkrp_reference(&sum, &refs, 1);
        let mut expect = b1.clone();
        expect.axpy(1.0, &b2);
        assert!(bsum.max_abs_diff(&expect) < 1e-10);
    }

    #[test]
    fn ignored_factor_does_not_matter() {
        let (x, mut factors) = setup(&[3, 4, 2], 2, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let b1 = mttkrp_reference(&x, &refs, 1);
        factors[1] = Matrix::random(4, 2, 12345);
        let refs2: Vec<&Matrix> = factors.iter().collect();
        let b2 = mttkrp_reference(&x, &refs2, 1);
        assert!(b1.max_abs_diff(&b2) < 1e-15);
    }

    #[test]
    #[should_panic]
    fn wrong_factor_rows_panics() {
        let x = DenseTensor::zeros(Shape::new(&[3, 4]));
        let a = Matrix::zeros(3, 2);
        let bad = Matrix::zeros(5, 2);
        let _ = mttkrp_reference(&x, &[&a, &bad], 0);
    }
}
