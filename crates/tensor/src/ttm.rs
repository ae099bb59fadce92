//! Tensor-times-matrix (TTM) products — the kernel underlying Tucker
//! decompositions, which the paper's Section VII names as the natural next
//! target for its lower-bound machinery.
//!
//! `ttm(X, U, n)` contracts mode `n` of `X` with the columns-of-`U^T`:
//! `Y(i_1, .., j, .., i_N) = sum_{i_n} U(j, i_n) * X(i_1, .., i_n, .., i_N)`,
//! where `U` is `J x I_n`; the result replaces mode `n`'s extent by `J`.
//! Equivalently `Y_(n) = U * X_(n)`.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;

/// Mode-`n` tensor-times-matrix product: `Y_(n) = U * X_(n)`.
///
/// # Panics
/// Panics if `U.cols() != I_n`.
pub fn ttm(x: &DenseTensor, u: &Matrix, n: usize) -> DenseTensor {
    let shape = x.shape();
    let order = shape.order();
    assert!(n < order, "mode {n} out of range");
    assert_eq!(
        u.cols(),
        shape.dim(n),
        "U must have I_{n} = {} columns, got {}",
        shape.dim(n),
        u.cols()
    );
    let j = u.rows();
    let mut out_dims: Vec<usize> = shape.dims().to_vec();
    out_dims[n] = j;
    let out_shape = Shape::new(&out_dims);
    let mut y = DenseTensor::zeros(out_shape.clone());

    // Walk X once; scatter each entry into the J output entries it feeds.
    // Strides of mode n in input and output linearizations:
    let in_strides = shape.strides();
    let out_strides = out_shape.strides();
    let mut idx = vec![0usize; order];
    let out = y.data_mut();
    for (lin, &xv) in x.data().iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        shape.delinearize_into(lin, &mut idx);
        // Output base with mode-n coordinate zeroed.
        let mut base = 0usize;
        for (k, &i) in idx.iter().enumerate() {
            if k != n {
                base += i * out_strides[k];
            }
        }
        let i_n = idx[n];
        for jj in 0..j {
            out[base + jj * out_strides[n]] += u[(jj, i_n)] * xv;
        }
    }
    let _ = in_strides;
    y
}

/// Applies a TTM in every mode listed in `modes` (each `us[k]` contracting
/// mode `modes[k]`), in ascending mode order. Used for Tucker
/// reconstruction (`core x_1 U1 x_2 U2 ...`) and HOOI's multi-TTM.
pub fn ttm_chain(x: &DenseTensor, us: &[(usize, &Matrix)]) -> DenseTensor {
    let mut modes_seen = std::collections::HashSet::new();
    for &(m, _) in us {
        assert!(modes_seen.insert(m), "mode {m} contracted twice");
    }
    let mut y = x.clone();
    for &(m, u) in us {
        y = ttm(&y, u, m);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matricize::{fold, matricize};

    #[test]
    fn ttm_equals_unfolded_matmul() {
        let x = DenseTensor::random(Shape::new(&[4, 5, 3]), 1);
        for n in 0..3 {
            let u = Matrix::random(2, x.shape().dim(n), 10 + n as u64);
            let y = ttm(&x, &u, n);
            // Y_(n) = U * X_(n), folded back.
            let expect_mat = u.matmul(&matricize(&x, n));
            let expect = fold(&expect_mat, y.shape(), n);
            assert!(y.frob_dist(&expect) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn identity_ttm_is_noop() {
        let x = DenseTensor::random(Shape::new(&[3, 4, 2]), 2);
        for n in 0..3 {
            let y = ttm(&x, &Matrix::identity(x.shape().dim(n)), n);
            assert!(y.frob_dist(&x) < 1e-12);
        }
    }

    #[test]
    fn ttm_changes_mode_extent() {
        let x = DenseTensor::random(Shape::new(&[3, 4, 2]), 3);
        let u = Matrix::random(7, 4, 4);
        let y = ttm(&x, &u, 1);
        assert_eq!(y.shape().dims(), &[3, 7, 2]);
    }

    #[test]
    fn ttms_in_distinct_modes_commute() {
        let x = DenseTensor::random(Shape::new(&[3, 4, 5]), 5);
        let u0 = Matrix::random(2, 3, 6);
        let u2 = Matrix::random(3, 5, 7);
        let a = ttm(&ttm(&x, &u0, 0), &u2, 2);
        let b = ttm(&ttm(&x, &u2, 2), &u0, 0);
        assert!(a.frob_dist(&b) < 1e-10);
        let c = ttm_chain(&x, &[(0, &u0), (2, &u2)]);
        assert!(a.frob_dist(&c) < 1e-10);
    }

    #[test]
    fn successive_ttm_same_mode_composes() {
        // ttm(ttm(X, U, n), V, n) == ttm(X, V*U, n).
        let x = DenseTensor::random(Shape::new(&[4, 3]), 8);
        let u = Matrix::random(5, 4, 9);
        let v = Matrix::random(2, 5, 10);
        let a = ttm(&ttm(&x, &u, 0), &v, 0);
        let b = ttm(&x, &v.matmul(&u), 0);
        assert!(a.frob_dist(&b) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "contracted twice")]
    fn chain_rejects_duplicate_modes() {
        let x = DenseTensor::random(Shape::new(&[3, 3]), 11);
        let u = Matrix::identity(3);
        let _ = ttm_chain(&x, &[(0, &u), (0, &u)]);
    }
}
