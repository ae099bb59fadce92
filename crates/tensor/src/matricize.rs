//! Mode-`n` matricization (unfolding) and its inverse (folding).
//!
//! We follow the Kolda–Bader convention: the mode-`n` unfolding `X_(n)` is
//! `I_n x (I / I_n)`, where tensor entry `(i_1, ..., i_N)` maps to row `i_n`
//! and column
//! `j = sum_{k != n} i_k * J_k`, `J_k = prod_{m < k, m != n} I_m`,
//! i.e. the remaining modes are linearized colexicographically (lowest mode
//! fastest). With this convention,
//! `MTTKRP(X, {A}, n) = X_(n) * (A^(N) kr ... kr A^(n+1) kr A^(n-1) kr ... kr A^(1))`,
//! which is exactly the "matrix multiplication approach" of Section III-B of
//! the paper (see [`crate::khatri_rao::khatri_rao_colex`]).

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;

/// Column index within the mode-`n` unfolding for a full multi-index.
///
/// `strides_wo_n` must be the colexicographic strides of the shape with mode
/// `n` removed (see [`matricize_strides`]).
#[inline]
fn unfold_col_index(index: &[usize], n: usize, strides_wo_n: &[usize]) -> usize {
    let mut col = 0usize;
    let mut s = 0usize;
    for (k, &i) in index.iter().enumerate() {
        if k == n {
            continue;
        }
        col += i * strides_wo_n[s];
        s += 1;
    }
    col
}

/// Colexicographic strides of the modes other than `n`, in mode order.
fn matricize_strides(shape: &Shape, n: usize) -> Vec<usize> {
    let mut strides = Vec::with_capacity(shape.order().saturating_sub(1));
    let mut acc = 1usize;
    for k in 0..shape.order() {
        if k == n {
            continue;
        }
        strides.push(acc);
        acc *= shape.dim(k);
    }
    strides
}

/// Mode-`n` matricization `X_(n)` of a dense tensor.
pub fn matricize(x: &DenseTensor, n: usize) -> Matrix {
    let shape = x.shape();
    assert!(n < shape.order(), "mode {n} out of range");
    let (rows, cols) = shape.matricized(n);
    let strides = matricize_strides(shape, n);
    let mut m = Matrix::zeros(rows, cols);
    let mut idx = vec![0usize; shape.order()];
    for (lin, &v) in x.data().iter().enumerate() {
        shape.delinearize_into(lin, &mut idx);
        let col = unfold_col_index(&idx, n, &strides);
        m[(idx[n], col)] = v;
    }
    m
}

/// Inverse of [`matricize`]: folds an `I_n x (I / I_n)` matrix back into a
/// tensor of the given shape.
///
/// # Panics
/// Panics if the matrix dimensions are inconsistent with `shape` and `n`.
pub fn fold(m: &Matrix, shape: &Shape, n: usize) -> DenseTensor {
    assert!(n < shape.order(), "mode {n} out of range");
    let (rows, cols) = shape.matricized(n);
    assert_eq!(
        (m.rows(), m.cols()),
        (rows, cols),
        "matrix shape {}x{} does not fold into {shape} at mode {n}",
        m.rows(),
        m.cols()
    );
    let strides = matricize_strides(shape, n);
    let mut idx = vec![0usize; shape.order()];
    let data = (0..shape.num_entries())
        .map(|lin| {
            shape.delinearize_into(lin, &mut idx);
            m[(idx[n], unfold_col_index(&idx, n, &strides))]
        })
        .collect();
    DenseTensor::from_vec(shape.clone(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matricize_mode0_is_colmajor_reshape() {
        // For n = 0 the unfolding is exactly the colexicographic reshape.
        let shape = Shape::new(&[3, 4, 2]);
        let x = DenseTensor::random(shape.clone(), 1);
        let m = matricize(&x, 0);
        for (lin, &v) in x.data().iter().enumerate() {
            let i = lin % 3;
            let col = lin / 3;
            assert_eq!(m[(i, col)], v);
        }
    }

    #[test]
    fn fold_inverts_matricize_all_modes() {
        let shape = Shape::new(&[3, 4, 2, 5]);
        let x = DenseTensor::random(shape.clone(), 2);
        for n in 0..4 {
            let m = matricize(&x, n);
            let back = fold(&m, &shape, n);
            assert_eq!(back, x);
        }
    }

    #[test]
    fn unfold_col_index_example() {
        // Paper Figure 1b analog: shape 15x15x15, project out mode 1.
        let shape = Shape::new(&[15, 15, 15]);
        let strides = matricize_strides(&shape, 1);
        assert_eq!(strides, vec![1, 15]);
        // index (i1,i2,i3) = (4,2,6) zero-based -> column 4 + 6*15.
        assert_eq!(unfold_col_index(&[4, 2, 6], 1, &strides), 4 + 6 * 15);
    }

    #[test]
    fn matricize_preserves_frobenius_norm() {
        let shape = Shape::new(&[4, 3, 3]);
        let x = DenseTensor::random(shape, 3);
        for n in 0..3 {
            let m = matricize(&x, n);
            assert!((m.frob_norm() - x.frob_norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn matricize_order2_mode0_equals_to_matrix() {
        let shape = Shape::new(&[4, 6]);
        let x = DenseTensor::random(shape, 4);
        let as_matrix = Matrix::from_fn(4, 6, |i, j| x.get(&[i, j]));
        let m0 = matricize(&x, 0);
        assert!(m0.max_abs_diff(&as_matrix) < 1e-15);
        let m1 = matricize(&x, 1);
        assert!(m1.max_abs_diff(&as_matrix.transpose()) < 1e-15);
    }

    #[test]
    #[should_panic]
    fn fold_wrong_shape_panics() {
        let m = Matrix::zeros(3, 5);
        let _ = fold(&m, &Shape::new(&[3, 4]), 0);
    }
}
