//! Khatri-Rao (column-wise Kronecker) products.
//!
//! The MTTKRP-via-matmul baseline (paper Section III-B) forms the explicit
//! Khatri-Rao product of the input factor matrices and multiplies it by the
//! matricized tensor. The structure of this matrix — `I/I_n` rows determined
//! by only `sum_{k != n} I_k * R` parameters — is exactly the structure the
//! paper's algorithms exploit to communicate less.

use crate::matrix::Matrix;

/// Two-matrix Khatri-Rao product `A kr B`.
///
/// Column `r` of the result is the Kronecker product `a_r (x) b_r`, with
/// `B`'s row index varying fastest: entry `((i*rowsB + j), r) = A(i,r)*B(j,r)`.
pub fn khatri_rao(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "Khatri-Rao operands must share the column count"
    );
    let r = a.cols();
    let mut out = Matrix::zeros(a.rows() * b.rows(), r);
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let row = i * b.rows() + j;
            let (a_row, b_row) = (a.row(i), b.row(j));
            let o = out.row_mut(row);
            for ((o, &av), &bv) in o.iter_mut().zip(a_row).zip(b_row) {
                *o = av * bv;
            }
        }
    }
    out
}

/// Multi-matrix Khatri-Rao product in *colexicographic* order.
///
/// `mats` are given in mode order (mode 0 first). The result has
/// `prod_k rows(mats[k])` rows; row `j` corresponds to the multi-index
/// `(i_0, ..., i_{K-1})` with **mode 0 varying fastest**
/// (`j = i_0 + i_1*rows_0 + ...`), matching the column ordering of
/// [`crate::matricize::matricize`]. In Kolda-Bader notation this is
/// `mats[K-1] kr ... kr mats[0]`.
pub fn khatri_rao_colex(mats: &[&Matrix]) -> Matrix {
    assert!(!mats.is_empty(), "need at least one matrix");
    let r = mats[0].cols();
    assert!(
        mats.iter().all(|m| m.cols() == r),
        "all Khatri-Rao operands must share the column count"
    );
    let total_rows: usize = mats.iter().map(|m| m.rows()).product();
    let mut out = Matrix::zeros(total_rows, r);
    let mut idx = vec![0usize; mats.len()];
    for j in 0..total_rows {
        // Delinearize j with mode 0 fastest.
        let mut rem = j;
        for (k, m) in mats.iter().enumerate() {
            idx[k] = rem % m.rows();
            rem /= m.rows();
        }
        let o = out.row_mut(j);
        for c in 0..r {
            let mut prod = 1.0;
            for (k, m) in mats.iter().enumerate() {
                prod *= m.row(idx[k])[c];
            }
            o[c] = prod;
        }
    }
    out
}

/// Hadamard product of the Gram matrices of all `mats` — the `V` matrix in
/// the CP-ALS normal equations `A^(n) V = MTTKRP(X, n)`.
pub fn gram_hadamard(mats: &[&Matrix]) -> Matrix {
    assert!(!mats.is_empty(), "need at least one matrix");
    let r = mats[0].cols();
    let mut v = Matrix::from_fn(r, r, |_, _| 1.0);
    for m in mats {
        v = v.hadamard(&m.gram());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn khatri_rao_small_example() {
        let a = Matrix::from_rows_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let k = khatri_rao(&a, &b);
        assert_eq!(k.rows(), 4);
        // Column 0 = kron([1,3],[5,7]) = [5,7,15,21]
        let col = |j| (0..4).map(|i| k[(i, j)]).collect::<Vec<f64>>();
        assert_eq!(col(0), vec![5.0, 7.0, 15.0, 21.0]);
        // Column 1 = kron([2,4],[6,8]) = [12,16,24,32]
        assert_eq!(col(1), vec![12.0, 16.0, 24.0, 32.0]);
    }

    #[test]
    fn colex_two_matrices_matches_swapped_pairwise() {
        // khatri_rao_colex([A, B]) has mode-0 (A's row) fastest, i.e. it is
        // B kr A in the classical convention.
        let a = Matrix::random(3, 4, 1);
        let b = Matrix::random(2, 4, 2);
        let colex = khatri_rao_colex(&[&a, &b]);
        let classic = khatri_rao(&b, &a);
        assert!(colex.max_abs_diff(&classic) < 1e-15);
    }

    #[test]
    fn colex_three_matrices_associativity() {
        let a = Matrix::random(2, 3, 3);
        let b = Matrix::random(3, 3, 4);
        let c = Matrix::random(2, 3, 5);
        let colex = khatri_rao_colex(&[&a, &b, &c]);
        // C kr (B kr A) with classical pairwise products.
        let classic = khatri_rao(&c, &khatri_rao(&b, &a));
        assert!(colex.max_abs_diff(&classic) < 1e-15);
        assert_eq!(colex.rows(), 12);
    }

    #[test]
    fn colex_single_matrix_is_identity_op() {
        let a = Matrix::random(4, 2, 6);
        let k = khatri_rao_colex(&[&a]);
        assert!(k.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn gram_hadamard_matches_manual() {
        let a = Matrix::random(5, 3, 7);
        let b = Matrix::random(4, 3, 8);
        let v = gram_hadamard(&[&a, &b]);
        let manual = a.gram().hadamard(&b.gram());
        assert!(v.max_abs_diff(&manual) < 1e-12);
    }

    #[test]
    fn krp_gram_identity() {
        // Gram of a Khatri-Rao product equals the Hadamard of the Grams:
        // (A kr B)^T (A kr B) = (A^T A) .* (B^T B).
        let a = Matrix::random(4, 3, 9);
        let b = Matrix::random(5, 3, 10);
        let krp = khatri_rao(&a, &b);
        let lhs = krp.gram();
        let rhs = gram_hadamard(&[&a, &b]);
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_cols_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = khatri_rao(&a, &b);
    }
}
