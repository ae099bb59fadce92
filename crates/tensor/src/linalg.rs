//! Small dense linear-algebra kernels: Cholesky factorization and
//! symmetric-positive-definite solves.
//!
//! CP-ALS needs to solve `A^(n) V = B` for `A^(n)`, where
//! `V = hadamard_k (A^(k)T A^(k))` is `R x R` symmetric positive
//! (semi-)definite and `B` is the `I_n x R` MTTKRP output. `R` is small, so
//! an unblocked Cholesky is plenty.

use crate::matrix::Matrix;

/// Error type for factorization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix was not (numerically) positive definite; contains the
    /// pivot index where factorization broke down.
    NotPositiveDefinite(usize),
    /// The matrix was not square.
    NotSquare,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite(k) => {
                write!(f, "matrix not positive definite (pivot {k})")
            }
            LinalgError::NotSquare => write!(f, "matrix not square"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Lower-triangular Cholesky factor `L` with `L L^T = A`.
///
/// `A` must be symmetric positive definite; only the lower triangle is read.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare);
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite(j));
        }
        let djj = d.sqrt();
        l[(j, j)] = djj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / djj;
        }
    }
    Ok(l)
}

/// Solves `L y = b` (forward substitution) for one right-hand side in place.
fn forward_sub(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * b[k];
        }
        b[i] = s / l[(i, i)];
    }
}

/// Solves `L^T x = y` (backward substitution) for one right-hand side in place.
fn backward_sub_t(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * b[k];
        }
        b[i] = s / l[(i, i)];
    }
}

/// Solves the SPD system `A X = B` column-by-column via Cholesky.
pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    assert_eq!(a.rows(), b.rows(), "dimension mismatch in solve_spd");
    let l = cholesky(a)?;
    let n = a.rows();
    let mut x = Matrix::zeros(b.rows(), b.cols());
    let mut col = vec![0.0; n];
    for j in 0..b.cols() {
        for i in 0..n {
            col[i] = b[(i, j)];
        }
        forward_sub(&l, &mut col);
        backward_sub_t(&l, &mut col);
        for i in 0..n {
            x[(i, j)] = col[i];
        }
    }
    Ok(x)
}

/// Solves `A X = B` for `A` that is SPD *or* positive semi-definite: tries
/// the plain Cholesky solve first, and on a positive-definiteness failure
/// retries once with the ridge-regularized system `(A + eps*I) X = B` —
/// the standard CP-ALS safeguard for rank-deficient Gram-Hadamard matrices.
///
/// With `eps <= 0.0` no retry is attempted and the original error is
/// returned, so callers can opt out of the fallback explicitly.
pub fn solve_spd_ridge(a: &Matrix, b: &Matrix, eps: f64) -> Result<Matrix, LinalgError> {
    match solve_spd(a, b) {
        Err(LinalgError::NotPositiveDefinite(_)) if eps > 0.0 => {
            let mut a2 = a.clone();
            for i in 0..a2.rows() {
                a2[(i, i)] += eps;
            }
            solve_spd(&a2, b)
        }
        other => other,
    }
}

/// Solves `X A = B` for `X` (`B` is `m x n`, `A` is `n x n` SPD), the shape
/// that appears in the CP-ALS update `A^(n) = MTTKRP / V`.
///
/// If `A` is singular (positive semi-definite), the [`solve_spd_ridge`]
/// fallback retries with a small trace-scaled ridge (`1e-12 * trace/n`).
pub fn solve_spd_right(b: &Matrix, a: &Matrix) -> Result<Matrix, LinalgError> {
    assert_eq!(a.rows(), a.cols(), "A must be square");
    assert_eq!(b.cols(), a.rows(), "dimension mismatch in solve_spd_right");
    let n = a.rows();
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
    let ridge = 1e-12 * (trace / n as f64).max(1e-300);
    // X A = B  <=>  A X^T = B^T (A symmetric).
    let xt = solve_spd_ridge(a, &b.transpose(), ridge)?;
    Ok(xt.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // A = G^T G + n*I is SPD for random G.
        let g = Matrix::random(n + 2, n, seed);
        let mut a = g.gram();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(6, 1);
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose());
        assert!(back.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn cholesky_of_identity_is_identity() {
        let l = cholesky(&Matrix::identity(5)).unwrap();
        assert!(l.max_abs_diff(&Matrix::identity(5)) < 1e-15);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Matrix::identity(3);
        a[(2, 2)] = -1.0;
        assert_eq!(cholesky(&a), Err(LinalgError::NotPositiveDefinite(2)));
    }

    #[test]
    fn cholesky_rejects_nonsquare() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(cholesky(&a), Err(LinalgError::NotSquare));
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = spd(5, 2);
        let x_true = Matrix::random(5, 3, 3);
        let b = a.matmul(&x_true);
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn solve_spd_right_recovers_solution() {
        let a = spd(4, 4);
        let x_true = Matrix::random(7, 4, 5);
        let b = x_true.matmul(&a);
        let x = solve_spd_right(&b, &a).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn solve_spd_ridge_matches_plain_solve_on_spd_input() {
        // On an SPD system the ridge path is never taken: the result is the
        // plain Cholesky solve, bit for bit.
        let a = spd(5, 12);
        let b = Matrix::random(5, 3, 13);
        let plain = solve_spd(&a, &b).unwrap();
        let ridged = solve_spd_ridge(&a, &b, 1e-6).unwrap();
        assert_eq!(plain.data(), ridged.data());
    }

    #[test]
    fn solve_spd_ridge_recovers_semidefinite_system() {
        // Rank-1 (positive semi-definite) A: plain Cholesky fails, the
        // ridge retry produces a finite X with X solving the perturbed
        // system, hence A X ~= B for consistent B.
        let v = Matrix::from_rows_vec(3, 1, vec![1.0, -2.0, 0.5]);
        let a = v.matmul(&v.transpose()); // 3x3 rank-1
        let x_true = Matrix::random(3, 2, 14);
        let b = a.matmul(&x_true);
        assert!(solve_spd(&a, &b).is_err(), "test needs a semidefinite A");
        let x = solve_spd_ridge(&a, &b, 1e-10).unwrap();
        assert!(x.data().iter().all(|v| v.is_finite()));
        assert!(a.matmul(&x).max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn solve_spd_ridge_with_zero_eps_propagates_the_error() {
        let v = Matrix::from_rows_vec(2, 1, vec![1.0, 2.0]);
        let a = v.matmul(&v.transpose());
        let b = Matrix::random(2, 1, 15);
        assert!(matches!(
            solve_spd_ridge(&a, &b, 0.0),
            Err(LinalgError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn solve_spd_ridge_cannot_rescue_an_indefinite_matrix() {
        // An eigenvalue far below -eps stays negative after the ridge.
        let mut a = Matrix::identity(3);
        a[(2, 2)] = -5.0;
        let b = Matrix::random(3, 1, 16);
        assert!(solve_spd_ridge(&a, &b, 1e-8).is_err());
    }

    #[test]
    fn solve_spd_right_handles_semidefinite_with_ridge() {
        // Rank-deficient A (rank 1): the ridge fallback should still produce
        // a finite solution X with X A ~= B for consistent B.
        let v = Matrix::from_rows_vec(2, 1, vec![1.0, 2.0]);
        let a = v.matmul(&v.transpose()); // 2x2 rank-1
        let x_true = Matrix::random(3, 2, 6);
        let b = x_true.matmul(&a);
        let x = solve_spd_right(&b, &a).unwrap();
        let back = x.matmul(&a);
        assert!(back.max_abs_diff(&b) < 1e-5);
    }
}
