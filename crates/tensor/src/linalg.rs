//! Small dense linear-algebra kernels: Cholesky factorization and
//! symmetric-positive-definite solves.
//!
//! CP-ALS needs to solve `A^(n) V = B` for `A^(n)`, where
//! `V = hadamard_k (A^(k)T A^(k))` is `R x R` symmetric positive
//! (semi-)definite and `B` is the `I_n x R` MTTKRP output. `R` is small, so
//! an unblocked Cholesky is plenty.
//!
//! The solves substitute a row of `X` at a time over all right-hand sides:
//! row `i` is reduced by `l(i, k) * row k` for `k` ascending, then divided by
//! `l(i, i)` (forward; backward runs the rows in reverse against `l(k, i)`).
//! Right-hand side `j` is column `j` of `X`, so consecutive right-hand sides
//! share a vector register, and each entry still runs exactly the
//! multiplies and subtracts of a one-column substitution, in its order,
//! unfused. [`solve_spd_ridge_into`] solves in place against a caller's
//! factor buffer, for callers that solve every sweep.

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
    let mut l = Matrix::zeros(a.rows(), a.rows());
    factor_into(a, 0.0, &mut l)?;
    Ok(l)
}

/// Writes the Cholesky factor of `A + shift * I` into `l` (`n x n`, its
/// upper triangle zeroed), a row at a time: entry `(i, j)` is
/// `(a(i, j) - sum_{k<j} l(i, k) * l(j, k)) / l(j, j)`, the diagonal
/// `sqrt(a(j, j) + shift - sum_{k<j} l(j, k)^2)`, each sum subtracted in `k`
/// order. The pivot reported on failure is the first diagonal that is not
/// positive and finite. A zero `shift` changes no outcome: it turns only a
/// `-0.0` diagonal into `+0.0`, and both fail.
fn factor_into(a: &Matrix, shift: f64, l: &mut Matrix) -> Result<(), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare);
    }
    let n = a.rows();
    assert_eq!((l.rows(), l.cols()), (n, n), "factor shape");
    for i in 0..n {
        let (done, rest) = l.data_mut().split_at_mut(i * n);
        let li = &mut rest[..n];
        for (j, lj) in done.chunks_exact(n).enumerate() {
            let mut s = a[(i, j)];
            for (&lik, &ljk) in li[..j].iter().zip(lj) {
                s -= lik * ljk;
            }
            li[j] = s / lj[j];
        }
        let mut d = a[(i, i)] + shift;
        for &lik in &li[..i] {
            d -= lik * lik;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite(i));
        }
        li[i] = d.sqrt();
        li[i + 1..].fill(0.0);
    }
    Ok(())
}

/// Solves `L L^T X = B` in place, `x` holding `B` on entry: forward, then
/// backward substitution, a row of `x` (one entry per right-hand side) at a
/// time.
fn substitute(l: &Matrix, x: &mut Matrix) {
    let (n, m) = (l.rows(), x.cols());
    let data = x.data_mut();
    let reduce = |xi: &mut [f64], lik: f64, xk: &[f64]| {
        for (v, &y) in xi.iter_mut().zip(xk) {
            *v -= lik * y;
        }
    };
    let divide = |xi: &mut [f64], lii: f64| {
        for v in xi {
            *v /= lii;
        }
    };
    for i in 0..n {
        let (done, rest) = data.split_at_mut(i * m);
        let xi = &mut rest[..m];
        for (k, xk) in done.chunks_exact(m).enumerate() {
            reduce(xi, l[(i, k)], xk);
        }
        divide(xi, l[(i, i)]);
    }
    for i in (0..n).rev() {
        let (head, done) = data.split_at_mut((i + 1) * m);
        let xi = &mut head[i * m..];
        for (k, xk) in (i + 1..n).zip(done.chunks_exact(m)) {
            reduce(xi, l[(k, i)], xk);
        }
        divide(xi, l[(i, i)]);
    }
}

/// Solves the SPD system `A X = B` via Cholesky.
pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    solve_spd_ridge(a, b, 0.0)
}

/// Solves `A X = B` for `A` that is SPD *or* positive semi-definite: tries
/// the plain Cholesky solve first, and on a positive-definiteness failure
/// retries once with the ridge-regularized system `(A + eps*I) X = B` —
/// the standard CP-ALS safeguard for rank-deficient Gram-Hadamard matrices.
///
/// With `eps <= 0.0` no retry is attempted and the original error is
/// returned, so callers can opt out of the fallback explicitly.
pub fn solve_spd_ridge(a: &Matrix, b: &Matrix, eps: f64) -> Result<Matrix, LinalgError> {
    let mut x = b.clone();
    let mut l = Matrix::zeros(a.rows(), a.rows());
    solve_spd_ridge_into(a, &mut x, eps, &mut l)?;
    Ok(x)
}

/// [`solve_spd_ridge`] in place: `x` holds `B` on entry and `X` on success
/// (on failure it is untouched), and `l`, an `n x n` buffer, receives the
/// Cholesky factor of the system that was solved. Nothing is allocated.
pub fn solve_spd_ridge_into(
    a: &Matrix,
    x: &mut Matrix,
    eps: f64,
    l: &mut Matrix,
) -> Result<(), LinalgError> {
    assert_eq!(a.rows(), x.rows(), "dimension mismatch in solve_spd");
    match factor_into(a, 0.0, l) {
        Err(LinalgError::NotPositiveDefinite(_)) if eps > 0.0 => factor_into(a, eps, l)?,
        other => other?,
    }
    substitute(l, x);
    Ok(())
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

    fn identity(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
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
        let l = cholesky(&identity(5)).unwrap();
        assert!(l.max_abs_diff(&identity(5)) < 1e-15);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = identity(3);
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
        let mut a = identity(3);
        a[(2, 2)] = -5.0;
        let b = Matrix::random(3, 1, 16);
        assert!(solve_spd_ridge(&a, &b, 1e-8).is_err());
    }

    /// The column-at-a-time bodies the row-at-a-time solve replaced: the
    /// references the new arithmetic must equal bit for bit.
    mod reference {
        use super::*;

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

        fn forward_sub(l: &Matrix, b: &mut [f64]) {
            for i in 0..l.rows() {
                let mut s = b[i];
                for k in 0..i {
                    s -= l[(i, k)] * b[k];
                }
                b[i] = s / l[(i, i)];
            }
        }

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

        pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
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
    }

    /// Ranks on both sides of every vector width and unroll.
    const RANKS: [usize; 8] = [1, 2, 3, 5, 8, 13, 16, 33];

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_at_a_time_solve_is_the_column_at_a_time_solve_bit_for_bit() {
        for r in RANKS {
            let a = spd(r, 20 + r as u64);
            assert_eq!(
                bits(&cholesky(&a).unwrap()),
                bits(&reference::cholesky(&a).unwrap()),
                "cholesky, R = {r}"
            );
            for rhs in [1, 7, 20] {
                let b = Matrix::random(r, rhs, 40 + (r * rhs) as u64);
                let got = solve_spd(&a, &b).unwrap();
                let want = reference::solve_spd(&a, &b).unwrap();
                assert_eq!(bits(&got), bits(&want), "R = {r}, {rhs} right-hand sides");
            }
        }
    }

    #[test]
    fn the_ridge_retry_is_the_reference_retry_bit_for_bit() {
        for r in RANKS {
            // A Gram with one zero column is semidefinite with an exactly
            // zero pivot: Cholesky breaks down there, and the ridge retry
            // solves `(A + eps I) X = B`.
            let mut g = Matrix::random(r + 2, r, 60 + r as u64);
            for i in 0..r + 2 {
                g[(i, r / 2)] = 0.0;
            }
            let a = g.gram();
            let b = Matrix::random(r, 20, 70 + r as u64);
            assert!(
                solve_spd(&a, &b).is_err(),
                "R = {r}: needs a semidefinite A"
            );
            let got = solve_spd_ridge(&a, &b, 1e-9).unwrap();
            let want = reference::solve_spd_ridge(&a, &b, 1e-9).unwrap();
            assert_eq!(bits(&got), bits(&want), "R = {r}");

            // In place, over scratch a previous solve left behind.
            let (mut x, mut l) = (b.clone(), Matrix::from_fn(r, r, |_, _| f64::NAN));
            solve_spd_ridge_into(&a, &mut x, 1e-9, &mut l).unwrap();
            assert_eq!(bits(&x), bits(&want), "R = {r}, in place");
            let shifted = Matrix::from_fn(r, r, |i, j| a[(i, j)] + if i == j { 1e-9 } else { 0.0 });
            assert_eq!(bits(&l), bits(&reference::cholesky(&shifted).unwrap()));
        }
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
