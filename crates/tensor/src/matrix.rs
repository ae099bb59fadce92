//! Dense row-major matrices and the small set of BLAS-like kernels the
//! MTTKRP algorithms and CP-ALS need.
//!
//! This is deliberately a minimal, well-tested substrate — not a general
//! linear-algebra library. Entry `(i, j)` of an `m x n` matrix lives at
//! `data[i * n + j]` (row-major), which keeps a factor-matrix *row* —
//! the unit of communication in the parallel algorithms — contiguous.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zeros `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// Uniform random matrix in `[-1, 1)` with a fixed seed (deterministic).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0, 1.0);
        let data = (0..rows * cols).map(|_| dist.sample(&mut rng)).collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The row-major backing storage, by value.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A sub-block of rows `[r0, r1)` as a new matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 < r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        Matrix::from_rows_vec(
            r1 - r0,
            self.cols,
            self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        )
    }

    /// Splits the rows into consecutive chunks of at most `chunk_rows` rows
    /// each: an indexed parallel iterator over disjoint `(first_row,
    /// rows_data)` pairs, `rows_data` the chunk's row-major storage.
    /// Because the chunks partition the backing storage, concurrent mutation
    /// is race-free by construction — no `unsafe` anywhere.
    pub fn par_row_chunks_mut(
        &mut self,
        chunk_rows: usize,
    ) -> impl IndexedParallelIterator<Item = (usize, &mut [f64])> + '_ {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let cols = self.cols;
        self.data
            .par_chunks_mut(chunk_rows * cols)
            .enumerate()
            .map(move |(c, chunk)| (c * chunk_rows, chunk))
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose into `t`, a `cols x rows` matrix.
    pub fn transpose_into(&self, t: &mut Matrix) {
        assert_eq!((t.rows, t.cols), (self.cols, self.rows), "transpose shape");
        for (i, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                t.data[j * self.rows + i] = v;
            }
        }
    }

    /// Classical matrix multiplication `self * other` (i-k-j loop order, so
    /// the inner loop streams contiguously through both operands).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut c = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let c_row = &mut c.data[i * n..(i + 1) * n];
            for (k, &aik) in a_row.iter().enumerate() {
                let b_row = &other.data[k * n..(k + 1) * n];
                for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                    *cij += aik * bkj;
                }
            }
        }
        c
    }

    /// Gram matrix `self^T * self` (`cols x cols`).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        self.gram_into(&mut g);
        g
    }

    /// Writes the Gram matrix `self^T * self` into `g`, a `cols x cols`
    /// matrix. Entry `(a, b)` is `sum_i self(i, a) * self(i, b)`, summed from
    /// zero over the rows in order; a whole row of `g` gains one row's
    /// products at a time, so its independent entries share vector lanes.
    /// The product commutes exactly, so `(a, b)` and `(b, a)` are equal bit
    /// for bit.
    pub fn gram_into(&self, g: &mut Matrix) {
        let n = self.cols;
        assert_eq!((g.rows, g.cols), (n, n), "gram shape");
        g.data.fill(0.0);
        for r in self.data.chunks_exact(n) {
            for (grow, &ra) in g.data.chunks_exact_mut(n).zip(r) {
                for (gv, &rb) in grow.iter_mut().zip(r) {
                    *gv += ra * rb;
                }
            }
        }
    }

    /// Entrywise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        let mut h = self.clone();
        h.hadamard_assign(other);
        h
    }

    /// `self = self ∘ other`, entrywise.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference (`inf` norm of the difference).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Writes the Euclidean norm of each column into `norms`: the squares
    /// summed from zero over the rows in order, then one square root.
    fn col_norms_into(&self, norms: &mut [f64]) {
        assert_eq!(norms.len(), self.cols, "one norm per column");
        norms.fill(0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (n, &v) in norms.iter_mut().zip(row) {
                *n += v * v;
            }
        }
        for n in norms {
            *n = n.sqrt();
        }
    }

    /// Normalizes each column to unit 2-norm, returning the former norms.
    /// Columns with zero norm are left untouched (their reported norm is 0).
    pub fn normalize_cols(&mut self) -> Vec<f64> {
        let mut norms = vec![0.0; self.cols];
        self.normalize_cols_into(&mut norms);
        norms
    }

    /// [`Matrix::normalize_cols`], writing the former norms into `norms`.
    pub fn normalize_cols_into(&mut self, norms: &mut [f64]) {
        self.col_norms_into(norms);
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &n) in row.iter_mut().zip(&*norms) {
                if n > 0.0 {
                    *v /= n;
                }
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::random(4, 6, 1);
        let identity = |n| Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let (i4, i6) = (identity(4), identity(6));
        assert!(i4.matmul(&a).max_abs_diff(&a) < 1e-15);
        assert!(a.matmul(&i6).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn matmul_matches_naive_triple_loop() {
        let a = Matrix::random(5, 7, 2);
        let b = Matrix::random(7, 3, 3);
        let c = a.matmul(&b);
        for i in 0..5 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..7 {
                    s += a[(i, k)] * b[(k, j)];
                }
                assert!(approx_eq(c[(i, j)], s));
            }
        }
    }

    #[test]
    fn gram_matches_transpose_matmul() {
        let a = Matrix::random(9, 4, 4);
        let g = a.gram();
        let g2 = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn gram_is_symmetric() {
        let a = Matrix::random(6, 5, 5);
        let g = a.gram();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::random(3, 8, 6);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn hadamard_and_axpy() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let h = a.hadamard(&b);
        assert_eq!(h[(1, 1)], 2.0 * 3.0);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c[(1, 0)], 1.0 + 2.0 * 2.0);
    }

    #[test]
    fn row_and_col_blocks() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 10 + j) as f64);
        let rb = a.row_block(1, 3);
        assert_eq!(rb.rows(), 2);
        assert_eq!(rb[(0, 2)], 12.0);
        let col: Vec<f64> = (0..4).map(|i| a[(i, 1)]).collect();
        assert_eq!(col, vec![1.0, 11.0, 21.0, 31.0]);
    }

    #[test]
    fn normalize_cols_unit_norm() {
        let mut a = Matrix::random(10, 3, 7);
        let norms = a.normalize_cols();
        assert!(norms.iter().all(|&n| n > 0.0));
        for (j, _) in norms.iter().enumerate() {
            let col_norm: f64 = (0..10).map(|i| a[(i, j)].powi(2)).sum::<f64>().sqrt();
            assert!(approx_eq(col_norm, 1.0));
        }
    }

    #[test]
    fn normalize_zero_column_is_safe() {
        let mut a = Matrix::zeros(4, 2);
        a[(0, 1)] = 3.0;
        let norms = a.normalize_cols();
        assert_eq!(norms[0], 0.0);
        assert_eq!(norms[1], 3.0);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(0, 1)], 1.0);
    }

    #[test]
    fn frob_norms() {
        let a = Matrix::from_rows_vec(1, 2, vec![3.0, 4.0]);
        assert!(approx_eq(a.frob_norm(), 5.0));
    }

    #[test]
    fn random_is_deterministic() {
        let a = Matrix::random(5, 5, 42);
        let b = Matrix::random(5, 5, 42);
        assert_eq!(a, b);
        let c = Matrix::random(5, 5, 43);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    #[should_panic]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn row_chunks_mut_partition_rows() {
        let mut a = Matrix::from_fn(7, 3, |i, j| (i * 10 + j) as f64);
        let chunks: Vec<(usize, usize)> = a
            .par_row_chunks_mut(3)
            .map(|(r0, data)| (r0, data.len() / 3))
            .collect();
        assert_eq!(chunks, vec![(0, 3), (3, 3), (6, 1)]);
    }

    #[test]
    fn par_row_chunks_mut_matches_serial() {
        // Chunks of 2 rows: row i is in the chunk that starts at i - i % 2.
        let a = Matrix::from_fn(9, 4, |i, j| (i + j + i - i % 2) as f64);
        let mut b = Matrix::from_fn(9, 4, |i, j| (i + j) as f64);
        b.par_row_chunks_mut(2).for_each(|(r0, chunk)| {
            for v in chunk.iter_mut() {
                *v += r0 as f64;
            }
        });
        assert_eq!(a, b);
    }

    /// Ranks on both sides of every vector width and unroll.
    const RANKS: [usize; 8] = [1, 2, 3, 5, 8, 13, 16, 33];

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gram_is_the_upper_triangle_and_its_mirror_bit_for_bit() {
        for r in RANKS {
            for rows in [1, 7, 20] {
                let a = Matrix::random(rows, r, (100 * r + rows) as u64);
                let mut want = Matrix::zeros(r, r);
                for i in 0..rows {
                    let row = a.row(i);
                    for x in 0..r {
                        for y in x..r {
                            want[(x, y)] += row[x] * row[y];
                        }
                    }
                }
                for x in 0..r {
                    for y in 0..x {
                        want[(x, y)] = want[(y, x)];
                    }
                }
                assert_eq!(bits(&a.gram()), bits(&want), "R = {r}, {rows} rows");
                // Into a buffer a previous Gram left behind.
                let mut g = Matrix::from_fn(r, r, |_, _| f64::NAN);
                a.gram_into(&mut g);
                assert_eq!(bits(&g), bits(&want), "R = {r}, {rows} rows, into");
            }
        }
    }

    #[test]
    fn normalize_cols_is_the_column_at_a_time_reference_bit_for_bit() {
        for r in RANKS {
            let mut a = Matrix::random(20, r, 200 + r as u64);
            // A collapsed column keeps its zeros and reports norm 0.
            for i in 0..20 {
                a[(i, r / 2)] = 0.0;
            }
            let mut want = a.clone();
            let mut want_norms = vec![0.0; r];
            for c in 0..r {
                for i in 0..20 {
                    want_norms[c] += want[(i, c)] * want[(i, c)];
                }
                want_norms[c] = want_norms[c].sqrt();
                for i in 0..20 {
                    if want_norms[c] > 0.0 {
                        want[(i, c)] /= want_norms[c];
                    }
                }
            }
            let norms = a.normalize_cols();
            assert_eq!(bits(&a), bits(&want), "R = {r}");
            let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(as_bits(&norms), as_bits(&want_norms), "R = {r}, norms");
        }
    }

    #[test]
    fn col_norms_match_cols() {
        // The norms `normalize_cols` reports are the columns' own norms.
        let a = Matrix::random(7, 4, 11);
        let norms = a.clone().normalize_cols();
        for (j, &norm) in norms.iter().enumerate() {
            let expect: f64 = (0..7).map(|i| a[(i, j)].powi(2)).sum::<f64>().sqrt();
            assert!(approx_eq(norm, expect));
        }
    }
}
