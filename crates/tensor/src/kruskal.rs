//! Kruskal tensors: the factored form of a CP decomposition.
//!
//! A rank-`R` Kruskal tensor is a weight vector `lambda in R^R` plus factor
//! matrices `A^(1), ..., A^(N)` (`I_k x R`); it represents
//! `X = sum_r lambda_r a^(1)_r o ... o a^(N)_r` (Eq. (1) of the paper).

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;

/// A CP (Kruskal) tensor: weights + factor matrices.
#[derive(Clone, Debug)]
pub struct KruskalTensor {
    /// Per-component weights `lambda_r`.
    pub weights: Vec<f64>,
    /// Factor matrices, one per mode, each `I_k x R`.
    pub factors: Vec<Matrix>,
}

impl KruskalTensor {
    /// Builds a Kruskal tensor with unit weights.
    ///
    /// # Panics
    /// Panics if the factor matrices do not all share a column count, or if
    /// fewer than two factors are given.
    pub fn from_factors(factors: Vec<Matrix>) -> Self {
        assert!(factors.len() >= 2, "need at least two factor matrices");
        let r = factors[0].cols();
        assert!(
            factors.iter().all(|f| f.cols() == r),
            "all factors must share the rank (column count)"
        );
        KruskalTensor {
            weights: vec![1.0; r],
            factors,
        }
    }

    /// Random rank-`r` Kruskal tensor for the given shape (deterministic).
    pub fn random(shape: &Shape, r: usize, seed: u64) -> Self {
        let factors = (0..shape.order())
            .map(|k| Matrix::random(shape.dim(k), r, seed.wrapping_add(k as u64)))
            .collect();
        KruskalTensor::from_factors(factors)
    }

    /// CP rank `R` of the representation.
    pub fn rank(&self) -> usize {
        self.factors[0].cols()
    }

    /// Number of modes `N`.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Shape of the represented tensor.
    pub fn shape(&self) -> Shape {
        Shape::new(
            &self
                .factors
                .iter()
                .map(Matrix::rows)
                .collect::<Vec<usize>>(),
        )
    }

    /// Materializes the full dense tensor (Eq. (1)).
    pub fn full(&self) -> DenseTensor {
        let shape = self.shape();
        let r = self.rank();
        DenseTensor::from_fn(shape, |idx| {
            let mut total = 0.0;
            for c in 0..r {
                let mut prod = self.weights[c];
                for (k, &i) in idx.iter().enumerate() {
                    prod *= self.factors[k][(i, c)];
                }
                total += prod;
            }
            total
        })
    }

    /// Relative fit `1 - |X - full(self)|_F / |X|_F` against a dense tensor.
    pub fn fit_to(&self, x: &DenseTensor) -> f64 {
        let full = self.full();
        1.0 - full.frob_dist(x) / x.frob_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_one_full_is_outer_product() {
        let a = Matrix::from_rows_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_rows_vec(3, 1, vec![3.0, 4.0, 5.0]);
        let kt = KruskalTensor::from_factors(vec![a, b]);
        let x = kt.full();
        for i in 0..2 {
            for j in 0..3 {
                let ai = [1.0, 2.0][i];
                let bj = [3.0, 4.0, 5.0][j];
                assert_eq!(x.get(&[i, j]), ai * bj);
            }
        }
    }

    #[test]
    fn norm_squared_matches_full() {
        // |X|^2 = lambda^T (hadamard_k A^(k)T A^(k)) lambda, the identity
        // the ALS fit reads its model norm from.
        let kt = KruskalTensor::random(&Shape::new(&[4, 3, 5]), 3, 1);
        let direct = kt.full().frob_norm().powi(2);
        let refs: Vec<&Matrix> = kt.factors.iter().collect();
        let v = crate::khatri_rao::gram_hadamard(&refs);
        let w = &kt.weights;
        let clever: f64 = (0..3)
            .flat_map(|a| (0..3).map(move |b| (a, b)))
            .map(|(a, b)| w[a] * v[(a, b)] * w[b])
            .sum();
        assert!((direct - clever).abs() < 1e-9 * (1.0 + direct));
    }

    #[test]
    fn normalize_preserves_full_tensor() {
        // Unit-norm factor columns with the norms folded into the weights
        // (the standard CP normalization) represent the same tensor.
        let mut kt = KruskalTensor::random(&Shape::new(&[3, 4, 2]), 2, 2);
        let before = kt.full();
        for f in &mut kt.factors {
            for (w, n) in kt.weights.iter_mut().zip(f.normalize_cols()) {
                *w *= n;
            }
        }
        let after = kt.full();
        assert!(before.frob_dist(&after) < 1e-12 * (1.0 + before.frob_norm()));
    }

    #[test]
    fn fit_of_exact_representation_is_one() {
        let kt = KruskalTensor::random(&Shape::new(&[3, 3, 3]), 2, 3);
        let x = kt.full();
        assert!((kt.fit_to(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_linearly() {
        let mut kt = KruskalTensor::random(&Shape::new(&[2, 3]), 2, 4);
        let x1 = kt.full();
        for w in &mut kt.weights {
            *w = 2.0;
        }
        let x2 = kt.full();
        let mut x1s = x1.clone();
        for v in x1s.data_mut() {
            *v *= 2.0;
        }
        assert!(x2.frob_dist(&x1s) < 1e-12 * (1.0 + x1.frob_norm()));
    }

    #[test]
    #[should_panic]
    fn mismatched_rank_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 3);
        let _ = KruskalTensor::from_factors(vec![a, b]);
    }
}
