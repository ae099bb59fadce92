//! Sparse tensors in coordinate (COO) format — the Section VII extension.
//!
//! The paper's lower bounds assume dense tensors (a zero element would let
//! an algorithm skip work); its conclusion points to sparse MTTKRP, where
//! communication depends on the nonzero structure. This module provides
//! the substrate: a COO tensor, sparsification/densification, and a
//! reference sparse MTTKRP that skips zero entries.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse tensor in coordinate format: sorted, deduplicated
/// `(multi-index, value)` pairs. Zero-valued entries are not stored.
#[derive(Clone, Debug, PartialEq)]
pub struct CooTensor {
    shape: Shape,
    /// Linearized indices (colex, as in [`Shape::linearize`]), ascending.
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CooTensor {
    /// Builds a COO tensor from `(multi-index, value)` pairs. Duplicate
    /// indices are summed; resulting zeros are dropped.
    pub fn from_entries(shape: Shape, entries: &[(Vec<usize>, f64)]) -> Self {
        let mut linearized: Vec<(usize, f64)> = entries
            .iter()
            .map(|(idx, v)| (shape.linearize(idx), *v))
            .collect();
        linearized.sort_by_key(|&(lin, _)| lin);
        let mut indices = Vec::with_capacity(linearized.len());
        let mut values: Vec<f64> = Vec::with_capacity(linearized.len());
        for (lin, v) in linearized {
            if let Some(&last) = indices.last() {
                if last == lin {
                    *values.last_mut().unwrap() += v;
                    continue;
                }
            }
            indices.push(lin);
            values.push(v);
        }
        // Drop exact zeros (including duplicates that cancelled).
        let mut out_idx = Vec::with_capacity(indices.len());
        let mut out_val = Vec::with_capacity(values.len());
        for (lin, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                out_idx.push(lin);
                out_val.push(v);
            }
        }
        CooTensor {
            shape,
            indices: out_idx,
            values: out_val,
        }
    }

    /// Sparsifies a dense tensor (drops exact zeros).
    pub fn from_dense(x: &DenseTensor) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (lin, &v) in x.data().iter().enumerate() {
            if v != 0.0 {
                indices.push(lin);
                values.push(v);
            }
        }
        CooTensor {
            shape: x.shape().clone(),
            indices,
            values,
        }
    }

    /// Random sparse tensor: each entry is nonzero independently with
    /// probability `density`, with value uniform in `[-1, 1)`.
    pub fn random(shape: Shape, density: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for lin in 0..shape.num_entries() {
            if rng.gen::<f64>() < density {
                indices.push(lin);
                let v: f64 = rng.gen_range(-1.0..1.0);
                if v != 0.0 {
                    values.push(v);
                } else {
                    indices.pop();
                }
            }
        }
        CooTensor {
            shape,
            indices,
            values,
        }
    }

    /// Densifies.
    pub fn to_dense(&self) -> DenseTensor {
        let mut data = vec![0.0; self.shape.num_entries()];
        for (&lin, &v) in self.indices.iter().zip(&self.values) {
            data[lin] = v;
        }
        DenseTensor::from_vec(self.shape.clone(), data)
    }

    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterates `(linear index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Extracts the nonzeros falling inside an axis-aligned box
    /// (`ranges[k]` half-open per mode), re-indexed to the box's local
    /// coordinates — the distribution unit for parallel sparse MTTKRP.
    pub fn subtensor(&self, ranges: &[(usize, usize)]) -> CooTensor {
        assert_eq!(ranges.len(), self.shape.order(), "range arity mismatch");
        let sub_shape = Shape::new(
            &ranges
                .iter()
                .enumerate()
                .map(|(k, &(lo, hi))| {
                    assert!(
                        lo < hi && hi <= self.shape.dim(k),
                        "bad range {lo}..{hi} for mode {k} of size {}",
                        self.shape.dim(k)
                    );
                    hi - lo
                })
                .collect::<Vec<usize>>(),
        );
        let mut idx = vec![0usize; self.shape.order()];
        let mut entries = Vec::new();
        for (lin, v) in self.iter() {
            self.shape.delinearize_into(lin, &mut idx);
            if idx
                .iter()
                .zip(ranges)
                .all(|(&i, &(lo, hi))| i >= lo && i < hi)
            {
                let local: Vec<usize> = idx
                    .iter()
                    .zip(ranges)
                    .map(|(&i, &(lo, _))| i - lo)
                    .collect();
                entries.push((local, v));
            }
        }
        CooTensor::from_entries(sub_shape, &entries)
    }
}

/// Sparse MTTKRP: `B(i_n, r) = sum_{nonzeros} X(i) prod_{k != n} A^(k)(i_k, r)`,
/// visiting only stored nonzeros (`O(nnz * R * N)` work instead of
/// `O(I * R * N)`). `factors[n]` is ignored.
pub fn sparse_mttkrp(x: &CooTensor, factors: &[&Matrix], n: usize) -> Matrix {
    let shape = x.shape();
    let order = shape.order();
    assert!(n < order, "mode out of range");
    assert_eq!(factors.len(), order, "need one factor per mode");
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), shape.dim(k), "factor {k} row mismatch");
        assert_eq!(f.cols(), r, "factor {k} rank mismatch");
    }
    let mut b = Matrix::zeros(shape.dim(n), r);
    let mut idx = vec![0usize; order];
    let mut tmp = vec![0.0f64; r];
    for (lin, v) in x.iter() {
        shape.delinearize_into(lin, &mut idx);
        for t in tmp.iter_mut() {
            *t = v;
        }
        for (k, f) in factors.iter().enumerate() {
            if k == n {
                continue;
            }
            for (t, &a) in tmp.iter_mut().zip(f.row(idx[k])) {
                *t *= a;
            }
        }
        for (o, &t) in b.row_mut(idx[n]).iter_mut().zip(&tmp) {
            *o += t;
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mttkrp_reference;

    #[test]
    fn dense_roundtrip() {
        let x = DenseTensor::random(Shape::new(&[3, 4, 2]), 1);
        let coo = CooTensor::from_dense(&x);
        assert_eq!(coo.nnz(), 24);
        assert_eq!(coo.to_dense(), x);
    }

    #[test]
    fn duplicates_summed_and_zeros_dropped() {
        let shape = Shape::new(&[2, 2]);
        let coo = CooTensor::from_entries(
            shape,
            &[
                (vec![0, 0], 1.0),
                (vec![0, 0], 2.0),
                (vec![1, 1], 3.0),
                (vec![1, 0], 5.0),
                (vec![1, 0], -5.0),
            ],
        );
        assert_eq!(coo.nnz(), 2);
        let d = coo.to_dense();
        assert_eq!(d.get(&[0, 0]), 3.0);
        assert_eq!(d.get(&[1, 0]), 0.0);
        assert_eq!(d.get(&[1, 1]), 3.0);
    }

    #[test]
    fn random_density_approximate() {
        let shape = Shape::new(&[20, 20, 20]);
        let coo = CooTensor::random(shape, 0.1, 5);
        let frac = coo.nnz() as f64 / 8000.0;
        assert!((0.07..0.13).contains(&frac), "density {frac}");
    }

    #[test]
    fn sparse_mttkrp_matches_dense_oracle() {
        let shape = Shape::new(&[5, 4, 6]);
        let coo = CooTensor::random(shape.clone(), 0.3, 6);
        let dense = coo.to_dense();
        let factors: Vec<Matrix> = shape
            .dims()
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, 3, 7 + k as u64))
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let sparse = sparse_mttkrp(&coo, &refs, n);
            let oracle = mttkrp_reference(&dense, &refs, n);
            assert!(sparse.max_abs_diff(&oracle) < 1e-11, "mode {n}");
        }
    }

    #[test]
    fn empty_sparse_tensor_gives_zero_output() {
        let shape = Shape::new(&[3, 3]);
        let coo = CooTensor::from_entries(shape, &[]);
        let a = Matrix::random(3, 2, 1);
        let b = Matrix::random(3, 2, 2);
        let out = sparse_mttkrp(&coo, &[&a, &b], 0);
        assert_eq!(out.frob_norm(), 0.0);
    }

    #[test]
    fn subtensor_box_extraction() {
        let shape = Shape::new(&[4, 4]);
        let coo = CooTensor::from_entries(
            shape,
            &[
                (vec![0, 0], 1.0),
                (vec![2, 2], 2.0),
                (vec![3, 3], 3.0),
                (vec![2, 1], 4.0),
            ],
        );
        let sub = coo.subtensor(&[(2, 4), (2, 4)]);
        assert_eq!(sub.nnz(), 2);
        let d = sub.to_dense();
        assert_eq!(d.get(&[0, 0]), 2.0);
        assert_eq!(d.get(&[1, 1]), 3.0);
    }

    #[test]
    fn subtensors_partition_nnz() {
        let shape = Shape::new(&[6, 6]);
        let coo = CooTensor::random(shape, 0.5, 8);
        let boxes = [
            [(0, 3), (0, 3)],
            [(3, 6), (0, 3)],
            [(0, 3), (3, 6)],
            [(3, 6), (3, 6)],
        ];
        let total: usize = boxes.iter().map(|b| coo.subtensor(b).nnz()).sum();
        assert_eq!(total, coo.nnz());
    }
}
