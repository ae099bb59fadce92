//! Dense `N`-way tensors stored contiguously in colexicographic order.

use crate::shape::Shape;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// A dense `N`-way tensor of `f64` values.
///
/// Storage is colexicographic (mode 0 fastest), matching
/// [`Shape::linearize`]; see the `shape` module for the convention.
///
/// The entries sit behind an [`Arc`]: a clone or a [`reshaped`] view shares
/// the buffer, and the first mutable access through a shared handle
/// ([`data_mut`], `IndexMut`) copies it, so no handle ever sees
/// another's writes.
///
/// [`reshaped`]: DenseTensor::reshaped
/// [`data_mut`]: DenseTensor::data_mut
#[derive(Clone, PartialEq)]
pub struct DenseTensor {
    shape: Shape,
    data: Arc<Vec<f64>>,
}

impl fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseTensor({}, {} entries, |X|_F = {:.4})",
            self.shape,
            self.data.len(),
            self.frob_norm()
        )
    }
}

impl DenseTensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.num_entries();
        DenseTensor::from_vec(shape, vec![0.0; n])
    }

    /// Builds a tensor from a closure over multi-indices.
    pub(crate) fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut idx = vec![0usize; shape.order()];
        let data = (0..shape.num_entries())
            .map(|lin| {
                shape.delinearize_into(lin, &mut idx);
                f(&idx)
            })
            .collect();
        DenseTensor::from_vec(shape, data)
    }

    /// Wraps an existing colexicographic data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.num_entries()`.
    pub fn from_vec(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), shape.num_entries(), "data length mismatch");
        DenseTensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// The same entries under another shape of equal size, sharing this
    /// tensor's buffer (no copy). Colexicographic storage makes merging
    /// *adjacent* modes a pure relabeling: the `(I_0 I_1) x I_2` view of an
    /// `I_0 x I_1 x I_2` tensor addresses entry `(i_0 + I_0 i_1, i_2)` where
    /// the original addresses `(i_0, i_1, i_2)`.
    ///
    /// # Panics
    /// Panics if `shape.num_entries() != self.num_entries()`.
    pub fn reshaped(&self, shape: Shape) -> DenseTensor {
        assert_eq!(
            shape.num_entries(),
            self.num_entries(),
            "a reshape keeps the entry count"
        );
        DenseTensor {
            shape,
            data: Arc::clone(&self.data),
        }
    }

    /// Uniform random tensor in `[-1, 1)` with a fixed seed (deterministic).
    pub fn random(shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(-1.0, 1.0);
        let data = (0..shape.num_entries())
            .map(|_| dist.sample(&mut rng))
            .collect();
        DenseTensor::from_vec(shape, data)
    }

    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    #[inline]
    pub fn num_entries(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The entries, mutably. Copies the buffer first if another handle (a
    /// clone or a [`DenseTensor::reshaped`] view) still shares it.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Entry at a multi-index.
    #[inline]
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.shape.linearize(index)]
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Frobenius norm of `self - other`.
    pub fn frob_dist(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Extracts the sub-tensor with mode-`k` indices in `ranges[k] = (lo, hi)`
    /// (half-open). Used by the blocked and distributed algorithms.
    pub fn subtensor(&self, ranges: &[(usize, usize)]) -> DenseTensor {
        assert_eq!(ranges.len(), self.order(), "range arity mismatch");
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            assert!(
                lo < hi && hi <= self.shape.dim(k),
                "bad range {lo}..{hi} for mode {k} of size {}",
                self.shape.dim(k)
            );
        }
        let sub_shape = Shape::new(
            &ranges
                .iter()
                .map(|&(lo, hi)| hi - lo)
                .collect::<Vec<usize>>(),
        );
        // Colex storage keeps the mode-0 run of a fixed (i_1, ..., i_{N-1})
        // contiguous in both tensors: copy run by run.
        let run = ranges[0].1 - ranges[0].0;
        let mut out = vec![0.0; sub_shape.num_entries()];
        let mut idx = vec![0usize; self.order()];
        for (k, dst) in out.chunks_exact_mut(run).enumerate() {
            sub_shape.delinearize_into(k * run, &mut idx);
            for (i, &(lo, _)) in idx.iter_mut().zip(ranges) {
                *i += lo;
            }
            let src = self.shape.linearize(&idx);
            dst.copy_from_slice(&self.data[src..src + run]);
        }
        DenseTensor::from_vec(sub_shape, out)
    }
}

impl Index<&[usize]> for DenseTensor {
    type Output = f64;
    #[inline]
    fn index(&self, index: &[usize]) -> &f64 {
        &self.data[self.shape.linearize(index)]
    }
}

impl IndexMut<&[usize]> for DenseTensor {
    #[inline]
    fn index_mut(&mut self, index: &[usize]) -> &mut f64 {
        let lin = self.shape.linearize(index);
        &mut self.data_mut()[lin]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get() {
        let mut t = DenseTensor::zeros(Shape::new(&[2, 2]));
        t[&[1, 0][..]] = 5.0;
        assert_eq!(t.get(&[1, 0]), 5.0);
        assert_eq!(t.get(&[0, 1]), 0.0);
    }

    #[test]
    fn to_matrix_layout() {
        // Entries X(i,j) stored colexicographically land at (i,j) of the
        // mode-0 matricization of an order-2 tensor.
        let t = DenseTensor::from_fn(Shape::new(&[2, 3]), |idx| (idx[0] * 10 + idx[1]) as f64);
        let m = crate::matricize::matricize(&t, 0);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn from_fn_and_get_agree() {
        let shape = Shape::new(&[3, 4, 2]);
        let t = DenseTensor::from_fn(shape.clone(), |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        assert_eq!(t.get(&[2, 3, 1]), 231.0);
        assert_eq!(t[&[1, 0, 1][..]], 101.0);
    }

    #[test]
    fn subtensor_extracts_block() {
        let shape = Shape::new(&[4, 5]);
        let t = DenseTensor::from_fn(shape, |idx| (idx[0] * 10 + idx[1]) as f64);
        let sub = t.subtensor(&[(1, 3), (2, 5)]);
        assert_eq!(sub.shape().dims(), &[2, 3]);
        assert_eq!(sub.get(&[0, 0]), 12.0);
        assert_eq!(sub.get(&[1, 2]), 24.0);
    }

    #[test]
    fn subtensor_full_range_is_identity() {
        let t = DenseTensor::random(Shape::new(&[3, 2, 4]), 9);
        let sub = t.subtensor(&[(0, 3), (0, 2), (0, 4)]);
        assert_eq!(sub, t);
    }

    #[test]
    fn reshaped_shares_storage_until_one_handle_writes() {
        let t = DenseTensor::random(Shape::new(&[3, 4, 5]), 31);
        let mut view = t.reshaped(Shape::new(&[12, 5]));
        assert!(std::ptr::eq(t.data().as_ptr(), view.data().as_ptr()));
        assert_eq!(view.get(&[1 + 3 * 2, 4]), t.get(&[1, 2, 4]));
        // Copy-on-write: the write lands in the view's own buffer.
        let before = t.data().to_vec();
        view.data_mut()[0] += 1.0;
        assert_eq!(t.data(), before);
        assert_eq!(view.data()[0], before[0] + 1.0);
        assert!(!std::ptr::eq(t.data().as_ptr(), view.data().as_ptr()));
        // An unshared tensor mutates in place.
        let mut own = DenseTensor::zeros(Shape::new(&[2, 2]));
        let ptr = own.data().as_ptr();
        own.data_mut()[3] = 2.0;
        assert!(std::ptr::eq(ptr, own.data().as_ptr()));
    }

    #[test]
    #[should_panic(expected = "keeps the entry count")]
    fn reshaped_rejects_a_different_size() {
        let _ = DenseTensor::zeros(Shape::new(&[2, 3])).reshaped(Shape::new(&[7]));
    }

    #[test]
    fn frob_norm_simple() {
        let t = DenseTensor::from_vec(Shape::new(&[2, 2]), vec![1.0, 2.0, 2.0, 4.0]);
        assert!((t.frob_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_deterministic() {
        let a = DenseTensor::random(Shape::new(&[3, 3]), 1);
        let b = DenseTensor::random(Shape::new(&[3, 3]), 1);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn subtensor_bad_range_panics() {
        let t = DenseTensor::zeros(Shape::new(&[3, 3]));
        let _ = t.subtensor(&[(0, 4), (0, 3)]);
    }

    #[test]
    #[should_panic]
    fn frob_dist_shape_mismatch_panics() {
        let a = DenseTensor::zeros(Shape::new(&[2, 3]));
        let b = DenseTensor::zeros(Shape::new(&[3, 2]));
        let _ = a.frob_dist(&b);
    }
}
