//! Tensor shapes, strides, and multi-index arithmetic.
//!
//! Throughout the crate we use the *colexicographic* (first-index-fastest,
//! i.e. Fortran/column-major generalized) linearization, which matches the
//! usual convention in the tensor-decomposition literature (Kolda & Bader):
//! the linear index of `(i_1, ..., i_N)` in an `I_1 x ... x I_N` tensor is
//! `i_1 + i_2*I_1 + i_3*I_1*I_2 + ...`.

use std::fmt;

/// The shape of a dense `N`-way tensor: the dimension sizes `I_1, ..., I_N`.
///
/// A `Shape` is cheap to clone (one small `Vec<usize>`); all index arithmetic
/// lives here so that the rest of the crate never reimplements stride logic.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The dimension sizes, then the colexicographic strides they imply:
    /// `2N` words in one allocation, so a shape's strides are read, never
    /// rebuilt.
    words: Vec<usize>,
    /// `N`: where the dimensions end and the strides begin.
    order: usize,
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape(")?;
        for (k, d) in self.dims().iter().enumerate() {
            if k > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, d) in self.dims().iter().enumerate() {
            if k > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl Shape {
    /// Creates a shape from dimension sizes. All dimensions must be positive.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "tensor must have at least one mode");
        assert!(
            dims.iter().all(|&d| d > 0),
            "all tensor dimensions must be positive, got {dims:?}"
        );
        let order = dims.len();
        let mut words = Vec::with_capacity(2 * order);
        words.extend_from_slice(dims);
        // Saturating: no tensor of a shape whose strides overflow can exist.
        let mut acc = 1usize;
        for &d in dims {
            words.push(acc);
            acc = acc.saturating_mul(d);
        }
        Shape { words, order }
    }

    /// Number of modes `N`.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.words[..self.order]
    }

    /// Size `I_k` of mode `k` (zero-based).
    #[inline]
    pub fn dim(&self, k: usize) -> usize {
        self.dims()[k]
    }

    /// Total number of entries `I = I_1 * ... * I_N`.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.dims().iter().product()
    }

    /// Colexicographic strides: `stride[k] = I_1 * ... * I_{k-1}`.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.words[self.order..]
    }

    /// Linearizes a multi-index (colexicographic order).
    ///
    /// # Panics
    /// Panics (in debug builds) if the index is out of range or has the
    /// wrong number of coordinates.
    #[inline]
    pub fn linearize(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.order, "index arity mismatch");
        let mut lin = 0usize;
        let mut stride = 1usize;
        for (k, &i) in index.iter().enumerate() {
            debug_assert!(i < self.dim(k), "index {i} out of range in mode {k}");
            lin += i * stride;
            stride *= self.dim(k);
        }
        lin
    }

    /// Inverts [`Shape::linearize`]: writes the multi-index of `lin` into
    /// `out` without allocating.
    #[inline]
    pub fn delinearize_into(&self, mut lin: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.order);
        for (o, &d) in out.iter_mut().zip(self.dims()) {
            *o = lin % d;
            lin /= d;
        }
    }

    /// The shape of the mode-`n` matricization: `I_n x (I / I_n)` .
    pub(crate) fn matricized(&self, n: usize) -> (usize, usize) {
        let rows = self.dim(n);
        (rows, self.num_entries() / rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip_small() {
        let s = Shape::new(&[3, 4, 5]);
        let mut idx = vec![0usize; 3];
        for lin in 0..s.num_entries() {
            s.delinearize_into(lin, &mut idx);
            assert_eq!(s.linearize(&idx), lin);
        }
    }

    #[test]
    fn strides_match_linearize() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), &[1, 2, 6]);
        assert_eq!(s.linearize(&[1, 2, 3]), 1 + 2 * 2 + 3 * 6);
    }

    #[test]
    fn colexicographic_order_mode0_fastest() {
        let s = Shape::new(&[2, 2]);
        let all: Vec<Vec<usize>> = (0..s.num_entries())
            .map(|lin| {
                let mut idx = vec![0; 2];
                s.delinearize_into(lin, &mut idx);
                idx
            })
            .collect();
        assert_eq!(all, vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn indices_cover_everything_once() {
        let s = Shape::new(&[3, 2, 2]);
        let mut seen = std::collections::HashSet::new();
        let mut idx = vec![0; 3];
        for lin in 0..s.num_entries() {
            s.delinearize_into(lin, &mut idx);
            assert!(seen.insert(idx.clone()), "{idx:?} twice");
        }
        assert_eq!(seen.len(), 3 * 2 * 2);
    }

    #[test]
    fn delinearize_into_matches() {
        let s = Shape::new(&[4, 3, 2, 5]);
        let mut buf = vec![0usize; 4];
        for lin in (0..s.num_entries()).step_by(7) {
            s.delinearize_into(lin, &mut buf);
            assert!(buf.iter().zip(s.dims()).all(|(&i, &d)| i < d));
            assert_eq!(s.linearize(&buf), lin);
        }
    }

    #[test]
    fn matricized_dims() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.matricized(0), (3, 20));
        assert_eq!(s.matricized(1), (4, 15));
        assert_eq!(s.matricized(2), (5, 12));
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = Shape::new(&[3, 0, 5]);
    }

    #[test]
    #[should_panic]
    fn empty_shape_rejected() {
        let _ = Shape::new(&[]);
    }

    #[test]
    fn order_one_shape_works() {
        let s = Shape::new(&[6]);
        assert_eq!(s.order(), 1);
        assert_eq!(s.linearize(&[4]), 4);
    }
}
