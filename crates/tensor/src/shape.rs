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

    /// Creates a cubical shape with `order` modes each of size `dim`.
    pub fn cubical(order: usize, dim: usize) -> Self {
        Shape::new(&vec![dim; order])
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

    /// Inverts [`Shape::linearize`]: recovers the multi-index of `lin`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `lin >= self.num_entries()`.
    pub fn delinearize(&self, mut lin: usize) -> Vec<usize> {
        debug_assert!(lin < self.num_entries(), "linear index out of range");
        let mut idx = Vec::with_capacity(self.order);
        for &d in self.dims() {
            idx.push(lin % d);
            lin /= d;
        }
        idx
    }

    /// Writes the multi-index of `lin` into `out` without allocating.
    #[inline]
    pub fn delinearize_into(&self, mut lin: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.order);
        for (o, &d) in out.iter_mut().zip(self.dims()) {
            *o = lin % d;
            lin /= d;
        }
    }

    /// Iterator over all multi-indices in colexicographic order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: self.clone(),
            next: Some(vec![0; self.order()]),
        }
    }

    /// The shape of the mode-`n` matricization: `I_n x (I / I_n)` .
    pub fn matricized(&self, n: usize) -> (usize, usize) {
        let rows = self.dim(n);
        (rows, self.num_entries() / rows)
    }

    /// Removes mode `n`, producing the shape of the remaining modes in order.
    pub fn without_mode(&self, n: usize) -> Shape {
        assert!(self.order() >= 2, "cannot drop a mode of an order-1 tensor");
        let dims: Vec<usize> = self
            .dims()
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != n)
            .map(|(_, &d)| d)
            .collect();
        Shape::new(&dims)
    }
}

/// Iterator over all multi-indices of a [`Shape`] in colexicographic order
/// (first index varies fastest), matching [`Shape::linearize`].
pub struct IndexIter {
    shape: Shape,
    next: Option<Vec<usize>>,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        // Advance like an odometer with mode 0 fastest.
        let mut idx = current.clone();
        let mut k = 0;
        loop {
            if k == idx.len() {
                self.next = None;
                break;
            }
            idx[k] += 1;
            if idx[k] < self.shape.dim(k) {
                self.next = Some(idx);
                break;
            }
            idx[k] = 0;
            k += 1;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip_small() {
        let s = Shape::new(&[3, 4, 5]);
        for lin in 0..s.num_entries() {
            let idx = s.delinearize(lin);
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
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(all, vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn indices_cover_everything_once() {
        let s = Shape::new(&[3, 2, 2]);
        let all: Vec<usize> = s.indices().map(|i| s.linearize(&i)).collect();
        let expect: Vec<usize> = (0..s.num_entries()).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn delinearize_into_matches() {
        let s = Shape::new(&[4, 3, 2, 5]);
        let mut buf = vec![0usize; 4];
        for lin in (0..s.num_entries()).step_by(7) {
            s.delinearize_into(lin, &mut buf);
            assert_eq!(buf, s.delinearize(lin));
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
    fn without_mode_drops_correctly() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.without_mode(1).dims(), &[3, 5]);
    }

    #[test]
    fn cubical_helper() {
        let s = Shape::cubical(3, 7);
        assert_eq!(s.dims(), &[7, 7, 7]);
        assert_eq!(s.num_entries(), 343);
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
