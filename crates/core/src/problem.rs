//! MTTKRP problem descriptors.

use mttkrp_tensor::Shape;

/// The parameters of an MTTKRP instance: tensor dimensions `I_1, ..., I_N`
/// and CP rank `R` (the mode `n` is passed separately where it matters).
///
/// The descriptor supports both *concrete* problems (small enough to
/// execute on the simulators) and *model-scale* problems (e.g. the paper's
/// Figure 4 instance `I = 2^45`, `R = 2^15`), so derived quantities are
/// provided in `u128` and `f64`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Problem {
    /// Tensor dimensions `I_1, ..., I_N`.
    pub dims: Vec<u64>,
    /// CP rank `R` (number of factor-matrix columns).
    pub rank: u64,
}

impl Problem {
    /// Creates a problem descriptor.
    ///
    /// # Panics
    /// Panics if there are fewer than two modes, any dimension is zero, or
    /// the rank is zero.
    pub fn new(dims: &[u64], rank: u64) -> Problem {
        assert!(dims.len() >= 2, "MTTKRP needs an order >= 2 tensor");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        assert!(rank > 0, "rank must be positive");
        Problem {
            dims: dims.to_vec(),
            rank,
        }
    }

    /// Cubical problem: `N` modes of size `dim` each.
    pub fn cubical(order: usize, dim: u64, rank: u64) -> Problem {
        Problem::new(&vec![dim; order], rank)
    }

    /// From a concrete tensor shape.
    pub fn from_shape(shape: &Shape, rank: usize) -> Problem {
        Problem::new(
            &shape.dims().iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            rank as u64,
        )
    }

    /// Number of modes `N`.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Number of tensor entries `I = prod I_k`.
    pub fn tensor_entries(&self) -> u128 {
        self.dims.iter().map(|&d| d as u128).product()
    }

    /// Size of the iteration space `|I| = I * R`.
    pub fn iteration_space(&self) -> u128 {
        self.tensor_entries() * self.rank as u128
    }

    /// Total factor-matrix entries `sum_k I_k * R` (including mode `n`'s
    /// output matrix, as in the paper's bounds).
    pub(crate) fn factor_entries(&self) -> u128 {
        self.dims
            .iter()
            .map(|&d| d as u128 * self.rank as u128)
            .sum()
    }

    /// The concrete [`Shape`], if all dimensions fit in `usize`.
    pub fn shape(&self) -> Shape {
        Shape::new(
            &self
                .dims
                .iter()
                .map(|&d| usize::try_from(d).expect("dimension too large for a concrete tensor"))
                .collect::<Vec<usize>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let p = Problem::new(&[4, 5, 6], 3);
        assert_eq!(p.order(), 3);
        assert_eq!(p.tensor_entries(), 120);
        assert_eq!(p.iteration_space(), 360);
        assert_eq!(p.factor_entries(), (4 + 5 + 6) * 3);
    }

    #[test]
    fn figure4_scale_fits() {
        // I = 2^45, R = 2^15: the paper's Figure 4 instance.
        let p = Problem::cubical(3, 1 << 15, 1 << 15);
        assert_eq!(p.tensor_entries(), 1u128 << 45);
        assert_eq!(p.iteration_space(), 1u128 << 60);
    }

    #[test]
    fn shape_roundtrip() {
        let p = Problem::new(&[3, 4], 2);
        assert_eq!(p.shape().dims(), &[3, 4]);
        assert_eq!(Problem::from_shape(&p.shape(), 2), p);
    }

    #[test]
    #[should_panic]
    fn order_one_rejected() {
        let _ = Problem::new(&[5], 2);
    }
}
