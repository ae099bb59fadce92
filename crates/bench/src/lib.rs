//! Shared helpers for the `paper` reproduction, the `mttkrp_cli` driver and
//! the CI gate binaries.

pub mod dist_tcp;
pub mod proc_backend;

use mttkrp_tensor::{DenseTensor, Matrix, Shape};

/// Builds a random tensor and one random `I_k x R` factor per mode,
/// deterministically from `seed`.
pub fn setup_problem(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed.wrapping_add(1000 + k as u64)))
        .collect();
    (x, factors)
}

/// Formats a float in engineering style (e.g. `1.34e9`) for table output.
pub fn eng(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-2 {
        format!("{v:.3e}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_shapes_are_consistent() {
        let (x, factors) = setup_problem(&[4, 5, 6], 3, 1);
        assert_eq!(x.shape().dims(), &[4, 5, 6]);
        assert_eq!(factors.len(), 3);
        for (k, f) in factors.iter().enumerate() {
            assert_eq!(f.rows(), x.shape().dim(k));
            assert_eq!(f.cols(), 3);
        }
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1234.5), "1234.5");
        assert_eq!(eng(1.23456e9), "1.235e9");
    }
}
