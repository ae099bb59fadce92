//! # mttkrp-tensor
//!
//! Dense tensor algebra substrate for the reproduction of
//! *"Communication Lower Bounds for Matricized Tensor Times Khatri-Rao
//! Product"* (Ballard, Knight, Rouse; IPDPS 2018).
//!
//! This crate provides everything the MTTKRP algorithms need and nothing
//! more: dense tensors, row-major matrices, mode-`n` matricization,
//! Khatri-Rao products, small SPD solves (for CP-ALS), Kruskal (CP) tensors,
//! and a brute-force MTTKRP oracle used to validate every optimized
//! implementation in the workspace.
//!
//! ## Conventions
//! - Tensors are stored colexicographically (mode 0 fastest), the standard
//!   convention in the tensor-decomposition literature.
//! - Matrices are row-major so that a factor-matrix *row* — the unit of
//!   communication in the paper's parallel algorithms — is contiguous.
//! - All random constructors take explicit seeds; everything is
//!   deterministic.

// Index-based loops mirror the standard tensor-algebra notation (one index
// addressing several arrays at once) and stay; see the workspace style note.
#![allow(clippy::needless_range_loop)]

mod dense;
pub mod khatri_rao;
mod kruskal;
mod linalg;
pub mod matricize;
mod matrix;
mod oracle;
mod shape;

pub use dense::DenseTensor;
pub use khatri_rao::{gram_hadamard, khatri_rao, khatri_rao_colex};
pub use kruskal::KruskalTensor;
pub use linalg::{
    cholesky, solve_spd, solve_spd_ridge, solve_spd_ridge_into, solve_spd_right, LinalgError,
};
pub use matricize::{fold, matricize};
pub use matrix::Matrix;
pub use oracle::{mttkrp_reference, mttkrp_via_matmul, validate_factors, validate_operands};
pub use shape::Shape;
