//! # mttkrp-als
//!
//! A CP-ALS factorization engine on top of the `mttkrp-exec` seam — the
//! first consumer of the whole stack that uses MTTKRP *for its purpose*.
//!
//! MTTKRP is the bottleneck kernel of CP-ALS: that is why the paper
//! derives its communication lower bounds per ALS iteration (`N` MTTKRPs
//! per sweep, Section II-A), and why it closes (Section VII) by noting that
//! optimizing over those `N` MTTKRPs together "can save both communication
//! and computation". This crate closes the loop. [`cp_als`] plans the
//! *sweep* once ([`Planner::plan_sweep`](mttkrp_exec::Planner::plan_sweep)):
//! on a one-rank machine, mode ranges whose partial contraction is no
//! larger than the tensor share it, formed by one MTTKRP of a reshaped
//! zero-copy view of the tensor and contracted down to each mode — two
//! tensor passes per sweep at `N = 4` instead of four; on a cluster every
//! mode runs its own distributed plan. Every sweep then, for each mode `n`
//! in order,
//!
//! 1. obtains the mode-`n` MTTKRP — from its own tensor pass through any
//!    [`Backend`](mttkrp_exec::Backend) (one [`AlsConfig`] flag switches
//!    native ↔ simulator ↔ dist, over the channels or TCP the
//!    [`MachineSpec`](mttkrp_exec::MachineSpec) names), or by contracting a
//!    shared partial with the factors updated so far: exact Gauss-Seidel
//!    ALS either way, equal up to rounding;
//! 2. forms the Gram-Hadamard normal equations
//!    `V = ⊛_{m≠n} A⁽ᵐ⁾ᵀA⁽ᵐ⁾` and solves `A⁽ⁿ⁾ V = B⁽ⁿ⁾` with
//!    [`mttkrp_tensor::solve_spd_ridge`] (rank-deficient sweeps degrade
//!    gracefully instead of erroring);
//! 3. column-normalizes into the
//!    [`KruskalTensor`](mttkrp_tensor::KruskalTensor) weights and reads
//!    the fit off the just-computed MTTKRP via
//!    `‖X‖² + ‖M‖² − 2⟨X,M⟩` — no extra pass over the tensor.
//!
//! A plan is a value the run holds: each mode's plan is made once, before
//! the first sweep, and the sweep plan is built from those plans, so
//! nothing in the sweep loop plans — `N` candidate sweeps however many ALS
//! sweeps run, which the CLI's `cp-als --gate` asserts alongside the tensor
//! passes per sweep.
//!
//! ## Quickstart
//!
//! ```
//! use mttkrp_als::{cp_als, AlsConfig, BackendChoice};
//! use mttkrp_exec::MachineSpec;
//! use mttkrp_tensor::{KruskalTensor, Shape};
//!
//! // A synthetic rank-2 tensor, recovered at rank 2.
//! let x = KruskalTensor::random(&Shape::new(&[6, 5, 4]), 2, 42).full();
//! let config = AlsConfig::new(2)
//!     .with_machine(MachineSpec::shared(2, 1 << 12))
//!     .with_backend(BackendChoice::Native)
//!     .with_sweeps(80)
//!     .with_seed(7);
//! let run = cp_als(&x, &config);
//! assert!(run.fit() > 0.999, "fit = {}", run.fit());
//! assert_eq!(run.cache_misses(), 3); // one planner sweep per mode, ever
//! assert_eq!(run.sweep_plan.tensor_passes(), 2); // modes 0 and 1 share one
//! println!("{}", run.explain());
//! ```

#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod config;
mod engine;
mod report;

pub use config::{AlsConfig, BackendChoice};
pub use engine::{
    clear_dist_executor, cp_als, cp_als_streaming, cp_als_with_hooks, install_dist_executor,
    validate_input, CancelFlag,
};
pub use report::{AlsRun, AlsSweep};
