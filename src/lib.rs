//! # mttkrp
//!
//! Umbrella crate for the Ballard/Knight/Rouse (IPDPS 2018) MTTKRP
//! reproduction. It re-exports the workspace crates so the repository-level
//! integration tests (`tests/`) and examples (`examples/`) have a single
//! front door, and so downstream users can depend on one crate:
//!
//! - [`tensor`] — dense tensors, matrices, the MTTKRP oracle;
//! - [`memsim`] — strict two-level memory simulator;
//! - [`netsim`] — distributed machine simulator;
//! - [`core`] — the paper's bounds, algorithms, and cost models;
//! - [`exec`] — the execution subsystem: cost-model-driven planner plus
//!   simulator and native (multi-threaded) backends;
//! - [`als`] — the CP-ALS factorization engine driving the planner and
//!   every backend (N plan-cached MTTKRPs per sweep);
//! - [`serve`] — plan-cached, request-batching serving layer over the
//!   executor (single MTTKRPs and whole factorizations);
//! - [`bench`](mod@bench) — benchmark helpers and the CLI driver.

pub use mttkrp_als as als;
pub use mttkrp_bench as bench;
pub use mttkrp_core as core;
pub use mttkrp_exec as exec;
pub use mttkrp_memsim as memsim;
pub use mttkrp_netsim as netsim;
pub use mttkrp_serve as serve;
pub use mttkrp_tensor as tensor;
