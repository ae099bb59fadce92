//! # mttkrp-core
//!
//! Reproduction of *"Communication Lower Bounds for Matricized Tensor Times
//! Khatri-Rao Product"* (Grey Ballard, Nicholas Knight, Kathryn Rouse;
//! IPDPS 2018): the paper's communication lower bounds, its
//! communication-optimal sequential and parallel MTTKRP algorithms, the
//! matmul-based baselines it compares against, and the analytic cost models
//! behind its Figure 4 — all executable on strict machine-model simulators
//! that count every word moved.
//!
//! ## Map from the paper
//!
//! | Paper | Here |
//! |---|---|
//! | Definition 2.1 (MTTKRP) | [`mttkrp_tensor::mttkrp_reference`] (oracle), [`kernels`] (fast) |
//! | Lemmas 4.1-4.4, Figure 1 | [`hbl`] |
//! | Theorem 4.1, Fact 4.1, Corollary 4.1 | [`bounds`] |
//! | Theorems 4.2, 4.3, Corollary 4.2 | [`bounds`] |
//! | Algorithm 1 (sequential unblocked) | [`seq::mttkrp_unblocked`] |
//! | Algorithm 2 (sequential blocked) | [`seq::mttkrp_blocked`] |
//! | Algorithm 3 (parallel stationary) | [`par::stationary_rank`], [`par::mttkrp_stationary`] |
//! | Algorithm 4 (parallel general) | [`par::general_rank`], [`par::mttkrp_general`] |
//! | Matmul baselines (Sections III-B, VI) | [`seq::mttkrp_seq_matmul`], [`par::mttkrp_par_matmul`], [`model::carma_cost`] |
//! | Eqs. (12), (14), (18) | [`model`] |
//! | Eqs. (15), (17), (19) arithmetic | [`arith`] |
//! | Grid prescriptions (Sections V-C/V-D) | [`grid_opt`], [`model::alg4_optimal_p0_real`] |
//! | CP-ALS context (Section II-A) | [`cp_als()`](cp_als::cp_als), [`par::dist_cp_als`] |
//!
//! The `paper` binary of `mttkrp-bench` reproduces Figures 1-4 and the
//! optimality tables from these modules, each section with checked claims.
//!
//! ## Quickstart
//!
//! ```
//! use mttkrp_core::{bounds, seq, Problem};
//! use mttkrp_tensor::{DenseTensor, Matrix, Shape};
//!
//! let shape = Shape::new(&[8, 8, 8]);
//! let x = DenseTensor::random(shape.clone(), 0);
//! let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(8, 4, k)).collect();
//! let refs: Vec<&Matrix> = factors.iter().collect();
//!
//! let m = 64; // fast memory words
//! let b = seq::choose_block_size(m, 3);
//! let run = seq::mttkrp_blocked(&x, &refs, 0, m, b);
//!
//! let problem = Problem::from_shape(&shape, 4);
//! let lb = bounds::seq_best(&problem, m as u64);
//! assert!(run.stats.total() as f64 >= lb);
//! ```
//!
//! ## Running at hardware speed
//!
//! The simulators above count every word — that is their job — but they run
//! far below hardware speed. The `mttkrp-exec` crate turns this crate's
//! cost models into a *runtime decision procedure*: its `Planner` evaluates
//! [`model`] (Eqs. 12/14/18) and [`grid_opt`] to pick an algorithm, block
//! size, and processor grid, and its `NativeBackend` then executes the plan
//! as a cache-tiled, rayon-parallel kernel at full speed — while its
//! `SimBackend` can replay the *same plan* on the simulators to verify that
//! the predicted word counts are exact:
//!
//! ```ignore
//! use mttkrp_exec::{plan_and_execute, MachineSpec};
//!
//! let machine = MachineSpec::detect(); // cores + cache of this host
//! let (plan, report) = plan_and_execute(&machine, &x, &refs, 0);
//! println!("{plan}");                  // explainable: every candidate + cost
//! ```
//!
//! See `mttkrp_exec`'s crate docs, the `native_vs_sim` example, and the
//! `mttkrp_cli` subcommand `exec` for the full story.

// Index-based loops are the clearest way to express the mode/rank loop
// nests of the paper's pseudocode (one index addressing several arrays);
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod arith;
pub mod bounds;
pub mod cp_als;
pub mod grid_opt;
pub mod hbl;
pub mod kernels;
pub mod model;
pub mod multi;
pub mod par;
mod problem;
pub mod seq;

pub use cp_als::{cp_als, CpAlsOptions, CpAlsRun};
pub use problem::Problem;
