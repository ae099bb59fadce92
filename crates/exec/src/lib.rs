//! # mttkrp-exec
//!
//! The execution subsystem of the MTTKRP workspace: where the paper's
//! analytic cost models stop being figure generators and start *driving
//! execution*.
//!
//! Three layers:
//!
//! 1. **[`Backend`]** — one trait, many targets. [`SimBackend`] replays a
//!    plan on the strict machine-model simulators (exact word counts, the
//!    quantity the paper's lower bounds govern); [`NativeBackend`] runs a
//!    cache-tiled, multi-threaded dense MTTKRP at hardware speed (one
//!    contiguous piece of slabs per thread, partials summed in order, no
//!    `unsafe` of its own: the run arithmetic and its one feature-guarded
//!    call live in `mttkrp_core::kernels`); the `mttkrp-dist` crate adds a
//!    `DistBackend` that runs distributed plans on a sharded multi-rank
//!    runtime for real.
//! 2. **[`Planner`]** — given a [`Problem`](mttkrp_core::Problem) and a
//!    [`MachineSpec`], evaluates Eqs. (12)/(14)/(18) and the `grid_opt`
//!    searches to choose algorithm, block size, and processor grid, and
//!    returns an explainable [`Plan`] listing every candidate it weighed.
//! 3. **[`Executor`]** — the front door:
//!    [`execute(plan, tensor, factors, mode)`](execute) runs a plan on its
//!    natural backend; [`plan_and_execute`] does both steps in one call.
//!
//! A plan is a value: a pure function of `(dims, R, mode, MachineSpec)`,
//! made once by whoever holds it — an ALS run keeps its `N` mode plans and
//! builds its [`SweepPlan`] from them, a server keeps one per plan key. A
//! [`PlanCache`] ([`Planner::plan_cached`]) keeps plans for a caller that
//! shares them across runs; a hit returns exactly what a fresh
//! [`Planner::plan`] would compute.
//!
//! ## Quickstart
//!
//! ```
//! use mttkrp_exec::{plan_and_execute, MachineSpec};
//! use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
//!
//! let shape = Shape::new(&[16, 16, 16]);
//! let x = DenseTensor::random(shape.clone(), 0);
//! let factors: Vec<Matrix> = (0..3).map(|k| Matrix::random(16, 8, k)).collect();
//! let refs: Vec<&Matrix> = factors.iter().collect();
//!
//! let machine = MachineSpec::shared(2, 1 << 16);
//! let (plan, report) = plan_and_execute(&machine, &x, &refs, 0);
//! println!("{plan}");
//! let oracle = mttkrp_reference(&x, &refs, 0);
//! assert!(report.output.max_abs_diff(&oracle) < 1e-10);
//! ```
//!
//! The planner never materializes a tensor, so it also works at model scale
//! (the paper's Figure 4 instance, `I = 2^45`): ask it for a plan and read
//! the explanation instead of executing.

#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod backend;
mod cache;
mod executor;
mod machine;
mod native;
mod plan;
mod planner;
mod sim;
mod sweep;

pub use backend::{execute_observed, Backend, ExecCost, ExecReport};
pub use cache::PlanCache;
pub use executor::{execute, plan_and_execute, Executor};
pub use machine::{MachineSpec, TransportSpec, DEFAULT_CACHE_WORDS};
pub use native::{mttkrp_native, native_tile, NativeBackend};
pub use plan::{Algorithm, Candidate, Plan};
pub use planner::Planner;
pub use sim::SimBackend;
pub use sweep::{SweepPlan, SweepStep};
