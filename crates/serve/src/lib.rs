//! # mttkrp-serve
//!
//! A plan-cached serving front-end over
//! [`mttkrp_exec`]: the workspace's answer to "call the planner as a
//! long-lived service, not a CLI one-shot".
//!
//! Three ideas, three types:
//!
//! 1. **[`PlanCache`]** (re-exported from `mttkrp_exec`) — planning is pure
//!    model evaluation, but the `grid_opt` candidate sweeps are not free,
//!    and serving traffic repeats the same handful of shapes. The cache
//!    keys plans on `(problem shape, mode, machine)` with LRU eviction and
//!    hit/miss counters; repeated shapes skip the sweep entirely.
//! 2. **[`BatchQueue`]** — requests arrive on a channel and leave it first
//!    in, first out, one request per unit of work.
//! 3. **[`Server`]** — the engine: a pool of workers that each take their
//!    next request off the queue, run it on the plan and
//!    [`mttkrp_exec::Executor`] the worker keeps for its plan key, and
//!    answer it; per-request timing, a [`Server::stats`] snapshot, and
//!    graceful shutdown that drains and answers every accepted request. A
//!    worker asks the shared cache for a key's plan only the first time it
//!    sees the key, so planning and backend setup are paid once per key,
//!    not once per request.
//!
//! The server speaks two request types: single MTTKRPs
//! ([`MttkrpRequest`]) and whole CP-ALS factorizations
//! ([`FactorizeRequest`], executed by the `mttkrp-als` engine on the same
//! worker pool). Both resolve plans through the one shared [`PlanCache`],
//! so a repeated shape is planned exactly once no matter which request
//! type carries it.
//!
//! Serving never changes results: a served response's output is
//! bit-identical to a direct [`mttkrp_exec::plan_and_execute`] call with
//! the same operands and machine, and a served factorization is
//! bit-identical to [`mttkrp_als::cp_als_with_cache`] (enforced by the
//! crate's tests).
//!
//! ## Quickstart
//!
//! ```
//! use mttkrp_exec::MachineSpec;
//! use mttkrp_serve::{MttkrpRequest, Server, ServerConfig};
//! use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
//! use std::sync::Arc;
//!
//! let server = Server::start(ServerConfig {
//!     machine: MachineSpec::shared(2, 1 << 12),
//!     workers: 2,
//!     ..ServerConfig::default()
//! });
//!
//! let x = Arc::new(DenseTensor::random(Shape::new(&[8, 8, 8]), 1));
//! let factors = Arc::new((0..3).map(|k| Matrix::random(8, 4, k)).collect::<Vec<_>>());
//! let response = server.call(MttkrpRequest::new(x.clone(), factors.clone(), 0));
//!
//! let refs: Vec<&Matrix> = factors.iter().collect();
//! let oracle = mttkrp_reference(&x, &refs, 0);
//! assert!(response.report.output.max_abs_diff(&oracle) < 1e-12);
//!
//! let stats = server.shutdown(); // drains, answers, joins
//! assert_eq!(stats.requests_served, 1);
//! ```

#![deny(missing_docs)]

mod ledger;
pub mod net;
pub mod queue;
pub mod request;
pub mod server;

pub use mttkrp_exec::{CacheStats, PlanCache, PlanKey, ProblemKey};
pub use net::{Client, ClientError, NetConfig, NetServer, StreamControl};
pub use queue::{
    BatchQueue, FactorizeHooks, Pending, PendingFactorize, ResponseHandle, Submitter, Work,
};
pub use request::{
    FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse, RequestTiming,
};
pub use server::{Server, ServerConfig, ServerStats};
