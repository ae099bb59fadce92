//! # mttkrp-serve
//!
//! A serving front-end over [`mttkrp_exec`]: the workspace's answer to
//! "call the planner as a long-lived service, not a CLI one-shot".
//!
//! Two ideas, two types:
//!
//! 1. **[`Server`]** — the engine. An MTTKRP runs on the thread that holds
//!    it: [`Server::call`] and [`Server::submit`] take one of
//!    [`ServerConfig::workers`] permits, find the request's plan and
//!    [`mttkrp_exec::Executor`] in one server-wide map of plan keys, run
//!    the kernel, and return — no queue, no reply channel, no wake-up. The
//!    map is the server's one store of plans: planning is pure model
//!    evaluation, but the `grid_opt` candidate sweeps are not free, and
//!    serving traffic repeats the same handful of shapes, so the first
//!    thread to see a key on `(problem shape, mode, machine)` plans it into
//!    the map and every later request reuses it — planning and backend
//!    setup are paid once per key, not once per request. The map counts its
//!    hits, misses and evictions ([`CacheStats`]). Per-request timing, a
//!    [`Server::stats`] snapshot, and graceful shutdown that drains and
//!    answers every accepted request.
//! 2. **The work queue** — what cannot run on its submitter's thread goes
//!    down one `std::sync::mpsc` channel, first in, first out, one request
//!    per unit, to the server's pool of workers, which share its receiver: the
//!    network front door's MTTKRPs (a connection that wrote its own replies
//!    would stop reading while a peer stalls) and whole factorizations,
//!    which hold a pool thread but no MTTKRP permit. A pool worker runs a
//!    front-door MTTKRP through the same function as an in-process call.
//!
//! The server speaks two request types: single MTTKRPs
//! ([`MttkrpRequest`]), planned through the key map, and whole CP-ALS
//! factorizations ([`FactorizeRequest`], executed by the `mttkrp-als`
//! engine on the worker pool), which plan their own `N` modes once per run.
//!
//! Serving never changes results: a served response's output is
//! bit-identical to a direct [`mttkrp_exec::plan_and_execute`] call with
//! the same operands and machine, and a served factorization is
//! bit-identical to [`mttkrp_als::cp_als`] (enforced by the crate's tests).
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
//! let stats = server.shutdown(); // drains the pool, joins
//! assert_eq!(stats.requests_served, 1);
//! ```

#![deny(missing_docs)]

use mttkrp_tensor::Matrix;
use std::cell::Cell;

mod ledger;
pub mod net;
mod queue;
mod request;
mod server;

pub use net::{Client, ClientError, NetConfig, NetServer, StreamControl};
pub use request::{
    FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse, RequestTiming,
};
pub use server::{CacheStats, Server, ServerConfig, ServerStats};

thread_local! {
    /// This thread's factor-reference buffer. It is empty between calls
    /// (the `'static` is only its element type: it never holds a reference
    /// past the call that filled it), so borrowing a request's factors as a
    /// slice of references allocates once per thread, not once per call.
    static REFS: Cell<Vec<&'static Matrix>> = const { Cell::new(Vec::new()) };
}

/// Runs `run` on references to `factors`, in this thread's [`REFS`] buffer.
pub(crate) fn with_refs<T>(factors: &[Matrix], run: impl FnOnce(&[&Matrix]) -> T) -> T {
    let mut refs = emptied(REFS.take());
    refs.extend(factors);
    let out = run(&refs);
    REFS.set(emptied(refs));
    out
}

/// `refs` emptied, as a buffer of references of another lifetime on the
/// same allocation: collecting a `Vec`'s own iterator into a `Vec` of the
/// same layout reuses its buffer.
fn emptied<'b>(mut refs: Vec<&Matrix>) -> Vec<&'b Matrix> {
    refs.clear();
    refs.into_iter()
        .map(|_| unreachable!("the buffer was emptied"))
        .collect()
}

/// Locks without propagating poisoning: one failed thread must not wedge
/// every other thread that shares the lock.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
