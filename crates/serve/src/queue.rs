//! The work queue: accepts requests on a channel and hands them to the
//! server's workers in arrival order, one request per unit of work.

use crate::request::{FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mttkrp_als::{AlsSweep, CancelFlag};
use mttkrp_exec::MachineSpec;
use std::time::Instant;

/// Where a response goes: a continuation the worker runs with it — a
/// channel send for in-process callers, a socket write for the front door.
pub(crate) struct Reply<T>(Box<dyn FnOnce(T) + Send>);

impl<T: Send + 'static> Reply<T> {
    pub(crate) fn new(f: impl FnOnce(T) + Send + 'static) -> Reply<T> {
        Reply(Box::new(f))
    }

    /// A continuation that sends into a channel, and the handle it feeds: one
    /// slot, which never blocks the worker and wakes only a waiting caller.
    pub(crate) fn channel() -> (Reply<T>, ResponseHandle<T>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        // The submitter may have dropped its handle; that only means
        // nobody is listening, not that the work was wasted.
        let reply = Reply::new(move |response| {
            let _ = tx.send(response);
        });
        (reply, ResponseHandle { rx })
    }

    pub(crate) fn send(self, response: T) {
        (self.0)(response)
    }
}

impl<T> std::fmt::Debug for Reply<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply")
    }
}

/// A boxed per-sweep callback, invoked on the worker thread.
pub type SweepCallback = Box<dyn FnMut(&AlsSweep) + Send>;

/// Streaming hooks riding a queued factorization: an optional per-sweep
/// callback (invoked on the worker thread as each
/// [`AlsSweep`] completes) and a [`CancelFlag`]
/// the submitter keeps a clone of. This is how `mttkrp-serve`'s network
/// front door streams fit deltas to a socket client and frees the worker
/// when the client cancels or vanishes — entirely without the worker pool
/// knowing about sockets.
#[derive(Default)]
pub struct FactorizeHooks {
    /// Called after every completed sweep, final sweep included.
    pub on_sweep: Option<SweepCallback>,
    /// Fired to stop the run at the next sweep boundary.
    pub cancel: CancelFlag,
}

impl std::fmt::Debug for FactorizeHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorizeHooks")
            .field("on_sweep", &self.on_sweep.as_ref().map(|_| "FnMut"))
            .field("cancelled", &self.cancel.is_cancelled())
            .finish()
    }
}

/// An MTTKRP request in flight: the request itself, where its reply goes,
/// and when it was submitted (for queue-latency accounting).
#[derive(Debug)]
pub struct Pending {
    /// The request as submitted.
    pub request: MttkrpRequest,
    /// The machine it resolved to (request override or server default).
    pub machine: MachineSpec,
    pub(crate) reply: Reply<MttkrpResponse>,
    pub(crate) submitted: Instant,
}

/// A whole-factorization request in flight.
#[derive(Debug)]
pub struct PendingFactorize {
    /// The request as submitted; its [`AlsConfig`](mttkrp_als::AlsConfig)
    /// names the machine and backend the factorization runs on.
    pub request: FactorizeRequest,
    /// Streaming hooks (no-ops for plain `submit_factorize` calls).
    pub hooks: FactorizeHooks,
    pub(crate) reply: Reply<FactorizeResponse>,
    pub(crate) submitted: Instant,
}

/// One unit of work the queue hands to the serving engine: one MTTKRP
/// request, or one whole CP-ALS factorization.
#[derive(Debug)]
pub enum Work {
    /// A single MTTKRP request.
    Mttkrp(Pending),
    /// A whole CP-ALS factorization.
    Factorize(PendingFactorize),
}

/// The submission side of a [`BatchQueue`]: cheap to clone, safe to use
/// from many threads.
#[derive(Clone)]
pub struct Submitter {
    tx: Sender<Work>,
    default_machine: MachineSpec,
}

impl Submitter {
    /// Submits an MTTKRP request and returns a handle on which its
    /// response will arrive. Returns `None` if the queue has already been
    /// torn down.
    pub fn submit(&self, request: MttkrpRequest) -> Option<ResponseHandle> {
        let (reply, handle) = Reply::channel();
        self.submit_with(request, reply).then_some(handle)
    }

    /// [`Submitter::submit`] with the reply as a continuation the worker
    /// runs. `false` if the queue is torn down.
    pub(crate) fn submit_with(&self, request: MttkrpRequest, reply: Reply<MttkrpResponse>) -> bool {
        let machine = request
            .machine
            .clone()
            .unwrap_or_else(|| self.default_machine.clone());
        let pending = Pending {
            request,
            machine,
            reply,
            submitted: Instant::now(),
        };
        self.tx.send(Work::Mttkrp(pending)).is_ok()
    }

    /// Submits a whole-factorization request; the [`FactorizeResponse`]
    /// arrives on the returned handle. Returns `None` if the queue has
    /// already been torn down.
    pub fn submit_factorize(
        &self,
        request: FactorizeRequest,
    ) -> Option<ResponseHandle<FactorizeResponse>> {
        let (reply, handle) = Reply::channel();
        self.submit_factorize_with(request, FactorizeHooks::default(), reply)
            .then_some(handle)
    }

    /// [`Submitter::submit_factorize`] with streaming hooks and the reply as
    /// a continuation the worker runs. `false` if the queue is torn down.
    pub(crate) fn submit_factorize_with(
        &self,
        request: FactorizeRequest,
        hooks: FactorizeHooks,
        reply: Reply<FactorizeResponse>,
    ) -> bool {
        let pending = PendingFactorize {
            request,
            hooks,
            reply,
            submitted: Instant::now(),
        };
        self.tx.send(Work::Factorize(pending)).is_ok()
    }
}

/// Where a submitted request's response arrives ([`MttkrpResponse`] by
/// default; [`FactorizeResponse`] for factorization requests).
#[derive(Debug)]
pub struct ResponseHandle<T = MttkrpResponse> {
    rx: std::sync::mpsc::Receiver<T>,
}

impl<T> ResponseHandle<T> {
    /// Blocks until the response arrives.
    ///
    /// # Panics
    /// Panics if the serving side was torn down without answering — which
    /// graceful shutdown never does; every accepted request is answered.
    pub fn wait(self) -> T {
        self.rx
            .recv()
            .expect("serving side dropped an accepted request without answering")
    }
}

/// The server's work queue: first in, first out, one [`Work`] unit per
/// request. A worker keeps each plan key's plan and executor itself, so
/// grouping same-shape requests into one unit would share nothing more.
/// [`crate::Server`]'s workers share one queue and each pulls its own work.
pub struct BatchQueue {
    rx: Receiver<Work>,
}

impl BatchQueue {
    /// A queue whose MTTKRP requests default to `default_machine`.
    pub fn new(default_machine: MachineSpec) -> (Submitter, BatchQueue) {
        let (tx, rx) = unbounded();
        let submitter = Submitter {
            tx,
            default_machine,
        };
        (submitter, BatchQueue { rx })
    }

    /// The next unit of work, in submission order. Safe from many threads:
    /// each unit is handed out once. `None` when every [`Submitter`] is gone
    /// and the queue is drained — shutdown.
    pub fn next(&self) -> Option<Work> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_als::AlsConfig;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};
    use std::sync::Arc;

    fn request(dims: &[usize], r: usize, mode: usize, seed: u64) -> MttkrpRequest {
        let x = Arc::new(DenseTensor::random(Shape::new(dims), seed));
        let factors: Vec<Matrix> = (0..dims.len())
            .map(|k| Matrix::random(dims[k], r, seed + k as u64))
            .collect();
        MttkrpRequest::new(x, Arc::new(factors), mode)
    }

    fn pending(work: Option<Work>) -> Pending {
        match work {
            Some(Work::Mttkrp(p)) => p,
            other => panic!("expected an MTTKRP, got {other:?}"),
        }
    }

    /// The rank and mode of the next unit, which must be an MTTKRP.
    fn key(work: Option<Work>) -> (usize, usize) {
        let r = pending(work).request;
        (r.factors[0].cols(), r.mode)
    }

    #[test]
    fn units_leave_in_arrival_order() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256));
        // Same-key requests apart and together, other keys between them.
        let keys = [(4, 0), (3, 1), (4, 0), (4, 0), (3, 0), (4, 1)];
        for (seed, &(r, mode)) in keys.iter().enumerate() {
            s.submit(request(&[4, 4, 4], r, mode, seed as u64)).unwrap();
        }
        for want in keys {
            assert_eq!(key(q.next()), want);
        }
    }

    #[test]
    fn factorizations_pass_through_in_arrival_order() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256));
        let x = Arc::new(DenseTensor::random(Shape::new(&[4, 4, 4]), 5));
        s.submit(request(&[4, 4, 4], 2, 0, 1)).unwrap();
        s.submit_factorize(FactorizeRequest::new(x, AlsConfig::new(2)))
            .unwrap();
        s.submit(request(&[4, 4, 4], 2, 1, 2)).unwrap();
        assert_eq!(key(q.next()), (2, 0));
        assert!(matches!(q.next(), Some(Work::Factorize(_))));
        assert_eq!(key(q.next()), (2, 1));
    }

    #[test]
    fn disconnect_yields_none_after_drain() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256));
        s.submit(request(&[4, 4], 2, 0, 1)).unwrap();
        s.submit(request(&[4, 4], 2, 1, 2)).unwrap();
        drop(s);
        assert_eq!(key(q.next()), (2, 0));
        assert_eq!(key(q.next()), (2, 1));
        assert!(q.next().is_none());
    }

    #[test]
    fn machine_override_reaches_the_worker() {
        let wide = MachineSpec::sequential(1024);
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256));
        s.submit(request(&[4, 4, 4], 2, 0, 1)).unwrap();
        s.submit(request(&[4, 4, 4], 2, 0, 2).with_machine(wide.clone()))
            .unwrap();
        assert_eq!(pending(q.next()).machine, MachineSpec::sequential(256));
        assert_eq!(pending(q.next()).machine, wide);
    }

    #[test]
    fn concurrent_callers_receive_every_unit_exactly_once() {
        // A request is known by its tensor's address; `sent` keeps every
        // tensor alive, so no two requests can share one.
        fn id(x: &Arc<DenseTensor>) -> usize {
            Arc::as_ptr(x) as usize
        }
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256));
        let mut sent = Vec::new();
        let mut got: Vec<usize> = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        while let Some(work) = q.next() {
                            seen.push(id(&pending(Some(work)).request.tensor));
                        }
                        seen
                    })
                })
                .collect();
            for i in 0..200u64 {
                let r = request(&[3, 3], 1 + (i % 3) as usize, (i % 2) as usize, i);
                sent.push(Arc::clone(&r.tensor));
                s.submit(r).unwrap();
            }
            drop(s);
            consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer panicked"))
                .collect()
        });
        let mut want: Vec<usize> = sent.iter().map(id).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "every request handed out exactly once");
    }
}
