//! The work queue: what cannot run on its submitter's thread — the network
//! front door's MTTKRPs and whole factorizations — goes down one
//! `std::sync::mpsc` channel, and the server's pool of workers shares its
//! receiver behind a mutex, taking units in arrival order, one request per
//! unit. The server keeps each plan key's plan and executor in one map, so
//! grouping same-shape requests into one unit would share nothing more. An
//! in-process MTTKRP never enters the queue.

use crate::lock;
use crate::request::{FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse};
use mttkrp_als::{AlsSweep, CancelFlag};
use std::sync::mpsc::Receiver;
use std::sync::Mutex;
use std::time::Instant;

/// Where a response goes: a continuation the worker runs with it — a
/// channel send for in-process factorizations, a socket write for the front
/// door.
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
        (
            reply,
            ResponseHandle {
                answer: Answer::Later(rx),
            },
        )
    }

    pub(crate) fn send(self, response: T) {
        (self.0)(response)
    }
}

/// A boxed per-sweep callback, invoked on the worker thread.
type SweepCallback = Box<dyn FnMut(&AlsSweep) + Send>;

/// Streaming hooks riding a queued factorization: an optional per-sweep
/// callback (invoked on the worker thread as each
/// [`AlsSweep`] completes) and a [`CancelFlag`]
/// the submitter keeps a clone of. This is how `mttkrp-serve`'s network
/// front door streams fit deltas to a socket client and frees the worker
/// when the client cancels or vanishes — entirely without the worker pool
/// knowing about sockets.
#[derive(Default)]
pub(crate) struct FactorizeHooks {
    /// Called after every completed sweep, final sweep included.
    pub(crate) on_sweep: Option<SweepCallback>,
    /// Fired to stop the run at the next sweep boundary.
    pub(crate) cancel: CancelFlag,
}

/// An MTTKRP request in flight: the request itself, where its reply goes,
/// and when it was submitted (for queue-latency accounting).
pub(crate) struct Pending {
    /// The request as submitted.
    pub(crate) request: MttkrpRequest,
    pub(crate) reply: Reply<MttkrpResponse>,
    pub(crate) submitted: Instant,
}

/// A whole-factorization request in flight.
pub(crate) struct PendingFactorize {
    /// The request as submitted; its [`AlsConfig`](mttkrp_als::AlsConfig)
    /// names the machine and backend the factorization runs on.
    pub(crate) request: FactorizeRequest,
    /// Streaming hooks (no-ops for plain `submit_factorize` calls).
    pub(crate) hooks: FactorizeHooks,
    pub(crate) reply: Reply<FactorizeResponse>,
    pub(crate) submitted: Instant,
}

/// One unit of work the queue hands to the serving engine: one MTTKRP
/// request, or one whole CP-ALS factorization.
pub(crate) enum Work {
    /// A single MTTKRP request.
    Mttkrp(Pending),
    /// A whole CP-ALS factorization.
    Factorize(PendingFactorize),
}

/// Where a submitted request's response arrives ([`MttkrpResponse`] by
/// default; [`FactorizeResponse`] for factorization requests). An
/// in-process MTTKRP's handle is answered before it is returned; a queued
/// request's is answered by the worker that runs it.
#[derive(Debug)]
pub struct ResponseHandle<T = MttkrpResponse> {
    answer: Answer<T>,
}

#[derive(Debug)]
enum Answer<T> {
    Ready(T),
    Later(Receiver<T>),
}

impl<T> ResponseHandle<T> {
    /// A handle that already holds its response.
    pub(crate) fn ready(response: T) -> ResponseHandle<T> {
        ResponseHandle {
            answer: Answer::Ready(response),
        }
    }

    /// Blocks until the response arrives.
    ///
    /// # Panics
    /// Panics if the serving side was torn down without answering — which
    /// graceful shutdown never does; every accepted request is answered.
    pub fn wait(self) -> T {
        match self.answer {
            Answer::Ready(response) => response,
            Answer::Later(rx) => rx
                .recv()
                .expect("serving side dropped an accepted request without answering"),
        }
    }
}

/// The next unit of work off the pool's shared receiver, in submission
/// order, or `None` once every sender is gone and the queue is drained.
/// The lock is held for the `recv` alone and dropped before the caller runs
/// the unit, so one worker's long factorization never holds up the others.
pub(crate) fn next(queue: &Mutex<Receiver<Work>>) -> Option<Work> {
    lock(queue).recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::request;
    use crate::{Server, ServerConfig};
    use mttkrp_als::AlsConfig;
    use mttkrp_exec::MachineSpec;
    use mttkrp_tensor::{DenseTensor, Shape};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Arc;
    use std::time::Duration;

    /// A queue as the server builds one: a sender, and the receiver its
    /// workers share.
    fn queue() -> (Sender<Work>, Mutex<Receiver<Work>>) {
        let (tx, rx) = channel();
        (tx, Mutex::new(rx))
    }

    /// Queues `request` with a reply nobody waits on.
    fn submit(tx: &Sender<Work>, request: MttkrpRequest) {
        let pending = Pending {
            request,
            reply: Reply::channel().0,
            submitted: Instant::now(),
        };
        tx.send(Work::Mttkrp(pending)).expect("the queue is open");
    }

    fn pending(work: Option<Work>) -> Pending {
        match work {
            Some(Work::Mttkrp(p)) => p,
            _ => panic!("expected an MTTKRP"),
        }
    }

    /// The rank and mode of the next unit, which must be an MTTKRP.
    fn key(work: Option<Work>) -> (usize, usize) {
        let r = pending(work).request;
        (r.factors[0].cols(), r.mode)
    }

    #[test]
    fn units_leave_in_arrival_order() {
        let (s, q) = queue();
        // Same-key requests apart and together, other keys between them.
        let keys = [(4, 0), (3, 1), (4, 0), (4, 0), (3, 0), (4, 1)];
        for (seed, &(r, mode)) in keys.iter().enumerate() {
            submit(&s, request(&[4, 4, 4], r, mode, seed as u64));
        }
        for want in keys {
            assert_eq!(key(next(&q)), want);
        }
    }

    #[test]
    fn factorizations_pass_through_in_arrival_order() {
        let (s, q) = queue();
        let x = Arc::new(DenseTensor::random(Shape::new(&[4, 4, 4]), 5));
        submit(&s, request(&[4, 4, 4], 2, 0, 1));
        let unit = PendingFactorize {
            request: FactorizeRequest::new(x, AlsConfig::new(2)),
            hooks: FactorizeHooks::default(),
            reply: Reply::channel().0,
            submitted: Instant::now(),
        };
        s.send(Work::Factorize(unit)).expect("the queue is open");
        submit(&s, request(&[4, 4, 4], 2, 1, 2));
        assert_eq!(key(next(&q)), (2, 0));
        assert!(matches!(next(&q), Some(Work::Factorize(_))));
        assert_eq!(key(next(&q)), (2, 1));
    }

    #[test]
    fn disconnect_yields_none_after_drain() {
        let (s, q) = queue();
        submit(&s, request(&[4, 4], 2, 0, 1));
        submit(&s, request(&[4, 4], 2, 1, 2));
        drop(s);
        assert_eq!(key(next(&q)), (2, 0));
        assert_eq!(key(next(&q)), (2, 1));
        assert!(next(&q).is_none());
    }

    /// A queued request is planned for its own machine if it names one,
    /// else for the server's.
    #[test]
    fn machine_override_reaches_the_worker() {
        let narrow = MachineSpec::shared(1, 256);
        let wide = MachineSpec::shared(1, 1024);
        let server = Server::start(ServerConfig {
            machine: narrow.clone(),
            workers: 1,
            ..ServerConfig::default()
        });
        let planned_for = |request| {
            let (reply, handle) = Reply::channel();
            server.submit_with(request, reply);
            handle.wait().plan.machine.clone()
        };
        assert_eq!(planned_for(request(&[4, 4, 4], 2, 0, 1)), narrow);
        let asks_wide = request(&[4, 4, 4], 2, 0, 2).with_machine(wide.clone());
        assert_eq!(planned_for(asks_wide), wide);
    }

    /// Four workers share the receiver: every unit is handed out exactly
    /// once, and once the queue has drained, dropping the last sender ends
    /// every parked worker's wait. The workers are plain threads and each
    /// wait is bounded, so a worker left asleep fails the test, not hangs it.
    #[test]
    fn concurrent_callers_receive_every_unit_exactly_once() {
        const WAKE: Duration = Duration::from_secs(60);
        // A request is known by its tensor's address; `sent` keeps every
        // tensor alive, so no two requests can share one.
        fn id(x: &Arc<DenseTensor>) -> usize {
            Arc::as_ptr(x) as usize
        }
        let (s, q) = queue();
        let q = Arc::new(q);
        let (done, finished) = channel();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (q, done) = (Arc::clone(&q), done.clone());
                std::thread::spawn(move || {
                    while let Some(work) = next(&q) {
                        let unit = id(&pending(Some(work)).request.tensor);
                        done.send(Some(unit)).expect("the test listens");
                    }
                    done.send(None).expect("the test listens");
                })
            })
            .collect();
        let mut sent = Vec::new();
        for i in 0..200u64 {
            let r = request(&[3, 3], 1 + (i % 3) as usize, (i % 2) as usize, i);
            sent.push(Arc::clone(&r.tensor));
            submit(&s, r);
        }
        let mut got: Vec<usize> = (0..sent.len())
            .map(|_| finished.recv_timeout(WAKE).ok().flatten().expect("a unit"))
            .collect();
        drop(s); // the last sender, with every worker parked on an empty queue
        for _ in &workers {
            let exited = finished.recv_timeout(WAKE);
            assert_eq!(exited, Ok(None), "a parked worker never woke");
        }
        for worker in workers {
            worker.join().expect("a worker ran to its end");
        }
        let mut want: Vec<usize> = sent.iter().map(id).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "every request handed out exactly once");
    }
}
