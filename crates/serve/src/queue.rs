//! The batching queue: accepts requests on a channel and coalesces
//! same-shape MTTKRP requests into batches, passing whole-factorization
//! requests through as their own units of work.

use crate::request::{FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mttkrp_als::{AlsSweep, CancelFlag};
use mttkrp_exec::{MachineSpec, ProblemKey};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Locks without propagating poisoning: one failed thread must not wedge
/// every other worker or connection.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

/// What makes two MTTKRP requests batchable: the same planning problem
/// (shape, rank, mode) on the same machine. One batch shares one plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Shape-level identity of the requests (dims, rank, mode).
    pub problem: ProblemKey,
    /// The machine the batch will be planned for.
    pub machine: MachineSpec,
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

/// A group of same-shape MTTKRP requests that will execute under one
/// shared plan.
#[derive(Debug)]
pub struct Batch {
    /// The shape/machine identity every member shares.
    pub key: BatchKey,
    /// The coalesced requests, in arrival order.
    pub requests: Vec<Pending>,
}

impl Batch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never true for batches the queue emits).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// One unit of work the queue hands to the serving engine: either a
/// coalesced same-shape MTTKRP batch, or one whole CP-ALS factorization
/// (factorizations are never coalesced — each is already `N` MTTKRPs per
/// sweep and amortizes planning through the server's shared
/// [`PlanCache`](mttkrp_exec::PlanCache)).
#[derive(Debug)]
pub enum Work {
    /// Same-shape MTTKRP requests sharing one plan.
    Batch(Batch),
    /// A whole CP-ALS factorization.
    Factorize(PendingFactorize),
}

/// What the queue hands a submitter internally: either request kind.
#[derive(Debug)]
enum Item {
    Mttkrp(Pending),
    Factorize(PendingFactorize),
}

/// The submission side of a [`BatchQueue`]: cheap to clone, safe to use
/// from many threads.
#[derive(Clone)]
pub struct Submitter {
    tx: Sender<Item>,
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
        self.tx.send(Item::Mttkrp(pending)).is_ok()
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
        self.tx.send(Item::Factorize(pending)).is_ok()
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

/// Coalesces requests arriving on a channel into units of [`Work`]:
/// same-shape MTTKRP [`Batch`]es, and pass-through factorizations.
///
/// The queue is the server's batching policy in isolation — no threads, no
/// executors — which is what makes it unit-testable: push requests through
/// a [`Submitter`], pull [`Work`] out, and inspect the grouping.
/// [`crate::Server`]'s workers share one and each pulls its own work.
///
/// Batching is *opportunistic and lazy*: [`BatchQueue::next`] hands out the
/// units of the last drain one per call, and only once they are all taken
/// does it touch the channel again — blocking for the first request,
/// draining whatever else is already queued, grouping MTTKRPs by
/// [`BatchKey`] preserving arrival order, and splitting groups larger than
/// `max_batch`. Under light load batches have size 1 (no added latency);
/// under bursts the requests that arrive while the workers are busy
/// coalesce, and same-shape requests share one plan lookup and one
/// executor.
///
/// ```
/// use mttkrp_exec::MachineSpec;
/// use mttkrp_serve::{BatchQueue, MttkrpRequest, Work};
/// use mttkrp_tensor::{DenseTensor, Matrix, Shape};
/// use std::sync::Arc;
///
/// let machine = MachineSpec::sequential(256);
/// let (submitter, queue) = BatchQueue::new(machine, 32);
///
/// // Two 4x4x4 requests (same shape) and one 4x6 request.
/// let cube = Arc::new(DenseTensor::random(Shape::new(&[4, 4, 4]), 1));
/// let cube_f = Arc::new((0..3).map(|k| Matrix::random(4, 2, k)).collect::<Vec<_>>());
/// let flat = Arc::new(DenseTensor::random(Shape::new(&[4, 6]), 2));
/// let flat_f = Arc::new(vec![Matrix::random(4, 2, 7), Matrix::random(6, 2, 8)]);
///
/// submitter.submit(MttkrpRequest::new(cube.clone(), cube_f.clone(), 0));
/// submitter.submit(MttkrpRequest::new(flat, flat_f, 0));
/// submitter.submit(MttkrpRequest::new(cube, cube_f, 0));
///
/// // One drain, two units: the cube requests coalesced, the flat one alone.
/// match (queue.next().unwrap(), queue.next().unwrap()) {
///     (Work::Batch(cubes), Work::Batch(flats)) => {
///         assert_eq!(cubes.len(), 2);
///         assert_eq!(flats.len(), 1);
///     }
///     other => panic!("expected two MTTKRP batches, got {other:?}"),
/// }
/// ```
pub struct BatchQueue {
    rx: Receiver<Item>,
    max_batch: usize,
    /// The units of the last drain not yet handed out, in order.
    ready: Mutex<VecDeque<Work>>,
}

impl BatchQueue {
    /// A queue whose MTTKRP requests default to `default_machine`,
    /// emitting batches of at most `max_batch` requests.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn new(default_machine: MachineSpec, max_batch: usize) -> (Submitter, BatchQueue) {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let (tx, rx) = unbounded();
        (
            Submitter {
                tx,
                default_machine,
            },
            BatchQueue {
                rx,
                max_batch,
                ready: Mutex::default(),
            },
        )
    }

    /// The next unit of work, in first-arrival order (factorizations keep
    /// their arrival position); a new drain only once the last is used up.
    /// Safe from many threads: each unit is handed out once. `None` when
    /// every [`Submitter`] is gone and the queue is drained — shutdown.
    pub fn next(&self) -> Option<Work> {
        // Held across the blocking `recv`: one caller drains while the rest
        // wait for its units, so a burst is coalesced once, not split.
        let mut ready = lock(&self.ready);
        if ready.is_empty() {
            let first = self.rx.recv().ok()?;
            let mut pending = vec![first];
            while let Ok(p) = self.rx.try_recv() {
                pending.push(p);
            }
            ready.extend(self.coalesce(pending));
        }
        ready.pop_front()
    }

    fn coalesce(&self, pending: Vec<Item>) -> Vec<Work> {
        let mut work: Vec<Work> = Vec::new();
        for item in pending {
            let p = match item {
                Item::Factorize(p) => {
                    work.push(Work::Factorize(p));
                    continue;
                }
                Item::Mttkrp(p) => p,
            };
            let key = BatchKey {
                problem: ProblemKey::new(&p.request.problem(), p.request.mode),
                machine: p.machine.clone(),
            };
            let open = work.iter_mut().find_map(|w| match w {
                Work::Batch(b) if b.key == key && b.len() < self.max_batch => Some(b),
                _ => None,
            });
            match open {
                Some(batch) => batch.requests.push(p),
                None => work.push(Work::Batch(Batch {
                    key,
                    requests: vec![p],
                })),
            }
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_als::AlsConfig;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};
    use std::sync::Arc;

    fn request(dims: &[usize], r: usize, mode: usize, seed: u64) -> MttkrpRequest {
        let shape = Shape::new(dims);
        let x = Arc::new(DenseTensor::random(shape, seed));
        let factors = Arc::new(
            dims.iter()
                .enumerate()
                .map(|(k, &d)| Matrix::random(d, r, seed + k as u64))
                .collect::<Vec<Matrix>>(),
        );
        MttkrpRequest::new(x, factors, mode)
    }

    /// One whole drain: the unit `next()` returns plus those it left behind.
    fn drain(q: &BatchQueue) -> Vec<Work> {
        let first = q.next().expect("a drain");
        std::iter::once(first)
            .chain(lock(&q.ready).drain(..))
            .collect()
    }

    fn batches(work: Vec<Work>) -> Vec<Batch> {
        work.into_iter()
            .map(|w| match w {
                Work::Batch(b) => b,
                other => panic!("expected a batch, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn coalesces_by_shape_and_mode() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 32);
        s.submit(request(&[4, 4, 4], 2, 0, 1)).unwrap();
        s.submit(request(&[4, 4, 4], 2, 1, 2)).unwrap(); // different mode
        s.submit(request(&[4, 4, 4], 2, 0, 3)).unwrap(); // coalesces with #1
        s.submit(request(&[4, 4, 4], 3, 0, 4)).unwrap(); // different rank
        let batches = batches(drain(&q));
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[0].key.problem.mode, 0);
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[2].len(), 1);
    }

    #[test]
    fn machine_override_splits_batches() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 32);
        s.submit(request(&[4, 4, 4], 2, 0, 1)).unwrap();
        s.submit(request(&[4, 4, 4], 2, 0, 2).with_machine(MachineSpec::sequential(1024)))
            .unwrap();
        let work = drain(&q);
        assert_eq!(work.len(), 2, "machine is part of the batch key");
    }

    #[test]
    fn max_batch_splits_large_groups() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 2);
        for seed in 0..5 {
            s.submit(request(&[4, 4, 4], 2, 0, seed)).unwrap();
        }
        let sizes: Vec<usize> = batches(drain(&q)).iter().map(Batch::len).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn factorizations_pass_through_in_arrival_order() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 32);
        let x = Arc::new(DenseTensor::random(Shape::new(&[4, 4, 4]), 5));
        s.submit(request(&[4, 4, 4], 2, 0, 1)).unwrap();
        s.submit_factorize(FactorizeRequest::new(x, AlsConfig::new(2)))
            .unwrap();
        s.submit(request(&[4, 4, 4], 2, 0, 2)).unwrap(); // joins batch #1
        let work = drain(&q);
        assert_eq!(work.len(), 2);
        assert!(matches!(&work[0], Work::Batch(b) if b.len() == 2));
        assert!(matches!(&work[1], Work::Factorize(_)));
    }

    #[test]
    fn disconnect_yields_none_after_drain() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 8);
        s.submit(request(&[4, 4], 2, 0, 1)).unwrap();
        drop(s);
        assert_eq!(drain(&q).len(), 1);
        assert!(q.next().is_none());
    }

    fn mode_of(work: Work) -> (usize, usize) {
        match work {
            Work::Batch(b) => (b.key.problem.mode, b.len()),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn the_queue_drains_only_when_its_last_drain_is_used_up() {
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 32);
        for mode in 0..3 {
            s.submit(request(&[4, 4, 4], 2, mode, mode as u64)).unwrap();
        }
        // One drain, three units, handed out one per call in arrival order.
        assert_eq!(mode_of(q.next().unwrap()), (0, 1));
        // Same key as the unit still waiting, but it arrived after the
        // drain: it waits for the next one instead of joining that batch.
        s.submit(request(&[4, 4, 4], 2, 2, 9)).unwrap();
        assert_eq!(mode_of(q.next().unwrap()), (1, 1));
        assert_eq!(mode_of(q.next().unwrap()), (2, 1));
        assert_eq!(mode_of(q.next().unwrap()), (2, 1));

        // Units left over from a drain outlive the submitters.
        s.submit(request(&[4, 4, 4], 2, 0, 1)).unwrap();
        s.submit(request(&[4, 4, 4], 2, 1, 2)).unwrap();
        assert_eq!(mode_of(q.next().unwrap()), (0, 1));
        drop(s);
        assert_eq!(mode_of(q.next().unwrap()), (1, 1));
        assert!(q.next().is_none());
    }

    #[test]
    fn concurrent_callers_receive_every_unit_exactly_once() {
        // A request is known by its tensor's address; `sent` keeps every
        // tensor alive, so no two requests can share one.
        fn id(x: &Arc<DenseTensor>) -> usize {
            Arc::as_ptr(x) as usize
        }
        let (s, q) = BatchQueue::new(MachineSpec::sequential(256), 4);
        let mut sent = Vec::new();
        let mut got: Vec<usize> = std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        while let Some(work) = q.next() {
                            let Work::Batch(b) = work else {
                                panic!("only MTTKRPs were submitted")
                            };
                            seen.extend(b.requests.iter().map(|p| id(&p.request.tensor)));
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
