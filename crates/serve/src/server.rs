//! The serving engine: MTTKRPs run on the thread that holds them, under a
//! counted permit, on one server-wide map of plan keys that is also the
//! server's only store of plans; a worker pool drains one shared work queue
//! of the front door's MTTKRPs and of factorizations; and a stats ledger.

use crate::ledger::{Counter, KeyLedger, Labels, Ledger};
use crate::queue::{
    BatchQueue, FactorizeHooks, PendingFactorize, Reply, ResponseHandle, Submitter, Work,
};
use crate::request::{
    FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse, RequestTiming,
};
use crate::{lock, with_refs};
use mttkrp_exec::{Executor, MachineSpec, Plan, Planner};
use mttkrp_obs::{HistogramSnapshot, MetricsRegistry};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Server`] is sized.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Default machine requests are planned for (a request can override it).
    pub machine: MachineSpec,
    /// How many MTTKRPs run at once, whichever threads run them (an
    /// in-process caller or a pool worker), and how many pool threads run
    /// the network front door's MTTKRPs and whole factorizations. An
    /// in-process MTTKRP runs on its caller's thread; a factorization
    /// holds a pool thread but no MTTKRP permit.
    pub workers: usize,
    /// Most plan keys the key map holds; a new key clears a full map.
    pub cache_capacity: usize,
    /// Ignored: every request is its own unit of work, so no batch is
    /// formed. It stays while the benchmark's `serve-burst` workload still
    /// sets it.
    pub max_batch: usize,
    /// Backend override applied to factorizations that arrive over the
    /// network front door (which cannot name a backend on the wire —
    /// where a run executes is server policy). `Auto` (the default)
    /// leaves each request's own choice untouched, so in-process callers
    /// never see this.
    pub backend: mttkrp_als::BackendChoice,
}

impl Default for ServerConfig {
    /// Detected host machine, two workers (and permits), 128 cached plans,
    /// no backend override.
    fn default() -> ServerConfig {
        ServerConfig {
            machine: MachineSpec::detect(),
            workers: 2,
            cache_capacity: 128,
            max_batch: 32,
            backend: mttkrp_als::BackendChoice::Auto,
        }
    }
}

/// Metric names the server writes. One source of truth: the bespoke
/// `Counters` struct of atomics this module used to carry is gone — every
/// number now lives in the server's [`MetricsRegistry`], and
/// [`Server::stats`] is a thin read-only view over it.
pub(crate) mod metric {
    pub(crate) const REQUESTS_SUBMITTED: &str = "serve.requests_submitted";
    pub(crate) const REQUESTS_SERVED: &str = "serve.requests_served";
    pub(crate) const FACTORIZATIONS_SUBMITTED: &str = "serve.factorizations_submitted";
    pub(crate) const FACTORIZATIONS_SERVED: &str = "serve.factorizations_served";
    pub(crate) const FACTORIZATIONS_CANCELLED: &str = "serve.factorizations_cancelled";
    pub(crate) const QUEUE_DEPTH: &str = "serve.queue_depth";
    pub(crate) const REQUEST_QUEUED_US: &str = "serve.request_queued_us";
    pub(crate) const REQUEST_EXEC_US: &str = "serve.request_exec_us";
    pub(crate) const BACKEND_RUNS_PREFIX: &str = "serve.backend_runs.";
    /// Labeled histogram family: exec latency per problem-shape family
    /// (members look like `serve.exec_us.shape{8x8x8:r4:m0}`; cardinality
    /// is bounded by `mttkrp_obs::MAX_LABELS_PER_FAMILY`).
    pub(crate) const EXEC_US_BY_SHAPE: &str = "serve.exec_us.shape";
    /// Labeled histogram family: exec latency per chosen plan algorithm.
    pub(crate) const EXEC_US_BY_ALG: &str = "serve.exec_us.alg";
    /// Labeled histogram family: queue latency per problem-shape family.
    pub(crate) const QUEUED_US_BY_SHAPE: &str = "serve.queued_us.shape";
    pub(crate) const PLAN_HITS: &str = "exec.plan_cache.hits";
    pub(crate) const PLAN_MISSES: &str = "exec.plan_cache.misses";
    pub(crate) const PLAN_EVICTIONS: &str = "exec.plan_cache.evictions";
}

/// The key map's plan accounting: one lookup per MTTKRP served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests whose key was in the map.
    pub hits: u64,
    /// Requests whose key was planned into the map.
    pub misses: u64,
    /// Keys dropped when a full map was cleared.
    pub evictions: u64,
    /// Keys in the map.
    pub len: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups, or `None` before any — so an
    /// *idle* map (`None`) is told apart from a *cold* one (`Some(0.0)`).
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.hits + self.misses;
        (lookups > 0).then(|| self.hits as f64 / lookups as f64)
    }
}

/// A point-in-time snapshot of everything a [`Server`] has done.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// MTTKRP requests accepted by [`Server::submit`].
    pub requests_submitted: u64,
    /// MTTKRP requests fully executed and answered.
    pub requests_served: u64,
    /// Factorization requests accepted by [`Server::submit_factorize`].
    pub factorizations_submitted: u64,
    /// Factorizations fully executed and answered.
    pub factorizations_served: u64,
    /// Units of MTTKRP work run: every request is its own, so this is
    /// `requests_served`.
    pub batches: u64,
    /// Size of the largest unit run so far: 1 once a request was served.
    pub largest_batch: u64,
    /// Plan-cache accounting (hits, misses, evictions, residency).
    pub cache: CacheStats,
    /// Executions per backend name (e.g. `native`, `sim`), sorted by name.
    pub backend_runs: Vec<(String, u64)>,
    /// Requests currently in flight (submitted but not yet answered).
    pub queue_depth: i64,
    /// Distribution of per-request execution latency, in microseconds.
    pub exec_us: HistogramSnapshot,
    /// MTTKRP permits, and pool threads the server runs
    /// ([`ServerConfig::workers`]).
    workers: usize,
    /// Scrapes (`STATS` frames, metrics or flight ring) answered by the
    /// network front door. Zero for an in-process server.
    pub scrapes: u64,
    /// Bytes read off sockets by the front door (whole frames).
    pub bytes_in: u64,
    /// Bytes written to sockets by the front door (whole frames).
    pub bytes_out: u64,
}

impl ServerStats {
    /// Mean requests per unit of work: 1 once a request was served (`0.0`
    /// before).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests_served as f64 / self.batches as f64
        }
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "requests submitted   {}", self.requests_submitted)?;
        writeln!(f, "requests served      {}", self.requests_served)?;
        if self.factorizations_submitted > 0 {
            writeln!(
                f,
                "factorizations       {} submitted, {} served",
                self.factorizations_submitted, self.factorizations_served
            )?;
        }
        let hit_rate = match self.cache.hit_rate() {
            Some(rate) => format!("{:.1}% hit rate", 100.0 * rate),
            None => "no lookups yet".to_string(),
        };
        writeln!(
            f,
            "plan cache           {} hits / {} misses ({hit_rate}), {} resident, {} evicted",
            self.cache.hits, self.cache.misses, self.cache.len, self.cache.evictions
        )?;
        for (backend, runs) in &self.backend_runs {
            writeln!(f, "backend {backend:<12} {runs} run(s)")?;
        }
        if !self.exec_us.is_empty() {
            writeln!(
                f,
                "exec latency         mean {:.0} us, p50 {:.0} us, p99 {:.0} us, max {} us",
                self.exec_us.mean(),
                self.exec_us.quantile(0.5),
                self.exec_us.quantile(0.99),
                self.exec_us.max
            )?;
        }
        if self.scrapes > 0 || self.bytes_in > 0 || self.bytes_out > 0 {
            writeln!(
                f,
                "net ops plane        {} scrape(s), {} B in, {} B out",
                self.scrapes, self.bytes_in, self.bytes_out
            )?;
        }
        writeln!(f, "queue depth          {}", self.queue_depth)?;
        write!(f, "workers              {}", self.workers)
    }
}

/// A long-lived MTTKRP service: submit requests, get
/// [`MttkrpResponse`]s back — and, since the `mttkrp-als` engine landed,
/// whole CP-ALS factorizations ([`Server::submit_factorize`], answered
/// with [`FactorizeResponse`]s) alongside the single MTTKRPs.
///
/// An MTTKRP runs on the thread that holds it. [`Server::call`] and
/// [`Server::submit`] take one of [`ServerConfig::workers`] permits, find
/// the request's plan key in one server-wide map of plans and
/// [`Executor`]s, run the kernel there and then, and return: no queue, no
/// reply channel, no wake-up. The key map is the server's store of plans:
/// the first thread to see a key plans it there (repeated shapes skip the
/// planner's candidate sweep), and every later request reuses the entry.
///
/// A pool of [`ServerConfig::workers`] threads drains one first-in,
/// first-out `BatchQueue` of what cannot run on its submitter's thread:
/// the network front door's MTTKRPs, whose replies the worker writes to
/// the socket (a connection that wrote its own replies would stop reading
/// while a peer stalls), and whole factorizations, which take no MTTKRP
/// permit and plan their own `N` modes once per run. A pool worker runs a
/// front-door MTTKRP through the same function as an in-process call: same
/// permits, same key map. Results are *identical* to calling
/// [`mttkrp_exec::plan_and_execute`] (or [`mttkrp_als::cp_als`]) per
/// request; serving changes where the work runs and what it costs to plan,
/// never the numbers.
///
/// Shutdown is graceful: [`Server::shutdown`] (or drop) stops accepting
/// new work, drains every queued request through the workers, answers all
/// of them, and joins the threads.
pub struct Server {
    submitter: Option<Submitter>,
    workers: Vec<JoinHandle<()>>,
    engine: Arc<Engine>,
    config: ServerConfig,
}

impl Server {
    /// Starts the worker threads and returns the running server.
    ///
    /// # Panics
    /// Panics if `workers` or `cache_capacity` is zero.
    pub fn start(config: ServerConfig) -> Server {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.cache_capacity >= 1, "need room for one plan key");
        let (submitter, queue) = BatchQueue::new(config.machine.clone());
        let queue = Arc::new(queue);
        let engine = Arc::new(Engine {
            permits: Permits::new(config.workers),
            keys: Mutex::new(HashMap::new()),
            capacity: config.cache_capacity,
            ledger: Arc::new(Ledger::new()),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || run_worker(&queue, &engine))
            })
            .collect();

        Server {
            submitter: Some(submitter),
            workers,
            engine,
            config,
        }
    }

    /// Runs a request on this thread and returns a handle that already
    /// holds its response.
    pub fn submit(&self, request: MttkrpRequest) -> ResponseHandle {
        ResponseHandle::ready(self.call(request))
    }

    /// Runs a request on this thread, under one of the server's permits,
    /// and returns its response.
    pub fn call(&self, request: MttkrpRequest) -> MttkrpResponse {
        let ledger = &self.engine.ledger;
        ledger.requests_submitted.add(1);
        ledger.queue_depth.add(1);
        let machine = request.machine.as_ref().unwrap_or(&self.config.machine);
        self.engine.mttkrp(&request, machine, None)
    }

    /// Queues a request for a pool worker, which runs it as
    /// [`Server::call`] would and hands the response to `reply` (the
    /// network front door's socket write).
    pub(crate) fn submit_with(&self, request: MttkrpRequest, reply: Reply<MttkrpResponse>) {
        self.intake(&self.engine.ledger.requests_submitted, |s| {
            s.submit_with(request, reply)
        });
    }

    /// Counts one submission of a kind, then hands it to the queue.
    fn intake(&self, submitted: &Counter, submit: impl FnOnce(&Submitter) -> bool) {
        // Count before handing off: the pipeline can serve the request
        // before this thread resumes, and a stats() snapshot must never
        // show served > submitted.
        submitted.add(1);
        self.engine.ledger.queue_depth.add(1);
        let accepted = submit(self.submitter.as_ref().expect("server already shut down"));
        assert!(
            accepted,
            "serving threads are alive while the server exists"
        );
    }

    /// Submits a whole CP-ALS factorization; its [`FactorizeResponse`]
    /// arrives on the returned handle. The run plans its own `N` modes,
    /// once, before its first sweep.
    pub fn submit_factorize(&self, request: FactorizeRequest) -> ResponseHandle<FactorizeResponse> {
        let (reply, handle) = Reply::channel();
        self.submit_factorize_with(request, FactorizeHooks::default(), reply);
        handle
    }

    /// [`Server::submit_factorize`] with streaming [`FactorizeHooks`] and
    /// the reply as a continuation the worker runs ([`crate::net`]'s path).
    pub(crate) fn submit_factorize_with(
        &self,
        request: FactorizeRequest,
        hooks: FactorizeHooks,
        reply: Reply<FactorizeResponse>,
    ) {
        self.intake(&self.engine.ledger.factorizations_submitted, |s| {
            s.submit_factorize_with(request, hooks, reply)
        });
    }

    /// Submit-and-wait convenience for factorizations.
    pub fn call_factorize(&self, request: FactorizeRequest) -> FactorizeResponse {
        self.submit_factorize(request).wait()
    }

    /// The server's metrics registry: every counter, gauge, and histogram
    /// the serving pipeline writes, by name (`serve.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.engine.ledger.registry()
    }

    /// The server's resolved metrics, for threads that outlive a borrow of
    /// the server (the net module's connections and admission permits).
    pub(crate) fn ledger(&self) -> Arc<Ledger> {
        Arc::clone(&self.engine.ledger)
    }

    /// Point-in-time snapshot of the server's accounting — a thin view
    /// over [`Server::metrics`].
    pub fn stats(&self) -> ServerStats {
        let l = &self.engine.ledger;
        let backend_runs: Vec<(String, u64)> = l
            .registry()
            .snapshot()
            .into_iter()
            .filter_map(|snap| {
                let name = snap
                    .name
                    .strip_prefix(metric::BACKEND_RUNS_PREFIX)?
                    .to_string();
                match snap.value {
                    mttkrp_obs::MetricValue::Counter(runs) => Some((name, runs)),
                    _ => None,
                }
            })
            .collect(); // snapshot() is name-sorted, so this stays sorted
        let served = l.requests_served.value();
        ServerStats {
            requests_submitted: l.requests_submitted.value(),
            requests_served: served,
            factorizations_submitted: l.factorizations_submitted.value(),
            factorizations_served: l.factorizations_served.value(),
            batches: served,
            largest_batch: served.min(1),
            cache: CacheStats {
                hits: l.plan_hits.value(),
                misses: l.plan_misses.value(),
                evictions: l.plan_evictions.value(),
                len: l.plans_resident() as usize,
            },
            backend_runs,
            queue_depth: l.queue_depth.value(),
            exec_us: l.request_exec_us.snapshot(),
            workers: self.config.workers,
            scrapes: l.net.scrapes.value(),
            bytes_in: l.net.bytes_in.value(),
            bytes_out: l.net.bytes_out.value(),
        }
    }

    /// Graceful shutdown: stop accepting requests, drain and answer
    /// everything already submitted, join all threads, and return the
    /// final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.join_threads();
        self.stats()
    }

    fn join_threads(&mut self) {
        // Dropping the submitter disconnects the request channel; the
        // workers drain what is queued, answer it, and exit.
        self.submitter.take();
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
    }
}

impl Drop for Server {
    /// Dropping a running server performs the same graceful drain as
    /// [`Server::shutdown`].
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// A counted semaphore: at most as many MTTKRPs run at once as it was made
/// with permits, whichever threads run them.
///
/// Taking a free permit is one compare-and-swap on the count, and giving
/// it back one atomic add: the mutex and condvar are touched only when a
/// thread has to wait. A waiter registers in `waiting` under the mutex
/// before its last look at the count, and a release adds to the count
/// before it looks at `waiting` (both sequentially consistent), so either
/// the waiter sees the permit or the release sees the waiter; a release
/// that sees one takes the mutex before it notifies, which it cannot get
/// while a registered waiter is between its look and its wait.
struct Permits {
    free: AtomicUsize,
    /// Threads registered to wait. A release wakes one only when this is
    /// nonzero: a condvar notify is a system call even with no one to
    /// wake, and most releases have no waiter.
    waiting: AtomicUsize,
    lock: Mutex<()>,
    freed: Condvar,
}

impl Permits {
    fn new(permits: usize) -> Permits {
        Permits {
            free: AtomicUsize::new(permits),
            waiting: AtomicUsize::new(0),
            lock: Mutex::new(()),
            freed: Condvar::new(),
        }
    }

    /// Takes a permit if one is free.
    fn try_take(&self) -> bool {
        let mut free = self.free.load(Ordering::SeqCst);
        while free > 0 {
            match self.free.compare_exchange_weak(
                free,
                free - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(now) => free = now,
            }
        }
        false
    }

    /// Blocks until a permit is free and takes it; dropping the [`Permit`]
    /// gives it back. Also returns when the wait began, if there was one:
    /// the clock is read only when no permit is free.
    fn acquire(&self) -> (Permit<'_>, Option<Instant>) {
        if self.try_take() {
            return (Permit(self), None);
        }
        let waited = Instant::now();
        let mut guard = lock(&self.lock);
        self.waiting.fetch_add(1, Ordering::SeqCst);
        while !self.try_take() {
            guard = self
                .freed
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        (Permit(self), Some(waited))
    }
}

/// One held permit of [`Permits`]; dropping it frees the permit and wakes
/// one waiter, if any.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let permits = self.0;
        permits.free.fetch_add(1, Ordering::SeqCst);
        if permits.waiting.load(Ordering::SeqCst) > 0 {
            drop(lock(&permits.lock));
            permits.freed.notify_one();
        }
    }
}

/// The fields a plan key is found by: dims, rank, output mode, machine. A
/// kept [`Key`] and a request's borrowed [`Asked`] hash and compare alike,
/// so the key map is searched without building a key.
trait KeyFields {
    fn fields(&self) -> (&[usize], usize, usize, &MachineSpec);
}

impl Hash for dyn KeyFields + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fields().hash(state);
    }
}

impl PartialEq for dyn KeyFields + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for dyn KeyFields + '_ {}

/// A plan key as the key map keeps it: dims, rank, output mode, machine.
/// The derived `Hash` and `Eq` take the fields in [`KeyFields::fields`]'s
/// order, so a key and its borrowed form hash and compare alike.
#[derive(PartialEq, Eq, Hash)]
struct Key(Box<[usize]>, usize, usize, MachineSpec);

impl KeyFields for Key {
    fn fields(&self) -> (&[usize], usize, usize, &MachineSpec) {
        (&self.0, self.1, self.2, &self.3)
    }
}

impl<'a> Borrow<dyn KeyFields + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyFields + 'a) {
        self
    }
}

/// The plan key a request asks for, borrowed from the request.
struct Asked<'r> {
    request: &'r MttkrpRequest,
    machine: &'r MachineSpec,
}

impl KeyFields for Asked<'_> {
    fn fields(&self) -> (&[usize], usize, usize, &MachineSpec) {
        let r = self.request;
        (
            r.tensor.shape().dims(),
            r.factors[0].cols(),
            r.mode,
            self.machine,
        )
    }
}

/// What the server keeps for one plan key: the plan, the executor it runs
/// on, and where the key's requests are filed. A key's plan is a pure
/// function of the key, so the entry holds for every later request of it,
/// and no other store keeps it.
struct KeyEntry {
    plan: Arc<Plan>,
    executor: Executor,
    ledger: KeyLedger,
}

/// What every thread that runs an MTTKRP shares: the permits that bound
/// how many run at once, the key map and the metrics.
struct Engine {
    permits: Permits,
    /// At most `capacity` entries: a full map is cleared and refilled.
    keys: Mutex<HashMap<Key, Arc<KeyEntry>>>,
    capacity: usize,
    ledger: Arc<Ledger>,
}

impl Engine {
    /// Runs one MTTKRP on this thread under a permit — the one execution
    /// path, for in-process callers and pool workers alike. `queued` is the
    /// time from `submitted` (a pool worker's request: when it was queued)
    /// to the permit; an in-process call, submitted as it asks, counts only
    /// a wait for a permit, and no clock is read when one is free.
    fn mttkrp(
        &self,
        request: &MttkrpRequest,
        machine: &MachineSpec,
        submitted: Option<Instant>,
    ) -> MttkrpResponse {
        let (_permit, waited) = self.permits.acquire();
        let queued = submitted.or(waited).map_or(Duration::ZERO, |t| t.elapsed());
        let (entry, cache_hit) = self.entry(request, machine);
        let ledger = &self.ledger;
        // Traced, the request is a span. Untraced, no clock is read for it:
        // its flight-ring close is the backend's own timing of the kernel.
        let mut span = mttkrp_obs::enabled().then(|| mttkrp_obs::span("request"));
        if let Some(span) = span.as_mut() {
            span.record("kind", "mttkrp");
            span.record("cache_hit", cache_hit);
            if let Some(ctx) = request.ctx {
                span.adopt(ctx);
            }
        }
        let report = with_refs(&request.factors, |refs| {
            entry
                .executor
                .execute(&entry.plan, &request.tensor, refs, request.mode)
        });
        let exec = report.elapsed;
        match span {
            Some(mut span) => {
                span.record("queued_us", queued.as_micros() as u64);
                span.record("backend", report.backend);
            }
            None => mttkrp_obs::flight_close("request", report.finished, exec),
        }
        let timing = RequestTiming { queued, exec };
        ledger.served(&ledger.requests_served, &entry.ledger.labels, timing);
        entry.ledger.backend_runs.add(1);
        MttkrpResponse {
            report,
            plan: Arc::clone(&entry.plan),
            cache_hit,
            timing,
        }
    }

    /// The request's key entry, and whether the map held it (a hit) or this
    /// call planned it (a miss): one lookup per request. The map is held
    /// while a new key is planned, so a key is planned once.
    fn entry(&self, request: &MttkrpRequest, machine: &MachineSpec) -> (Arc<KeyEntry>, bool) {
        let ledger = &self.ledger;
        let asked = Asked { request, machine };
        let mut keys = lock(&self.keys);
        if let Some(entry) = keys.get(&asked as &dyn KeyFields) {
            ledger.plan_hits.add(1);
            return (Arc::clone(entry), true);
        }
        let plan = Planner::new(machine.clone()).plan_executable(&request.problem(), request.mode);
        let plan = Arc::new(plan);
        let executor = Executor::for_plan(&plan);
        let entry = Arc::new(KeyEntry {
            ledger: KeyLedger::resolve(ledger, &plan, executor.backend_name()),
            plan,
            executor,
        });
        if keys.len() >= self.capacity {
            ledger.plan_evictions.add(keys.len() as u64);
            keys.clear();
        }
        let (dims, rank, mode, machine) = asked.fields();
        let key = Key(dims.into(), rank, mode, machine.clone());
        keys.insert(key, Arc::clone(&entry));
        ledger.plan_misses.add(1);
        (entry, false)
    }
}

/// A pool worker: takes the next unit of work off the shared queue until
/// it is torn down, and runs it — a front-door MTTKRP through
/// [`Engine::mttkrp`], whose response it hands to the request's reply, or
/// a whole factorization.
fn run_worker(queue: &BatchQueue, engine: &Engine) {
    while let Some(work) = queue.next() {
        match work {
            // A factorization plans its own modes; it takes no MTTKRP permit.
            Work::Factorize(pending) => run_factorization(pending, &engine.ledger),
            Work::Mttkrp(pending) => {
                let response =
                    engine.mttkrp(&pending.request, &pending.machine, Some(pending.submitted));
                pending.reply.send(response);
            }
        }
    }
}

/// Runs one whole CP-ALS factorization on a worker thread. Under tracing
/// the engine's `factorize` span (and everything below it) nests under the
/// `request` span opened here.
fn run_factorization(pending: PendingFactorize, ledger: &Ledger) {
    let queued = pending.submitted.elapsed();
    let mut span = mttkrp_obs::span("request");
    if span.is_active() {
        span.record("kind", "factorize");
        span.record("queued_us", queued.as_micros() as u64);
        if let Some(ctx) = pending.request.ctx {
            span.adopt(ctx);
        }
    }
    let FactorizeHooks {
        mut on_sweep,
        cancel,
    } = pending.hooks;
    let start = Instant::now();
    let run = mttkrp_als::cp_als_streaming(
        &pending.request.tensor,
        &pending.request.config,
        &mut |sweep| {
            if let Some(cb) = on_sweep.as_mut() {
                cb(sweep)
            }
        },
        &cancel,
    );
    let exec = start.elapsed();
    if span.is_active() {
        span.record("cancelled", run.cancelled);
    }
    drop(span);
    if run.cancelled {
        ledger.factorizations_cancelled.add(1);
    }
    let labels = Labels::factorization(
        ledger,
        pending.request.tensor.shape().dims(),
        pending.request.config.rank,
    );
    let timing = RequestTiming { queued, exec };
    ledger.served(&ledger.factorizations_served, &labels, timing);
    pending.reply.send(FactorizeResponse { run, timing });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_als::AlsConfig;
    use mttkrp_exec::plan_and_execute;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};
    use std::sync::mpsc;
    use std::time::Duration;

    fn request(dims: &[usize], r: usize, mode: usize, seed: u64) -> MttkrpRequest {
        let x = Arc::new(DenseTensor::random(Shape::new(dims), seed));
        let factors: Vec<Matrix> = (0..dims.len())
            .map(|k| Matrix::random(dims[k], r, seed + 100 + k as u64))
            .collect();
        MttkrpRequest::new(x, Arc::new(factors), mode)
    }

    /// The output a direct `plan_and_execute` gives for `request`.
    fn direct(machine: &MachineSpec, request: &MttkrpRequest) -> Matrix {
        let refs: Vec<&Matrix> = request.factors.iter().collect();
        plan_and_execute(machine, &request.tensor, &refs, request.mode)
            .1
            .output
    }

    #[test]
    fn a_permit_blocks_the_next_acquire_and_its_release_wakes_one_waiter() {
        const BLOCKED: Duration = Duration::from_millis(50);
        // A lost wake-up leaves a waiter asleep with the permit free: every
        // wait for a wake-up is bounded, so the test fails instead of
        // hanging, and the waiters are plain threads that nothing joins
        // before the checks pass.
        const WAKE: Duration = Duration::from_secs(10);
        let permits = Arc::new(Permits::new(1));
        let (held, waited) = permits.acquire();
        assert!(waited.is_none(), "a free permit is taken without a wait");
        let (acquired, acquisitions) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let released = Arc::new(Mutex::new(released));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (acquired, permits) = (acquired.clone(), Arc::clone(&permits));
                let released = Arc::clone(&released);
                std::thread::spawn(move || {
                    let _permit = permits.acquire();
                    acquired.send(()).expect("the test listens");
                    lock(&released).recv().expect("told to release");
                })
            })
            .collect();
        let woken = || acquisitions.recv_timeout(WAKE).is_ok();
        let none = acquisitions.recv_timeout(BLOCKED);
        assert!(none.is_err(), "the held permit blocks both waiters");
        drop(held);
        assert!(
            woken(),
            "lost wake-up: the freed permit woke no waiter in {WAKE:?}"
        );
        let none = acquisitions.recv_timeout(BLOCKED);
        assert!(none.is_err(), "one release wakes one waiter");
        release.send(()).unwrap();
        assert!(
            woken(),
            "lost wake-up: the second waiter slept through a release for {WAKE:?}"
        );
        release.send(()).unwrap();
        for waiter in waiters {
            waiter.join().expect("a waiter ran to its end");
        }
        drop(permits.acquire()); // the permit came back
    }

    /// Eight threads take and give back two permits ten thousand times
    /// each: no more than two ever hold one at once, every wait ends (a lost
    /// wake-up would leave a thread asleep with a permit free, and the
    /// timeout fires), and both permits are free at the end.
    #[test]
    fn permits_under_contention_bound_holders_and_lose_no_wakeup() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 10_000;
        const PERMITS: usize = 2;
        let permits = Arc::new(Permits::new(PERMITS));
        let holders = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let (done, finished) = mpsc::channel();
        // Not scoped: a thread left asleep must fail the test, not hang it.
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (permits, holders) = (permits.clone(), holders.clone());
                let (start, done) = (start.clone(), done.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut most = 0;
                    for round in 0..ROUNDS {
                        let (permit, _) = permits.acquire();
                        most = most.max(holders.fetch_add(1, Ordering::SeqCst) + 1);
                        if round % 4 == 0 {
                            std::thread::yield_now();
                        }
                        holders.fetch_sub(1, Ordering::SeqCst);
                        drop(permit);
                    }
                    done.send(most).expect("the test listens");
                })
            })
            .collect();
        for _ in 0..THREADS {
            let most = finished
                .recv_timeout(Duration::from_secs(60))
                .expect("every acquire returns: no wake-up is lost");
            assert!(most <= PERMITS, "{most} holders at once");
        }
        for thread in threads {
            thread.join().expect("a permit thread panicked");
        }
        assert_eq!(permits.free.load(Ordering::SeqCst), PERMITS);
        assert_eq!(permits.waiting.load(Ordering::SeqCst), 0);
        let both = (permits.acquire(), permits.acquire());
        assert!(both.0 .1.is_none() && both.1 .1.is_none(), "both are free");
    }

    #[test]
    fn hit_rate_distinguishes_idle_from_cold() {
        let idle = CacheStats::default();
        assert_eq!(idle.hit_rate(), None, "idle: no lookups yet");
        let cold = CacheStats { misses: 2, ..idle };
        assert_eq!(cold.hit_rate(), Some(0.0), "cold: all misses");
        assert_eq!(CacheStats { hits: 6, ..cold }.hit_rate(), Some(0.75));
    }

    /// With the only pool thread busy on an endless factorization, an
    /// in-process MTTKRP still completes: it ran on the caller's thread.
    #[test]
    fn a_call_runs_on_the_callers_thread_while_the_pool_is_busy() {
        let machine = MachineSpec::shared(1, 1 << 12);
        let server = Server::start(ServerConfig {
            machine: machine.clone(),
            workers: 1,
            ..ServerConfig::default()
        });
        let x = Arc::new(DenseTensor::random(Shape::new(&[5, 5, 5]), 3));
        let config = AlsConfig::new(2).with_sweeps(1_000_000).with_tol(0.0);
        let (swept, sweeps) = mpsc::channel();
        let hooks = FactorizeHooks {
            on_sweep: Some(Box::new(move |_| {
                let _ = swept.send(());
            })),
            ..FactorizeHooks::default()
        };
        let cancel = hooks.cancel.clone();
        let (reply, factorization) = Reply::channel();
        server.submit_factorize_with(FactorizeRequest::new(x, config), hooks, reply);
        sweeps.recv().expect("the factorization is running");

        let request = request(&[8, 6, 4], 4, 1, 9);
        let response = server.call(request.clone());
        assert_eq!(
            response.report.output.data(),
            direct(&machine, &request).data()
        );

        cancel.cancel();
        assert!(factorization.wait().run.cancelled, "it only ends by cancel");
        let stats = server.shutdown();
        assert_eq!(stats.requests_served, 1);
        assert_eq!(stats.factorizations_served, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    /// Three callers over twelve interleaved keys share one key map: each
    /// key is planned once in all, and every request files one lookup.
    #[test]
    fn callers_share_one_key_map() {
        const CALLERS: u64 = 3;
        const ROUNDS: u64 = 8;
        let machine = MachineSpec::shared(1, 1 << 12);
        let server = Server::start(ServerConfig {
            machine: machine.clone(),
            workers: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        });
        let shapes: [&[usize]; 4] = [&[8, 6, 4], &[6, 8, 4], &[4, 8, 6], &[8, 4, 6]];
        std::thread::scope(|scope| {
            for caller in 0..CALLERS {
                let (server, machine) = (&server, &machine);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        for mode in 0..3 {
                            for (s, dims) in shapes.iter().enumerate() {
                                let seed = 1000 * caller + 100 * round + 10 * mode as u64;
                                let request = request(dims, 4, mode, seed + s as u64);
                                let response = server.call(request.clone());
                                assert_eq!(
                                    response.report.output.data(),
                                    direct(machine, &request).data()
                                );
                            }
                        }
                    }
                });
            }
        });
        let stats = server.shutdown();
        assert_eq!(stats.requests_served, CALLERS * ROUNDS * 12);
        assert_eq!(stats.cache.misses, 12, "one planner sweep per distinct key");
        assert_eq!(stats.cache.hits + stats.cache.misses, stats.requests_served);
    }
}
