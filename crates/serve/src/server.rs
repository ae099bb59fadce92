//! The serving engine: a worker pool that drains one shared work queue, a
//! shared plan cache, and a stats ledger.

use crate::ledger::{Counter, KeyLedger, Labels, Ledger};
use crate::queue::{
    BatchQueue, FactorizeHooks, PendingFactorize, Reply, ResponseHandle, Submitter, Work,
};
use crate::request::{
    FactorizeRequest, FactorizeResponse, MttkrpRequest, MttkrpResponse, RequestTiming,
};
use mttkrp_exec::{
    CacheStats, Executor, MachineSpec, Plan, PlanCache, PlanKey, Planner, ProblemKey,
};
use mttkrp_obs::{HistogramSnapshot, MetricsRegistry};
use mttkrp_tensor::Matrix;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How a [`Server`] is sized.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Default machine requests are planned for (a request can override it).
    pub machine: MachineSpec,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Plan-cache capacity (plans, not bytes).
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
    /// Detected host machine, two workers, 128 cached plans, no backend
    /// override.
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
    pub const REQUESTS_SUBMITTED: &str = "serve.requests_submitted";
    pub const REQUESTS_SERVED: &str = "serve.requests_served";
    pub const FACTORIZATIONS_SUBMITTED: &str = "serve.factorizations_submitted";
    pub const FACTORIZATIONS_SERVED: &str = "serve.factorizations_served";
    pub const FACTORIZATIONS_CANCELLED: &str = "serve.factorizations_cancelled";
    pub const BATCHES: &str = "serve.batches";
    pub const LARGEST_BATCH: &str = "serve.largest_batch";
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    pub const BATCH_SIZE: &str = "serve.batch_size";
    pub const REQUEST_QUEUED_US: &str = "serve.request_queued_us";
    pub const REQUEST_EXEC_US: &str = "serve.request_exec_us";
    pub const BACKEND_RUNS_PREFIX: &str = "serve.backend_runs.";
    /// Labeled histogram family: exec latency per problem-shape family
    /// (members look like `serve.exec_us.shape{8x8x8:r4:m0}`; cardinality
    /// is bounded by `mttkrp_obs::MAX_LABELS_PER_FAMILY`).
    pub const EXEC_US_BY_SHAPE: &str = "serve.exec_us.shape";
    /// Labeled histogram family: exec latency per chosen plan algorithm.
    pub const EXEC_US_BY_ALG: &str = "serve.exec_us.alg";
    /// Labeled histogram family: queue latency per problem-shape family.
    pub const QUEUED_US_BY_SHAPE: &str = "serve.queued_us.shape";
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
    /// Units of MTTKRP work the workers have run: one per request served.
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
    /// Worker threads the server runs.
    pub workers: usize,
    /// Ops-plane scrapes (`STATS`/`HEALTH`/`TRACE_DUMP` frames) answered
    /// by the network front door. Zero for an in-process server.
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
            "plan cache           {} hits / {} misses ({hit_rate}), {}/{} resident, {} evicted",
            self.cache.hits,
            self.cache.misses,
            self.cache.len,
            self.cache.capacity,
            self.cache.evictions
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
/// Internally: a pool of worker threads shares one first-in, first-out
/// [`BatchQueue`]; each worker takes the next request and runs it on the
/// plan and [`Executor`] it keeps for the request's plan key — native
/// hardware for sequential plans, the word-exact simulator for distributed
/// ones — and hands the response to the request's reply on the spot. A
/// worker resolves a key's plan through the shared [`PlanCache`] the first
/// time it sees the key (repeated shapes skip the planner's candidate
/// sweep) and reuses it after that. Factorizations ride the same queue and
/// worker pool and resolve their `N`-per-sweep MTTKRP plans through the
/// same shared cache, so a repeated shape is planned once whether it
/// arrives as a single kernel or a whole factorization. Results are
/// *identical* to calling [`mttkrp_exec::plan_and_execute`] (or
/// [`mttkrp_als::cp_als_with_cache`]) per request; serving changes where
/// the work runs and what it costs to plan, never the numbers.
///
/// Shutdown is graceful: [`Server::shutdown`] (or drop) stops accepting
/// new work, drains every queued request through the workers, answers all
/// of them, and joins the threads.
pub struct Server {
    submitter: Option<Submitter>,
    workers: Vec<JoinHandle<()>>,
    cache: Arc<PlanCache>,
    ledger: Arc<Ledger>,
    config: ServerConfig,
}

impl Server {
    /// Starts the worker threads and returns the running server.
    ///
    /// # Panics
    /// Panics if `workers` is zero (nothing would ever execute).
    pub fn start(config: ServerConfig) -> Server {
        assert!(config.workers >= 1, "need at least one worker");
        let (submitter, queue) = BatchQueue::new(config.machine.clone());
        let queue = Arc::new(queue);
        let cache = Arc::new(PlanCache::new(config.cache_capacity));
        let ledger = Arc::new(Ledger::new());
        let workers = (0..config.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let ledger = Arc::clone(&ledger);
                let keys = config.cache_capacity;
                std::thread::spawn(move || run_worker(&queue, &cache, &ledger, keys))
            })
            .collect();

        Server {
            submitter: Some(submitter),
            workers,
            cache,
            ledger,
            config,
        }
    }

    /// Submits a request; its response arrives on the returned handle.
    pub fn submit(&self, request: MttkrpRequest) -> ResponseHandle {
        let (reply, handle) = Reply::channel();
        self.submit_with(request, reply);
        handle
    }

    /// [`Server::submit`] with the reply as a continuation the worker runs
    /// (the network front door's socket write).
    pub(crate) fn submit_with(&self, request: MttkrpRequest, reply: Reply<MttkrpResponse>) {
        self.intake(&self.ledger.requests_submitted, |s| {
            s.submit_with(request, reply)
        });
    }

    /// Counts one submission of a kind, then hands it to the queue.
    fn intake(&self, submitted: &Counter, submit: impl FnOnce(&Submitter) -> bool) {
        // Count before handing off: the pipeline can serve the request
        // before this thread resumes, and a stats() snapshot must never
        // show served > submitted.
        submitted.add(1);
        self.ledger.queue_depth.add(1);
        let accepted = submit(self.submitter.as_ref().expect("server already shut down"));
        assert!(
            accepted,
            "serving threads are alive while the server exists"
        );
    }

    /// Submit-and-wait convenience: blocks until the response arrives.
    pub fn call(&self, request: MttkrpRequest) -> MttkrpResponse {
        self.submit(request).wait()
    }

    /// Submits a whole CP-ALS factorization; its [`FactorizeResponse`]
    /// arrives on the returned handle. The run resolves its per-mode
    /// MTTKRP plans through the server's shared plan cache, so repeated
    /// factorizations of the same shape skip the planner's candidate
    /// sweep entirely.
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
        self.intake(&self.ledger.factorizations_submitted, |s| {
            s.submit_factorize_with(request, hooks, reply)
        });
    }

    /// Submit-and-wait convenience for factorizations.
    pub fn call_factorize(&self, request: FactorizeRequest) -> FactorizeResponse {
        self.submit_factorize(request).wait()
    }

    /// The shared plan cache (e.g. to warm it up before a burst).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The server's metrics registry: every counter, gauge, and histogram
    /// the serving pipeline writes, by name (`serve.*`).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.ledger.registry()
    }

    /// The server's resolved metrics, for threads that outlive a borrow of
    /// the server (the net module's connections and admission permits).
    pub(crate) fn ledger(&self) -> Arc<Ledger> {
        Arc::clone(&self.ledger)
    }

    /// Point-in-time snapshot of the server's accounting — a thin view
    /// over [`Server::metrics`] (plus the plan cache's own ledger).
    pub fn stats(&self) -> ServerStats {
        let l = &self.ledger;
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
        ServerStats {
            requests_submitted: l.requests_submitted.value(),
            requests_served: l.requests_served.value(),
            factorizations_submitted: l.factorizations_submitted.value(),
            factorizations_served: l.factorizations_served.value(),
            batches: l.batches.value(),
            largest_batch: l.largest_batch.value(),
            cache: self.cache.stats(),
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

/// What a worker keeps for one plan key: the plan, the executor it runs
/// on, and where the key's requests are filed. A key's plan is a pure
/// function of the key, so the entry holds for every later request of it.
struct KeyEntry {
    plan: Arc<Plan>,
    executor: Executor,
    ledger: KeyLedger,
}

/// A worker: takes the next unit of work off the shared queue until it is
/// torn down, and runs it — an MTTKRP on its key's entry, or a whole
/// factorization. It keeps at most `max_keys` entries (the plan cache's
/// capacity): a full map is cleared and refilled. Only an entry's first
/// request looks its plan up in the shared cache; every later one reuses
/// the entry and files a hit with [`PlanCache::record_hit`], so the cache's
/// ledger counts one lookup per request served.
fn run_worker(queue: &BatchQueue, cache: &PlanCache, ledger: &Ledger, max_keys: usize) {
    let mut keys: HashMap<PlanKey, KeyEntry> = HashMap::new();
    while let Some(work) = queue.next() {
        let pending = match work {
            Work::Factorize(pending) => {
                // A factorization's per-mode plans are resolved as it
                // sweeps (through the same shared cache).
                run_factorization(pending, cache, ledger);
                continue;
            }
            Work::Mttkrp(pending) => pending,
        };
        let request = &pending.request;
        let key = PlanKey {
            problem: ProblemKey {
                dims: request
                    .tensor
                    .shape()
                    .dims()
                    .iter()
                    .map(|&d| d as u64)
                    .collect(),
                rank: request.factors[0].cols() as u64,
                mode: request.mode,
            },
            machine: pending.machine.clone(),
        };
        if keys.len() >= max_keys && !keys.contains_key(&key) {
            keys.clear();
        }
        let (entry, cache_hit) = match keys.entry(key) {
            Entry::Occupied(entry) => {
                cache.record_hit();
                (entry.into_mut(), true)
            }
            Entry::Vacant(entry) => {
                let key = entry.key();
                let planner = Planner::new(key.machine.clone());
                let (plan, cache_hit) = planner.plan_cached_with_status(
                    &key.problem.problem(),
                    key.problem.mode,
                    cache,
                );
                let executor = Executor::for_plan(&plan);
                let keyed = KeyLedger::resolve(ledger, &plan, executor.backend_name());
                let entry = entry.insert(KeyEntry {
                    plan,
                    executor,
                    ledger: keyed,
                });
                (entry, cache_hit)
            }
        };
        ledger.batches.add(1);
        ledger.largest_batch.max(1);
        ledger.batch_size.record(1);
        let mut span = mttkrp_obs::span("request");
        if span.is_active() {
            span.record("kind", "mttkrp");
            span.record("batch_size", 1usize);
            span.record("cache_hit", cache_hit);
            if let Some(ctx) = request.ctx {
                span.adopt(ctx);
            }
        }
        let refs: Vec<&Matrix> = request.factors.iter().collect();
        let queued = pending.submitted.elapsed();
        let start = Instant::now();
        let report = entry
            .executor
            .execute(&entry.plan, &request.tensor, &refs, request.mode);
        let exec = start.elapsed();
        if span.is_active() {
            span.record("queued_us", queued.as_micros() as u64);
            span.record("backend", report.backend);
        }
        drop(span);
        let timing = RequestTiming { queued, exec };
        ledger.served(&ledger.requests_served, &entry.ledger.labels, timing);
        entry.ledger.backend_runs.add(1);
        pending.reply.send(MttkrpResponse {
            report,
            plan: Arc::clone(&entry.plan),
            cache_hit,
            batch_size: 1,
            timing,
        });
    }
}

/// Runs one whole CP-ALS factorization on a worker thread, resolving every
/// per-mode MTTKRP plan through the server's shared cache. Under tracing
/// the engine's `factorize` span (and everything below it) nests under the
/// `request` span opened here.
fn run_factorization(pending: PendingFactorize, cache: &PlanCache, ledger: &Ledger) {
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
    let run = mttkrp_als::cp_als_with_hooks(
        &pending.request.tensor,
        &pending.request.config,
        cache,
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
