//! The server's metrics, resolved once: every name the workers and the
//! listener write is turned into a handle when the [`crate::Server`]
//! starts, so a served request updates its metrics without a single
//! by-name lookup or string build.
//!
//! There is one way to update a metric here: through a handle whose update
//! lands on the server's [`MetricsRegistry`] and is mirrored, by name, into
//! the active trace capture. With no capture on, the mirror is one relaxed
//! load.

use crate::net::listener::metric as net;
use crate::request::RequestTiming;
use crate::server::metric::{self, PLAN_EVICTIONS, PLAN_HITS, PLAN_MISSES};
use mttkrp_exec::Plan;
use mttkrp_obs::{HistogramSnapshot, MetricsRegistry};

/// A counter of the server's registry, mirrored into the active capture.
pub(crate) struct Counter(mttkrp_obs::Counter);

impl Counter {
    fn resolve(registry: &MetricsRegistry, name: &str) -> Counter {
        Counter(registry.counter_handle(name))
    }

    pub(crate) fn add(&self, v: u64) {
        self.0.add(v);
        mttkrp_obs::counter_add(self.0.name(), v);
    }

    pub(crate) fn value(&self) -> u64 {
        self.0.value()
    }
}

/// A gauge of the server's registry, mirrored into the active capture.
pub(crate) struct Gauge(mttkrp_obs::Gauge);

impl Gauge {
    fn resolve(registry: &MetricsRegistry, name: &str) -> Gauge {
        Gauge(registry.gauge_handle(name))
    }

    pub(crate) fn add(&self, delta: i64) {
        self.0.add(delta);
        mttkrp_obs::gauge_add(self.0.name(), delta);
    }

    pub(crate) fn value(&self) -> i64 {
        self.0.value()
    }
}

/// A histogram of the server's registry, mirrored into the active capture.
pub(crate) struct Histogram(mttkrp_obs::Histogram);

impl Histogram {
    fn resolve(registry: &MetricsRegistry, name: &str) -> Histogram {
        Histogram(registry.histogram_handle(name))
    }

    pub(crate) fn record(&self, v: u64) {
        self.0.record(v);
        mttkrp_obs::histogram_record(self.0.name(), v);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// One member of a labeled histogram family, mirrored into the active
/// capture by family and label (the capture bounds its own families).
pub(crate) struct Labeled(mttkrp_obs::LabeledHistogram);

impl Labeled {
    fn resolve(registry: &MetricsRegistry, family: &str, label: &str) -> Labeled {
        Labeled(registry.labeled_handle(family, label))
    }

    fn record(&self, v: u64) {
        self.0.record(v);
        mttkrp_obs::histogram_record_labeled(self.0.family(), self.0.label(), v);
    }
}

/// The label a problem shape files its latency under: `dims:rank:mode`,
/// e.g. `64x64x64:r16:m1` (factorizations, which sweep every mode, use
/// `m*`).
fn shape_label(dims: &[u64], rank: u64, mode: Option<usize>) -> String {
    let dims = dims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    match mode {
        Some(m) => format!("{dims}:r{rank}:m{m}"),
        None => format!("{dims}:r{rank}:m*"),
    }
}

/// The labeled latency members one kind of request files under: its shape
/// family and its algorithm (the families a `STATS` scrape breaks latency
/// down by).
pub(crate) struct Labels {
    exec_by_shape: Labeled,
    exec_by_alg: Labeled,
    queued_by_shape: Labeled,
}

impl Labels {
    fn resolve(registry: &MetricsRegistry, shape: &str, algorithm: &str) -> Labels {
        Labels {
            exec_by_shape: Labeled::resolve(registry, metric::EXEC_US_BY_SHAPE, shape),
            exec_by_alg: Labeled::resolve(registry, metric::EXEC_US_BY_ALG, algorithm),
            queued_by_shape: Labeled::resolve(registry, metric::QUEUED_US_BY_SHAPE, shape),
        }
    }

    /// A factorization's labels: it sweeps every mode, so its shape family
    /// is `m*` and its "algorithm" is the whole CP-ALS engine.
    pub(crate) fn factorization(ledger: &Ledger, dims: &[usize], rank: usize) -> Labels {
        let dims: Vec<u64> = dims.iter().map(|&d| d as u64).collect();
        let shape = shape_label(&dims, rank as u64, None);
        Labels::resolve(&ledger.registry, &shape, "cp-als")
    }
}

/// What a worker files one plan key's requests under: its backend's run
/// counter and its shape and algorithm labels, resolved at the key's first
/// request. A key's plan is a pure function of the key, so they hold for
/// every later request of it.
pub(crate) struct KeyLedger {
    pub(crate) backend_runs: Counter,
    pub(crate) labels: Labels,
}

impl KeyLedger {
    pub(crate) fn resolve(ledger: &Ledger, plan: &Plan, backend: &str) -> KeyLedger {
        let shape = shape_label(&plan.problem.dims, plan.problem.rank, Some(plan.mode));
        let backend_runs = format!("{}{backend}", metric::BACKEND_RUNS_PREFIX);
        KeyLedger {
            backend_runs: Counter::resolve(&ledger.registry, &backend_runs),
            labels: Labels::resolve(&ledger.registry, &shape, &plan.algorithm.label()),
        }
    }
}

/// The listener's metrics (`serve.net.*`). Resolved with the server's, so
/// an in-process server holds them too; a metric only shows in a snapshot
/// once it is updated, so they stay invisible there.
pub(crate) struct NetLedger {
    pub(crate) connections: Counter,
    pub(crate) open_connections: Gauge,
    pub(crate) requests: Counter,
    pub(crate) shed: Counter,
    pub(crate) in_flight: Gauge,
    pub(crate) protocol_errors: Counter,
    pub(crate) sweeps_streamed: Counter,
    pub(crate) request_attempts: Counter,
    pub(crate) scrapes: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) kept_bytes: Gauge,
    pub(crate) kept_hits: Counter,
}

/// Every fixed-name metric the server writes, resolved once at start and
/// shared by the workers and the listener.
pub(crate) struct Ledger {
    registry: MetricsRegistry,
    pub(crate) requests_submitted: Counter,
    pub(crate) requests_served: Counter,
    pub(crate) factorizations_submitted: Counter,
    pub(crate) factorizations_served: Counter,
    pub(crate) factorizations_cancelled: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) request_queued_us: Histogram,
    pub(crate) request_exec_us: Histogram,
    /// The key map's plan accounting (`exec.plan_cache.*`).
    pub(crate) plan_hits: Counter,
    pub(crate) plan_misses: Counter,
    pub(crate) plan_evictions: Counter,
    pub(crate) net: NetLedger,
}

impl Ledger {
    /// A fresh registry, and every fixed name resolved in it.
    pub(crate) fn new() -> Ledger {
        let registry = MetricsRegistry::new();
        let r = &registry;
        let net = NetLedger {
            connections: Counter::resolve(r, net::CONNECTIONS),
            open_connections: Gauge::resolve(r, net::OPEN_CONNECTIONS),
            requests: Counter::resolve(r, net::REQUESTS),
            shed: Counter::resolve(r, net::SHED),
            in_flight: Gauge::resolve(r, net::IN_FLIGHT),
            protocol_errors: Counter::resolve(r, net::PROTOCOL_ERRORS),
            sweeps_streamed: Counter::resolve(r, net::SWEEPS_STREAMED),
            request_attempts: Counter::resolve(r, net::REQUEST_ATTEMPTS),
            scrapes: Counter::resolve(r, net::SCRAPES),
            bytes_in: Counter::resolve(r, net::BYTES_IN),
            bytes_out: Counter::resolve(r, net::BYTES_OUT),
            kept_bytes: Gauge::resolve(r, net::KEPT_BYTES),
            kept_hits: Counter::resolve(r, net::KEPT_HITS),
        };
        // A scrape carries the plan accounting from the start, zeros too.
        for name in [PLAN_HITS, PLAN_MISSES, PLAN_EVICTIONS] {
            registry.counter_add(name, 0);
        }
        Ledger {
            requests_submitted: Counter::resolve(r, metric::REQUESTS_SUBMITTED),
            requests_served: Counter::resolve(r, metric::REQUESTS_SERVED),
            factorizations_submitted: Counter::resolve(r, metric::FACTORIZATIONS_SUBMITTED),
            factorizations_served: Counter::resolve(r, metric::FACTORIZATIONS_SERVED),
            factorizations_cancelled: Counter::resolve(r, metric::FACTORIZATIONS_CANCELLED),
            queue_depth: Gauge::resolve(r, metric::QUEUE_DEPTH),
            request_queued_us: Histogram::resolve(r, metric::REQUEST_QUEUED_US),
            request_exec_us: Histogram::resolve(r, metric::REQUEST_EXEC_US),
            plan_hits: Counter::resolve(r, PLAN_HITS),
            plan_misses: Counter::resolve(r, PLAN_MISSES),
            plan_evictions: Counter::resolve(r, PLAN_EVICTIONS),
            net,
            registry,
        }
    }

    /// Keys in the key map: each miss filed one, each eviction dropped one.
    pub(crate) fn plans_resident(&self) -> u64 {
        let evicted = self.plan_evictions.value();
        self.plan_misses.value().saturating_sub(evicted)
    }

    /// The registry every handle here updates.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Files one answered request: its `served` counter, the queue depth,
    /// and its queue and exec latency — overall and under its `labels`.
    pub(crate) fn served(&self, served: &Counter, labels: &Labels, timing: RequestTiming) {
        let queued = timing.queued.as_micros() as u64;
        let exec = timing.exec.as_micros() as u64;
        served.add(1);
        self.queue_depth.add(-1);
        self.request_queued_us.record(queued);
        self.request_exec_us.record(exec);
        labels.exec_by_shape.record(exec);
        labels.exec_by_alg.record(exec);
        labels.queued_by_shape.record(queued);
    }
}
