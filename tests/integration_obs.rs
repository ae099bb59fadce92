//! Cross-crate integration: the mttkrp-obs spine under the serving layer's
//! worker pool — concurrent span emission from many threads, span
//! parentage across the layers, and the agreement between the server's
//! own [`MetricsRegistry`] view (`stats()`) and the captured trace — plus
//! the sweep-level word count: what the simulator counts over one tree sweep
//! of the ALS engine against what the sweep plan predicted.

use mttkrp_als::{AlsConfig, BackendChoice};
use mttkrp_exec::{Algorithm, MachineSpec};
use mttkrp_serve::{FactorizeRequest, MttkrpRequest, Server, ServerConfig};
use mttkrp_tensor::{DenseTensor, KruskalTensor, Matrix, Shape};
use std::collections::HashMap;
use std::sync::Arc;

fn server(workers: usize) -> Server {
    Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 16),
        workers,
        cache_capacity: 16,
        ..ServerConfig::default()
    })
}

fn request(dims: &[usize], r: usize, seed: u64, mode: usize) -> MttkrpRequest {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors: Vec<Matrix> = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed + 40 + k as u64))
        .collect();
    MttkrpRequest::new(Arc::new(x), Arc::new(factors), mode)
}

/// Four workers serving two interleaved shapes: every request gets exactly
/// one `request` span, each with its `kernel` child on the same thread —
/// concurrent emission corrupts neither the span stack nor the parentage.
#[test]
fn worker_pool_emits_one_well_parented_span_tree_per_request() {
    let total = 24;
    let cap = mttkrp_obs::capture();
    let stats = {
        let server = server(4);
        let handles: Vec<_> = (0..total)
            .map(|i| {
                let dims: &[usize] = if i % 2 == 0 { &[8, 7, 6] } else { &[6, 8, 7] };
                server.submit(request(dims, 4, 3 + (i % 2) as u64, 0))
            })
            .collect();
        for h in handles {
            h.wait();
        }
        server.shutdown()
    };
    let rec = cap.finish();
    let nodes = rec.nodes();

    let requests: HashMap<u64, _> = nodes
        .iter()
        .filter(|n| n.name == "request")
        .map(|n| (n.id, n))
        .collect();
    assert_eq!(requests.len(), total, "one request span per request");
    assert_eq!(stats.requests_served, total as u64);
    for r in requests.values() {
        assert_eq!(r.parent, None, "worker request spans are roots");
        assert_eq!(r.field_str("kind"), Some("mttkrp"));
        assert!(r.field_u64("batch_size").is_some());
    }

    // Every kernel span hangs off a request span *on the same thread*: the
    // thread-local stacks never leak parents across the worker pool.
    let kernels: Vec<_> = nodes.iter().filter(|n| n.name == "kernel").collect();
    assert_eq!(kernels.len(), total, "one kernel execution per request");
    for k in &kernels {
        let parent = k
            .parent
            .and_then(|id| requests.get(&id))
            .expect("kernel span parented under a request span");
        assert_eq!(parent.thread, k.thread);
        // A native kernel span names the entry point that ran.
        assert_eq!(k.field_str("isa"), Some(mttkrp_core::kernels::isa()));
    }
}

/// Four threads, held at a barrier, emit nested spans simultaneously: ids
/// stay unique, every parent edge stays within its own thread, and no
/// event is lost — the collector's locking and the thread-local stacks
/// hold up under genuine concurrency (which the worker pool above only
/// provides when the scheduler cooperates).
#[test]
fn simultaneous_emission_from_many_threads_stays_consistent() {
    use std::sync::Barrier;
    const THREADS: usize = 4;
    const SPANS_PER_THREAD: usize = 50;

    let cap = mttkrp_obs::capture();
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..SPANS_PER_THREAD {
                    let _outer = mttkrp_obs::span("request").with("i", i);
                    let _inner = mttkrp_obs::span("kernel");
                    mttkrp_obs::counter_add("test.emissions", 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let rec = cap.finish();
    let nodes = rec.nodes();
    assert_eq!(nodes.len(), 2 * THREADS * SPANS_PER_THREAD);

    let mut ids = std::collections::HashSet::new();
    assert!(
        nodes.iter().all(|n| ids.insert(n.id)),
        "span ids are unique"
    );
    let by_id: HashMap<u64, _> = nodes.iter().map(|n| (n.id, n)).collect();
    for n in nodes.iter().filter(|n| n.name == "kernel") {
        let parent = by_id[&n.parent.expect("kernel spans nest")];
        assert_eq!(parent.name, "request");
        assert_eq!(parent.thread, n.thread, "parent edges never cross threads");
    }
    let threads: std::collections::HashSet<u64> = nodes.iter().map(|n| n.thread).collect();
    assert_eq!(threads.len(), THREADS);
    let emissions = rec
        .metrics
        .iter()
        .find(|m| m.name == "test.emissions")
        .unwrap();
    assert_eq!(
        emissions.value,
        mttkrp_obs::MetricValue::Counter((THREADS * SPANS_PER_THREAD) as u64)
    );
}

/// A factorization request nests the whole ALS span tree (factorize →
/// sweep → mode → planner/kernel) under the serve-side `request` root.
#[test]
fn factorization_request_nests_the_als_span_tree() {
    let cap = mttkrp_obs::capture();
    {
        let server = server(1);
        let shape = Shape::new(&[8, 7, 6]);
        let x = Arc::new(KruskalTensor::random(&shape, 3, 11).full());
        let config = AlsConfig::new(3)
            .with_sweeps(2)
            .with_machine(MachineSpec::shared(1, 1 << 16));
        let response = server.call_factorize(FactorizeRequest::new(x, config));
        assert_eq!(response.run.sweeps(), 2);
    }
    let rec = cap.finish();
    let nodes = rec.nodes();
    let by_id: HashMap<u64, _> = nodes.iter().map(|n| (n.id, n)).collect();
    let root_of = |mut id: u64| {
        while let Some(parent) = by_id[&id].parent {
            id = parent;
        }
        by_id[&id]
    };

    let request = nodes
        .iter()
        .find(|n| n.name == "request")
        .expect("request span");
    assert_eq!(request.field_str("kind"), Some("factorize"));
    for name in ["factorize", "sweep", "mode", "planner", "kernel"] {
        let spans: Vec<_> = nodes.iter().filter(|n| n.name == name).collect();
        assert!(!spans.is_empty(), "expected {name} spans in the trace");
        for s in spans {
            assert_eq!(
                root_of(s.id).id,
                request.id,
                "{name} not under the request root"
            );
        }
    }
}

/// `Server::stats()` is a thin view over the metrics registry, and the
/// captured global metrics mirror it: three accounts of the same run agree.
#[test]
fn stats_registry_and_capture_agree() {
    let cap = mttkrp_obs::capture();
    let server = server(2);
    let handles: Vec<_> = (0..10)
        .map(|_| server.submit(request(&[8, 7, 6], 4, 3, 0)))
        .collect();
    for h in handles {
        h.wait();
    }
    let stats = server.stats();
    assert_eq!(stats.requests_submitted, 10);
    assert_eq!(stats.requests_served, 10);
    assert_eq!(stats.queue_depth, 0, "all answered, nothing in flight");
    assert_eq!(stats.exec_us.count, 10);
    let total_backend_runs: u64 = stats.backend_runs.iter().map(|(_, n)| n).sum();
    assert_eq!(total_backend_runs, 10);

    let registry = server.metrics();
    assert_eq!(registry.counter_value("serve.requests_served"), 10);
    assert_eq!(registry.gauge_value("serve.queue_depth"), 0);

    drop(server);
    let rec = cap.finish();
    let mirrored: Vec<_> = rec
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("serve."))
        .collect();
    assert!(
        !mirrored.is_empty(),
        "serve metrics mirrored into the capture"
    );
    let served = rec
        .metrics
        .iter()
        .find(|m| m.name == "serve.requests_served")
        .expect("captured serve.requests_served");
    assert_eq!(served.value, mttkrp_obs::MetricValue::Counter(10));
}

/// Word-exactness, extended from the mode to the sweep. On a sequential
/// machine with the simulator backend every tensor pass of a tree sweep —
/// the merged-range ones included, since they are ordinary plans on a
/// reshaped problem — is replayed on the two-level memory simulator; the
/// words it counts, plus the contractions' closed-form streamed words, equal
/// the sweep plan's prediction word for word and undercut `N` per-mode
/// plans. The same capture carries the scrape-able counts.
#[test]
fn sim_counted_words_of_a_tree_sweep_equal_the_sweep_plan() {
    let cap = mttkrp_obs::capture();
    let x = DenseTensor::random(Shape::new(&[6, 5, 4, 4]), 21);
    let config = AlsConfig::new(3)
        .with_machine(MachineSpec::sequential(200))
        .with_backend(BackendChoice::Sim)
        .with_sweeps(1);
    let run = mttkrp_als::cp_als(&x, &config);
    let rec = cap.finish();

    let plan = &run.sweep_plan;
    assert_eq!(
        (plan.tensor_passes(), plan.contractions()),
        (2, 4),
        "{plan}"
    );
    for pass in plan.steps.iter().filter_map(|s| s.plan.as_ref()) {
        // Algorithms 1 and 2 are the ones the simulator matches exactly.
        let exact = matches!(
            pass.algorithm,
            Algorithm::SeqBlocked { .. } | Algorithm::SeqUnblocked { .. }
        );
        assert!(exact, "{plan}");
    }
    let nodes = rec.nodes();
    let kernels: Vec<_> = nodes.iter().filter(|n| n.name == "kernel").collect();
    assert_eq!(kernels.len(), 2, "one kernel span per tensor pass");
    for k in &kernels {
        assert_eq!(k.field_f64("measured_words"), k.field_f64("modeled_words"));
    }
    let counted: u64 = kernels
        .iter()
        .map(|k| k.field_u64("measured_words").expect("sim reports words"))
        .sum();
    let contracted: f64 = (plan.steps.iter().filter(|s| s.plan.is_none()))
        .map(|s| s.words)
        .sum();
    assert_eq!(counted as f64 + contracted, plan.words(), "{plan}");
    assert!(plan.words() < plan.per_mode_words, "{plan}");
    assert!(plan.flops() < plan.per_mode_flops, "{plan}");

    let sweep = nodes
        .iter()
        .find(|n| n.name == "sweep")
        .expect("sweep span");
    assert_eq!(sweep.field_u64("tensor_passes"), Some(2));
    assert_eq!(sweep.field_u64("partial_words"), Some(plan.partial_words()));
    let counter = |name: &str| {
        let metric = rec.metrics.iter().find(|m| m.name == name);
        metric.map(|m| m.value.clone())
    };
    assert_eq!(
        counter("als.tensor_passes"),
        Some(mttkrp_obs::MetricValue::Counter(2))
    );
    assert_eq!(
        counter("als.partial_contractions"),
        Some(mttkrp_obs::MetricValue::Counter(4))
    );
}
