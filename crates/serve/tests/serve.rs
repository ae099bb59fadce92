//! Integration tests for the serving layer: batching must never change
//! results, the plan cache must account honestly, and shutdown must drain.

use mttkrp_als::{cp_als_with_cache, AlsConfig, BackendChoice};
use mttkrp_exec::plan_and_execute;
use mttkrp_exec::{MachineSpec, PlanCache};
use mttkrp_serve::{FactorizeRequest, MttkrpRequest, Server, ServerConfig};
use mttkrp_tensor::{DenseTensor, KruskalTensor, Matrix, Shape};
use std::sync::Arc;

fn operands(dims: &[usize], r: usize, seed: u64) -> (Arc<DenseTensor>, Arc<Vec<Matrix>>) {
    let shape = Shape::new(dims);
    let x = Arc::new(DenseTensor::random(shape, seed));
    let factors = Arc::new(
        dims.iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 700 + k as u64))
            .collect::<Vec<Matrix>>(),
    );
    (x, factors)
}

/// The load-bearing serving invariant: a batched, cached, worker-pool
/// execution returns *bit-identical* output to a direct per-request
/// `plan_and_execute` with the same operands and machine. Batching changes
/// where work runs and what planning costs — never the numbers.
#[test]
fn batched_results_bit_identical_to_unbatched() {
    let machine = MachineSpec::shared(2, 1 << 12);
    let server = Server::start(ServerConfig {
        machine: machine.clone(),
        workers: 3,
        cache_capacity: 16,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });

    // A mixed-shape workload: three shapes, several requests each, distinct
    // data per request, submitted interleaved so batches actually form.
    let shapes: [&[usize]; 3] = [&[8, 8, 8], &[6, 10, 4], &[12, 5]];
    let ranks = [4usize, 3, 5];
    let mut cases = Vec::new();
    for round in 0..4u64 {
        for (s, (&dims, &r)) in shapes.iter().zip(&ranks).enumerate() {
            let (x, f) = operands(dims, r, 10 * round + s as u64);
            let mode = (round as usize) % dims.len();
            cases.push((x, f, mode));
        }
    }

    let handles: Vec<_> = cases
        .iter()
        .map(|(x, f, mode)| server.submit(MttkrpRequest::new(x.clone(), f.clone(), *mode)))
        .collect();

    for (handle, (x, f, mode)) in handles.into_iter().zip(&cases) {
        let response = handle.wait();
        let refs: Vec<&Matrix> = f.iter().collect();
        let (plan, direct) = plan_and_execute(&machine, x, &refs, *mode);
        assert_eq!(
            response.report.output.data(),
            direct.output.data(),
            "served output differs from direct execution"
        );
        assert_eq!(response.plan.algorithm, plan.algorithm);
        assert_eq!(response.report.backend, direct.backend);
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 12);
}

/// Distributed plans go through the simulator backend and must be
/// bit-identical too (the sim is exactly deterministic by construction).
#[test]
fn distributed_requests_served_on_sim_backend() {
    let machine = MachineSpec::distributed(4);
    let server = Server::start(ServerConfig {
        machine: machine.clone(),
        workers: 2,
        cache_capacity: 8,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let (x, f) = operands(&[8, 8, 8], 4, 42);
    let response = server.call(MttkrpRequest::new(x.clone(), f.clone(), 1));
    assert_eq!(response.report.backend, "sim");

    let refs: Vec<&Matrix> = f.iter().collect();
    let (_, direct) = plan_and_execute(&machine, &x, &refs, 1);
    assert_eq!(response.report.output.data(), direct.output.data());

    let stats = server.shutdown();
    assert_eq!(stats.backend_runs, vec![("sim".to_string(), 1)]);
}

/// Repeated shapes must hit the plan cache: K distinct shapes over N >> K
/// requests cost exactly K misses.
#[test]
fn repeated_shapes_hit_the_plan_cache() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 10),
        workers: 2,
        cache_capacity: 16,
        max_batch: 4,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let workload = [operands(&[6, 6, 6], 3, 1), operands(&[4, 8, 2], 2, 2)];
    // Closed loop (wait for each response before submitting the next): every
    // request forms its own batch, so cache accounting is exact — one miss
    // per distinct shape, a hit for everything after.
    let mut cache_hits = 0;
    for i in 0..20 {
        let (x, f) = &workload[i % 2];
        let response = server.call(MttkrpRequest::new(x.clone(), f.clone(), 0));
        if response.cache_hit {
            cache_hits += 1;
        }
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.cache.misses, 2,
        "one planner sweep per distinct shape"
    );
    assert_eq!(stats.cache.hits, 18);
    assert_eq!(stats.cache.hits + stats.cache.misses, stats.batches);
    assert!(stats.cache.hit_rate().is_some_and(|r| r > 0.85));
    assert_eq!(cache_hits, 18, "per-response flags agree with the ledger");
}

/// Serves `requests` (dims, rank, mode, seed) and checks every output bit
/// for bit against a direct `plan_and_execute` on the same operands.
fn serve_and_check(
    server: &Server,
    machine: &MachineSpec,
    requests: &[(&[usize], usize, usize, u64)],
) {
    let cases: Vec<_> = requests
        .iter()
        .map(|&(dims, r, mode, seed)| {
            let (x, f) = operands(dims, r, seed);
            let handle = server.submit(MttkrpRequest::new(x.clone(), f.clone(), mode));
            (x, f, mode, handle)
        })
        .collect();
    for (x, f, mode, handle) in cases {
        let response = handle.wait();
        let refs: Vec<&Matrix> = f.iter().collect();
        let (_, direct) = plan_and_execute(machine, &x, &refs, mode);
        assert_eq!(response.report.output.data(), direct.output.data());
        assert_eq!(response.batch_size, 1, "every request is its own unit");
    }
}

/// Two workers over twelve interleaved plan keys: each worker keeps the
/// plans it has seen, so the shared cache plans each key once, and every
/// reuse is still filed as a hit — one lookup per request served.
#[test]
fn workers_plan_each_key_once_and_count_every_reuse_as_a_hit() {
    let machine = MachineSpec::shared(1, 1 << 12);
    let server = Server::start(ServerConfig {
        machine: machine.clone(),
        workers: 2,
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let shapes: [&[usize]; 4] = [&[8, 6, 4], &[6, 8, 4], &[4, 8, 6], &[8, 4, 6]];
    let mut requests = Vec::new();
    for round in 0..8u64 {
        for mode in 0..3 {
            for (s, &dims) in shapes.iter().enumerate() {
                requests.push((dims, 4, mode, 100 * round + 10 * mode as u64 + s as u64));
            }
        }
    }
    serve_and_check(&server, &machine, &requests);
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 96);
    assert_eq!(stats.cache.misses, 12, "one planner sweep per distinct key");
    assert_eq!(stats.cache.hits + stats.cache.misses, stats.batches);
    assert_eq!(stats.batches, stats.requests_served);
    assert_eq!(stats.largest_batch, 1);
}

/// A worker keeps at most `cache_capacity` keys: three keys over a capacity
/// of two clear and refill its map, and every answer stays right.
#[test]
fn a_full_worker_map_is_cleared_and_refilled() {
    let machine = MachineSpec::shared(1, 1 << 12);
    let server = Server::start(ServerConfig {
        machine: machine.clone(),
        workers: 1,
        cache_capacity: 2,
        ..ServerConfig::default()
    });
    let keys: [(&[usize], usize); 3] = [(&[6, 5, 4], 3), (&[5, 7], 2), (&[4, 4, 4, 3], 2)];
    let requests: Vec<_> = (0..4u64)
        .flat_map(|round| keys.map(|(dims, r)| (dims, r, 0, round)))
        .collect();
    serve_and_check(&server, &machine, &requests);
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 12);
    assert_eq!(stats.cache.hits + stats.cache.misses, stats.batches);
    assert!(stats.cache.evictions > 0, "three keys overflow two slots");
    assert!(stats.cache.misses > 3, "a cleared key is looked up again");
}

/// Graceful shutdown must drain: every request accepted before shutdown is
/// answered, even though shutdown was called while they were in flight.
#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 10),
        workers: 2,
        cache_capacity: 8,
        max_batch: 16,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let (x, f) = operands(&[10, 10, 10], 4, 9);
    let handles: Vec<_> = (0..24)
        .map(|_| server.submit(MttkrpRequest::new(x.clone(), f.clone(), 0)))
        .collect();

    // Shut down immediately: most of the 24 requests are still queued.
    let stats = server.shutdown();
    assert_eq!(stats.requests_submitted, 24);
    assert_eq!(stats.requests_served, 24, "shutdown must answer everything");

    // Every handle delivers a real response after the server is gone.
    for h in handles {
        let response = h.wait();
        assert_eq!(response.report.output.rows(), 10);
        assert_eq!(response.report.output.cols(), 4);
    }
}

/// Dropping the server (instead of calling shutdown) drains the same way.
#[test]
fn drop_is_graceful() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 10),
        workers: 1,
        cache_capacity: 4,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let (x, f) = operands(&[6, 6], 2, 5);
    let handle = server.submit(MttkrpRequest::new(x, f, 0));
    drop(server);
    let response = handle.wait();
    assert_eq!(response.report.output.rows(), 6);
}

/// Per-request machine overrides split batches and plan separately.
#[test]
fn machine_override_is_honored() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 10),
        workers: 2,
        cache_capacity: 8,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let (x, f) = operands(&[8, 8, 8], 4, 3);
    let sequential = server.submit(MttkrpRequest::new(x.clone(), f.clone(), 0));
    let distributed = server.submit(
        MttkrpRequest::new(x.clone(), f.clone(), 0).with_machine(MachineSpec::distributed(4)),
    );
    assert_eq!(sequential.wait().report.backend, "native");
    assert_eq!(distributed.wait().report.backend, "sim");
    let stats = server.shutdown();
    assert_eq!(stats.cache.misses, 2, "two machines, two plans");
}

/// A served factorization is bit-identical to a direct engine run with
/// the same config and an equivalent cache — serving changes where the
/// sweeps run, never the numbers.
#[test]
fn served_factorization_matches_direct_engine_run() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 12),
        workers: 2,
        cache_capacity: 16,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let x = Arc::new(KruskalTensor::random(&Shape::new(&[8, 7, 6]), 2, 31).full());
    let config = AlsConfig::new(2)
        .with_machine(MachineSpec::shared(1, 1 << 12))
        .with_backend(BackendChoice::Native)
        .with_sweeps(20)
        .with_tol(1e-10);

    let response = server.call_factorize(FactorizeRequest::new(x.clone(), config.clone()));
    let direct = cp_als_with_cache(&x, &config, &PlanCache::new(8));
    for (a, b) in response.run.model.factors.iter().zip(&direct.model.factors) {
        assert_eq!(a.data(), b.data(), "served factors differ from direct run");
    }
    assert_eq!(response.run.model.weights, direct.model.weights);
    assert_eq!(response.run.fit_history(), direct.fit_history());
    assert!(response.timing.exec > std::time::Duration::ZERO);

    let stats = server.shutdown();
    assert_eq!(stats.factorizations_submitted, 1);
    assert_eq!(stats.factorizations_served, 1);
    assert_eq!(stats.requests_served, 0, "no single MTTKRPs were submitted");
}

/// Factorizations share the server's plan cache: the second same-shape
/// factorization (and any same-shape single MTTKRP) skips the planner's
/// candidate sweep entirely.
#[test]
fn factorizations_share_the_plan_cache_across_requests() {
    let machine = MachineSpec::shared(1, 1 << 12);
    let server = Server::start(ServerConfig {
        machine: machine.clone(),
        workers: 1,
        cache_capacity: 16,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let x = Arc::new(KruskalTensor::random(&Shape::new(&[6, 6, 6]), 2, 32).full());
    let config = AlsConfig::new(2)
        .with_machine(machine.clone())
        .with_backend(BackendChoice::Native)
        .with_sweeps(6)
        .with_tol(0.0);

    let first = server.call_factorize(FactorizeRequest::new(x.clone(), config.clone()));
    assert_eq!(first.run.cache_misses(), 3, "one planner sweep per mode");
    let second = server.call_factorize(FactorizeRequest::new(x.clone(), config.clone()));
    assert_eq!(second.run.cache_misses(), 0, "plans reused across requests");
    assert_eq!(second.run.cache_hits(), 3 * 6);

    // A single MTTKRP of the same shape/rank/machine also hits the shared
    // cache: the factorization already planned mode 0.
    let factors = Arc::new(
        (0..3)
            .map(|k| Matrix::random(6, 2, 40 + k as u64))
            .collect::<Vec<Matrix>>(),
    );
    let response = server.call(MttkrpRequest::new(x.clone(), factors, 0));
    assert!(
        response.cache_hit,
        "factorization warmed the cache for MTTKRPs"
    );

    let stats = server.shutdown();
    assert_eq!(stats.factorizations_served, 2);
    assert_eq!(stats.cache.misses, 3, "three modes, planned once, ever");
}

/// Graceful shutdown drains queued factorizations just like MTTKRPs.
#[test]
fn shutdown_drains_in_flight_factorizations() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 10),
        workers: 2,
        cache_capacity: 8,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let x = Arc::new(KruskalTensor::random(&Shape::new(&[6, 5, 4]), 2, 33).full());
    let config = AlsConfig::new(2)
        .with_machine(MachineSpec::shared(1, 1 << 10))
        .with_backend(BackendChoice::Native)
        .with_sweeps(4)
        .with_tol(0.0);
    let handles: Vec<_> = (0..6)
        .map(|_| server.submit_factorize(FactorizeRequest::new(x.clone(), config.clone())))
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats.factorizations_submitted, 6);
    assert_eq!(
        stats.factorizations_served, 6,
        "shutdown must answer everything"
    );
    for h in handles {
        let response = h.wait();
        assert_eq!(response.run.sweeps(), 4);
    }
}

/// Timing and batch metadata on responses are populated sanely.
#[test]
fn response_metadata_is_sane() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(1, 1 << 10),
        workers: 1,
        cache_capacity: 4,
        max_batch: 8,
        backend: mttkrp_als::BackendChoice::Auto,
    });
    let (x, f) = operands(&[6, 6, 6], 3, 8);
    let response = server.call(MttkrpRequest::new(x, f, 2));
    assert_eq!(
        response.batch_size, 1,
        "a lone request rides a batch of one"
    );
    assert!(!response.cache_hit, "first sighting of the shape is a miss");
    assert!(response.timing.queued > std::time::Duration::ZERO);
    assert!(response.plan.explain().contains("chosen:"));
    server.shutdown();
}
