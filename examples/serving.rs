//! Serving MTTKRP as a long-lived service: plan caching + plan reuse.
//!
//! A `Server` owns a plan cache and one server-wide map of each shape's
//! plan and executor; an in-process request runs on the thread that
//! submits it, under one of `workers` permits (the worker pool and its
//! queue carry only the network front door's requests and factorizations).
//! Submitting many same-shape requests shows the serving story: the first
//! request of each shape pays for a planner sweep (cache miss); every later
//! one reuses the kept plan and executor, so a repeated request costs its
//! kernel.
//!
//! Run with: `cargo run --release --example serving`

use mttkrp::exec::MachineSpec;
use mttkrp::serve::{MttkrpRequest, Server, ServerConfig};
use mttkrp::tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use std::sync::Arc;

fn operands(dims: &[usize], r: usize, seed: u64) -> (Arc<DenseTensor>, Arc<Vec<Matrix>>) {
    let shape = Shape::new(dims);
    let x = Arc::new(DenseTensor::random(shape, seed));
    let factors = Arc::new(
        dims.iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + k as u64))
            .collect::<Vec<Matrix>>(),
    );
    (x, factors)
}

fn main() {
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(2, 1 << 14),
        workers: 2,
        cache_capacity: 32,
        ..ServerConfig::default()
    });

    // Two request shapes; 20 requests each, interleaved, distinct data.
    let shapes: [&[usize]; 2] = [&[24, 24, 24], &[16, 32, 8]];
    let mut handles = Vec::new();
    for round in 0..20u64 {
        for (s, &dims) in shapes.iter().enumerate() {
            let (x, f) = operands(dims, 8, 10 * round + s as u64);
            let handle = server.submit(MttkrpRequest::new(x.clone(), f.clone(), 0));
            handles.push((x, f, handle));
        }
    }

    // Every response carries its (shared) plan, so "why this algorithm?"
    // is answerable per request; spot-check the first one and verify it.
    let mut first = true;
    for (x, f, handle) in handles {
        let response = handle.wait();
        if first {
            println!("{}\n", response.plan.explain());
            first = false;
        }
        let refs: Vec<&Matrix> = f.iter().collect();
        let oracle = mttkrp_reference(&x, &refs, 0);
        assert!(response.report.output.max_abs_diff(&oracle) < 1e-10);
    }

    let stats = server.shutdown();
    println!("{stats}");
    println!(
        "\n2 shapes -> exactly {} planner sweeps; everything else hit the cache",
        stats.cache.misses
    );
}
