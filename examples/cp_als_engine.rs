//! The CP-ALS engine end-to-end: one factorization driven through the
//! planner and three execution fabrics — then served as a `Factorize`
//! request through the batch server.
//!
//! This is the workload the paper optimizes for: `N` MTTKRPs per ALS
//! sweep, with everything else (Gram-Hadamard, R x R Cholesky,
//! normalization) lower order. The engine plans the sweep once — on one
//! rank modes 0 and 1 share a partial contraction, so a sweep passes over
//! the tensor twice, not three times; on the cluster every mode runs its own
//! distributed plan — from the `N` mode plans it makes once per run, and
//! reads the fit off the last MTTKRP for free. Each run's `explain()` prints
//! its sweep plan.
//!
//! Run with: `cargo run --release --example cp_als_engine`

use mttkrp::als::{cp_als, AlsConfig, BackendChoice};
use mttkrp::exec::MachineSpec;
use mttkrp::serve::{FactorizeRequest, Server, ServerConfig};
use mttkrp::tensor::{DenseTensor, KruskalTensor, Shape};
use std::sync::Arc;

fn main() {
    // A 16 x 12 x 8 rank-3 ground truth with 1% noise.
    let dims = [16usize, 12, 8];
    let rank = 3;
    let truth = KruskalTensor::random(&Shape::new(&dims), rank, 42);
    let clean = truth.full();
    let noise = DenseTensor::random(Shape::new(&dims), 43);
    let sigma = 0.01 * clean.frob_norm() / noise.frob_norm();
    let x = DenseTensor::from_vec(
        clean.shape().clone(),
        clean
            .data()
            .iter()
            .zip(noise.data())
            .map(|(&c, &n)| c + sigma * n)
            .collect(),
    );

    // 1. Native: the fast path. One planner sweep per mode, ever, and two
    // tensor passes per ALS sweep.
    let native = cp_als(
        &x,
        &AlsConfig::new(rank)
            .with_machine(MachineSpec::shared(2, 1 << 14))
            .with_backend(BackendChoice::Native)
            .with_sweeps(80)
            .with_tol(1e-10)
            .with_seed(7),
    );
    println!("=== native engine run ===\n{}\n", native.explain());
    assert_eq!(native.sweep_plan.tensor_passes(), 2);

    // 2. The same factorization on an 8-rank cluster: every per-mode
    // MTTKRP executes the paper's distributed schedule on the sharded
    // runtime (in-process channel transport here; TCP is one
    // `with_transport` away).
    let dist = cp_als(
        &x,
        &AlsConfig::new(rank)
            .with_machine(MachineSpec::cluster(8, 1, 1 << 16))
            .with_backend(BackendChoice::Dist)
            .with_sweeps(80)
            .with_tol(1e-10)
            .with_seed(7),
    );
    println!("=== dist engine run (P = 8) ===\n{}\n", dist.explain());
    println!(
        "fit agreement: native {:.9} vs dist {:.9}\n",
        native.fit(),
        dist.fit()
    );

    // 3. Served: the batch server takes whole factorizations next to
    // single MTTKRPs; each run plans its own modes, once.
    let server = Server::start(ServerConfig {
        machine: MachineSpec::shared(2, 1 << 14),
        workers: 2,
        ..ServerConfig::default()
    });
    let config = AlsConfig::new(rank)
        .with_machine(MachineSpec::shared(2, 1 << 14))
        .with_backend(BackendChoice::Native)
        .with_sweeps(80)
        .with_tol(1e-10)
        .with_seed(7);
    let tensor = Arc::new(x);
    let first = server.call_factorize(FactorizeRequest::new(tensor.clone(), config.clone()));
    let second = server.call_factorize(FactorizeRequest::new(tensor, config));
    println!("=== served factorizations ===");
    let run = &second.run;
    println!("fit {:.9}, {} plans made", run.fit(), run.cache_misses());
    let stats = server.shutdown();
    println!("\n{stats}");

    assert!(native.fit() > 0.98, "native fit {}", native.fit());
    assert!(dist.fit() > 0.98, "dist fit {}", dist.fit());
    assert_eq!(first.run.fit_history(), second.run.fit_history());
}
