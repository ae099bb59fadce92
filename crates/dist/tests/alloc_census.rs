//! The gate on the stationary tensor staying put: an allocation census of a
//! one-rank Algorithm 3 run.
//!
//! A rank of Algorithm 3 reads its block of the tensor in place, so what a
//! call allocates is the rank's factor chunks and gathered factors, its
//! partial output and the assembled output: on 64×32×32 at R = 32 about a
//! quarter of the 512 KiB tensor. The sharder this replaced copied each
//! rank's block out of the tensor on every call — on one rank, all of it —
//! so the bound asserted here, fewer bytes per call than the tensor, fails
//! there.
//!
//! Lives in its own integration-test binary: the counting allocator is
//! process-wide, so nothing else may run beside the one test.

use mttkrp_core::par::mttkrp_stationary;
use mttkrp_tensor::{DenseTensor, Matrix, Shape};

#[path = "../../serve/tests/support/census.rs"]
mod support;
use support::census;

#[test]
fn a_one_rank_stationary_call_allocates_less_than_the_tensor() {
    // The `dist-grid` shape: 64×32×32, R = 32, a 512 KiB tensor.
    let (dims, r) = ([64usize, 32, 32], 32);
    let x = DenseTensor::random(Shape::new(&dims), 1);
    let factors: Vec<Matrix> = (0..3)
        .map(|k| Matrix::random(dims[k], r, 2 + k as u64))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let tensor_bytes = (8 * x.num_entries()) as u64;
    assert_eq!(tensor_bytes, 512 * 1024);

    for (n, &i_n) in dims.iter().enumerate() {
        let call = || {
            let before = census();
            let run = mttkrp_stationary(&x, &refs, n, &[1, 1, 1]);
            let after = census();
            drop(run);
            (after.0 - before.0, after.1 - before.1)
        };
        // Warm-up: whatever a first call sets up once.
        for _ in 0..3 {
            call();
        }
        let (bytes, calls) = call();
        println!(
            "census, mode {n}: {bytes} bytes in {calls} allocations per call, {:.2} × the tensor",
            bytes as f64 / tensor_bytes as f64
        );
        assert!(
            bytes < tensor_bytes,
            "a one-rank call at mode {n} allocated {bytes} bytes in {calls} calls: \
             at least the {tensor_bytes}-byte tensor"
        );
        let output_bytes = (8 * i_n * r) as u64;
        assert!(
            bytes >= output_bytes,
            "the census missed the run: {bytes} bytes is less than its output"
        );
    }
}
