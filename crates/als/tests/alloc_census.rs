//! The gate on a CP-ALS sweep's allocations: a census of a warmed `als4`
//! sweep (20^4, `R = 16`, native backend, one thread).
//!
//! The normal-equations update, its Gram and the fit work in buffers the run
//! allocates once, and a contraction that drops one mode reads that
//! factor's rows in place, so a warmed sweep allocates only around its two
//! tensor passes: the same count every sweep, at most [`MAX_PER_SWEEP`]. An
//! update that allocates its `V`, its transposes or its norms again (96 per
//! sweep before they moved into the run) fails here. A sweep made 34 while
//! each kernel walk kept three index vectors and each whole-tensor view
//! copied its shape and built its strides; with one vector per walk and a
//! view that borrows both, it made 26. With the native kernel's slab bounds
//! on the stack it made 24. With each mode planned once before the first
//! sweep (no plan lookup, cloning its key's dims and machine, in the loop)
//! and no per-mode wall times that nothing read, it makes 15, and the bound
//! is that.
//!
//! Lives in its own integration-test binary: the counting allocator is
//! process-wide, so nothing else may run beside the one test.

use mttkrp_als::{cp_als_streaming, AlsConfig, BackendChoice, CancelFlag};
use mttkrp_exec::{MachineSpec, DEFAULT_CACHE_WORDS};
use mttkrp_tensor::{DenseTensor, Shape};

#[path = "../../serve/tests/support/census.rs"]
mod support;
use support::census;

/// Allocations a warmed sweep may make.
const MAX_PER_SWEEP: u64 = 15;

/// Sweeps run. The run's trace takes room for four sweeps at its first push
/// (the standard library's smallest capacity for a non-empty `Vec` of
/// these), so sweeps 2 to 4 compare like with like; a fifth would pay for
/// the trace growing.
const SWEEPS: usize = 4;

#[test]
fn a_warmed_sweep_allocates_the_same_few_times_every_sweep() {
    let x = DenseTensor::random(Shape::new(&[20, 20, 20, 20]), 1);
    let config = AlsConfig::new(16)
        .with_machine(MachineSpec::shared(1, DEFAULT_CACHE_WORDS))
        .with_backend(BackendChoice::Native)
        .with_sweeps(SWEEPS)
        .with_tol(0.0);
    let mut stamps = Vec::with_capacity(SWEEPS);
    let run = cp_als_streaming(
        &x,
        &config,
        &mut |_| stamps.push(census().1),
        &CancelFlag::new(),
    );
    assert_eq!(run.sweeps(), SWEEPS);
    // The first sweep sets the backend up.
    let per_sweep: Vec<u64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
    println!("census: allocations per warmed sweep {per_sweep:?}");
    assert!(
        per_sweep.iter().all(|&n| n == per_sweep[0]),
        "a warmed sweep's allocations vary: {per_sweep:?}"
    );
    assert!(
        per_sweep[0] <= MAX_PER_SWEEP,
        "{} allocations per warmed sweep, more than {MAX_PER_SWEEP}",
        per_sweep[0]
    );
}
