//! CI gate for the native backend's headline claim: on a host with **four
//! or more cores**, the rayon-parallel native backend beats the same
//! kernel pinned to one thread by **at least 2x** on the acceptance
//! configuration (64x64x64, R = 32).
//!
//! This binary *asserts* the ratio (exit nonzero on violation) so CI fails
//! instead of merely printing numbers. On hosts with fewer than four cores
//! the gate is skipped — the claim is conditional on the hardware.
//!
//! Measurement: best-of-`TRIALS` wall clock per configuration (best, not
//! mean, to shrug off scheduler noise on shared CI runners), after a
//! warm-up run each.

use mttkrp_bench::setup_problem;
use mttkrp_exec::{MachineSpec, NativeBackend};
use mttkrp_tensor::Matrix;
use std::process::ExitCode;
use std::time::Instant;

const TRIALS: usize = 7;
const REQUIRED_SPEEDUP: f64 = 2.0;

fn best_secs(backend: &NativeBackend, x: &mttkrp_tensor::DenseTensor, refs: &[&Matrix]) -> f64 {
    let _warmup = backend.run(x, refs, 0);
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let start = Instant::now();
        std::hint::black_box(backend.run(x, refs, 0));
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() -> ExitCode {
    let cores = MachineSpec::detect_threads();
    if cores < 4 {
        println!("speedup gate skipped: host reports {cores} core(s) (< 4); the >= 2x claim is conditional on >= 4 cores");
        return ExitCode::SUCCESS;
    }

    let (x, factors) = setup_problem(&[64, 64, 64], 32, 7);
    let refs: Vec<&Matrix> = factors.iter().collect();

    let one = NativeBackend::new(1, mttkrp_exec::DEFAULT_CACHE_WORDS);
    let four = NativeBackend::new(4, mttkrp_exec::DEFAULT_CACHE_WORDS);
    let t1 = best_secs(&one, &x, &refs);
    let t4 = best_secs(&four, &x, &refs);
    let speedup = t1 / t4;
    println!(
        "native_mttkrp_64x64x64_r32: 1 thread {:.3} ms, 4 threads {:.3} ms -> speedup {speedup:.2}x (gate: >= {REQUIRED_SPEEDUP}x on {cores} cores)",
        t1 * 1e3,
        t4 * 1e3
    );
    if speedup < REQUIRED_SPEEDUP {
        eprintln!("error: rayon speedup {speedup:.2}x is below the required {REQUIRED_SPEEDUP}x");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
