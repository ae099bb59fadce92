//! CI gate for the kernel's unit of arithmetic: handing `core::kernels` a
//! *panel* at a time (one Hadamard block per mode-1 fibre, four run pieces
//! per register block) must beat handing it the same pieces one by one.
//!
//! The baseline is the walk this binary builds from the public
//! `hadamard_row` + `accumulate_run` pair — one Hadamard row and one piece
//! per mode-0 run, which is how every walk drove the kernel before the
//! panel — run under the same `kernels::dispatch` entry point. Both sides
//! execute the same IEEE operations in the same order, every multiply-add
//! one fused operation, so their outputs are compared bit for bit before
//! anything is timed; only the clock can tell them apart, and a panel body
//! that stops vectorising (operand blocks read through references instead
//! of by value, see the module docs of `core::kernels`) shows up here and
//! nowhere else. (A body that stops fusing shows up in CI's `vfmadd` count.)
//!
//! One thread, best of `TRIALS` interleaved pairs per mode, all modes
//! summed, on the two shapes where per-run overhead weighs most: 20^4 at
//! `R = 5` (`lowrank4`) and 48^3 at `R = 16` (`serve-socket`). Where
//! `dispatch` reports `avx2` (AVX2 and FMA) the panel walk must be at least
//! `MIN_AVX2` times faster on both; on the baseline ISA (half the registers,
//! so the `4 x 8` block spills, and a libm `fma` call per multiply-add on
//! x86-64) it must merely not lose.

use mttkrp_bench::setup_problem;
use mttkrp_core::kernels::{accumulate_run, dispatch, hadamard_row, isa};
use mttkrp_exec::{native_tile, NativeBackend, DEFAULT_CACHE_WORDS};
use mttkrp_tensor::{DenseTensor, Matrix};
use std::process::ExitCode;
use std::time::Instant;

const TRIALS: usize = 300;
const MIN_AVX2: f64 = 1.3;
const MIN_BASELINE: f64 = 1.0;

/// The whole tensor, one mode-0 run — one Hadamard row, one piece — at a
/// time, in storage order: the walk of a single tile.
fn piece_by_piece(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    let shape = x.shape();
    let (i0, r) = (shape.dim(0), factors[0].cols());
    let mut out = Matrix::zeros(shape.dim(n), r);
    let mut idx = vec![0usize; shape.order()];
    let mut w = vec![0.0f64; r];
    dispatch(
        #[inline(always)]
        || {
            for (run, entries) in x.data().chunks_exact(i0).enumerate() {
                shape.delinearize_into(run * i0, &mut idx);
                hadamard_row(factors, n, &idx, &mut w);
                let row_n = (n != 0).then(|| idx[n]);
                accumulate_run(entries, 0, factors[0], row_n, &w, out.data_mut());
            }
        },
    );
    out
}

fn timed<T>(run: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(run());
    start.elapsed().as_secs_f64()
}

/// Best-of-`TRIALS` seconds of the panel walk and of the piece-by-piece
/// walk, summed over all modes, after checking that they agree to the bit.
fn measure(dims: &[usize], r: usize) -> (f64, f64) {
    let (x, factors) = setup_problem(dims, r, 7);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let backend = NativeBackend::single_threaded();
    // One tile holds the tensor, so the native walk visits whole runs in
    // storage order, as `piece_by_piece` does.
    assert!(native_tile(DEFAULT_CACHE_WORDS, dims.len(), r) >= *dims.iter().max().unwrap());
    let (mut panels, mut pieces) = (0.0, 0.0);
    for n in 0..dims.len() {
        let bits = |m: Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(backend.run(&x, &refs, n)),
            bits(piece_by_piece(&x, &refs, n)),
            "dims {dims:?}, R = {r}, mode {n}: the panel walk moved a bit"
        );
        let (mut best_panels, mut best_pieces) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..TRIALS {
            best_panels = best_panels.min(timed(|| backend.run(&x, &refs, n)));
            best_pieces = best_pieces.min(timed(|| piece_by_piece(&x, &refs, n)));
        }
        println!(
            "  mode {n}: piece by piece {:.3} ms, panels {:.3} ms",
            best_pieces * 1e3,
            best_panels * 1e3
        );
        panels += best_panels;
        pieces += best_pieces;
    }
    (panels, pieces)
}

fn main() -> ExitCode {
    let required = if isa() == "avx2" {
        MIN_AVX2
    } else {
        MIN_BASELINE
    };
    let mut ok = true;
    for (dims, r) in [(&[20, 20, 20, 20][..], 5), (&[48, 48, 48], 16)] {
        let (panels, pieces) = measure(dims, r);
        let ratio = pieces / panels;
        println!(
            "kernel_gate {dims:?} r{r} isa {}: piece by piece {:.3} ms, panels {:.3} ms -> {ratio:.2}x \
             (gate: >= {required}x)",
            isa(),
            pieces * 1e3,
            panels * 1e3
        );
        if ratio < required {
            eprintln!("error: the panel walk is {ratio:.2}x the piece-by-piece walk on {dims:?}, R = {r}; required {required}x");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
