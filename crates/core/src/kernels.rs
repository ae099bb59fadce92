//! The dense in-memory MTTKRP kernel (no I/O simulation).
//!
//! The paper treats the local computation of its parallel algorithms (Line 6
//! of Algorithm 3, Line 7 of Algorithm 4) as the same dense MTTKRP it bounds
//! sequentially, and so does this workspace: every dense MTTKRP outside the
//! [`mttkrp_tensor::mttkrp_reference`] oracle is a walk over contiguous
//! *mode-0 runs* of the tensor, built from one pair of primitives:
//! - [`hadamard_row`]: the Hadamard product `w` of the factor rows of every
//!   mode but `0` and `n`, which is constant along a run;
//! - [`accumulate_run`], handed one *piece* of a run (all of it, or a tile's
//!   or band's share): `B(i_0, :) += X(i) * w` entry by entry for `n == 0`;
//!   for every other mode a dot product, `s = sum_i X(i) * A^(0)(i_0, :)`
//!   summed from zero in run order, then one `B(i_n, :) += s * w`.
//!
//! [`accumulate_flat_range`] streams a contiguous range of the tensor's colex
//! data run by run. [`local_mttkrp`] is that streamer over the whole tensor:
//! what every `dist` rank, every simulated rank program of [`crate::par`],
//! [`mod@crate::cp_als`] and [`crate::multi`] run. `mttkrp_exec::native` walks
//! tiles and bands of runs over the same pair on a thread pool. A walk fixes
//! only the *order* in which pieces reach an output row and where runs are
//! cut into pieces, and so which bits come out; the arithmetic of a piece is
//! here and nowhere else.
//!
//! Both forms take the `R` columns in blocks of compile-time width, and a
//! column's arithmetic never reads another column, so output bits do not
//! depend on the block width, the vector width, or `R`'s divisibility. That
//! is what lets [`dispatch`] compile each walk body twice on x86-64 — once
//! for the baseline ISA and once for AVX2, chosen per walk from what the CPU
//! reports — without forking the results: neither enables FMA and Rust never
//! contracts `a * b + c`, so both perform the same IEEE operations lane by
//! lane.
//!
//! Hoisting `w` out of the run and, for `n != 0`, out of the sum spends about
//! `2 |X| R` flops at every mode ([`crate::arith::streamed_kernel_flops`]) —
//! Eq. (17)'s count without ever forming a Khatri-Rao block — against the
//! `N |X| R` of Definition 2.1's atomic `N`-ary multiply
//! ([`crate::arith::atomic_kernel_flops`]). Every operand of a piece (its
//! entries, their rows of `A^(0)`, `w`, one output row) is inside the tile
//! Eq. (11) already holds resident, so the communication model is unaffected.
//!
//! [`local_mttkrp_twostep`] is a different computation: the variant of
//! Section V-C3 that does form the local Khatri-Rao product explicitly and
//! calls matrix multiplication.

use mttkrp_tensor::{khatri_rao_colex, matricize, DenseTensor, Matrix};

/// Sets `w` to the Hadamard product of the rows `A^(k)(idx[k], :)` over every
/// mode `k` other than `0` and `n` (all ones when there is no such mode).
/// `idx[0]` and `idx[n]` are not read.
#[inline(always)]
pub fn hadamard_row(factors: &[&Matrix], n: usize, idx: &[usize], w: &mut [f64]) {
    w.fill(1.0);
    for (k, f) in factors.iter().enumerate().skip(1) {
        if k == n {
            continue;
        }
        for (wv, &a) in w.iter_mut().zip(f.row(idx[k])) {
            *wv *= a;
        }
    }
}

/// Calls `$block::<W>(c, ..)` once per column block `c..c + W` of `0..$r`:
/// blocks of 32 while they fit, then at most one of 16 and one of 8, then one
/// tail of constant width `1..=7`, so every inner loop of a block has a
/// constant trip count. 32 columns are eight 256-bit accumulators — enough
/// independent chains to cover the add latency of the `n != 0` sum, in half
/// of AVX2's registers; one pass of width 5 over a run beat a 4 + 1 ladder's
/// two passes by 15 % at `R = 5`.
macro_rules! for_column_blocks {
    ($r:expr, $block:ident($($arg:expr),*)) => {{
        let (r, mut c) = ($r, 0);
        while r - c >= 32 {
            $block::<32>(c, $($arg),*);
            c += 32;
        }
        if r - c >= 16 {
            $block::<16>(c, $($arg),*);
            c += 16;
        }
        if r - c >= 8 {
            $block::<8>(c, $($arg),*);
            c += 8;
        }
        match r - c {
            1 => $block::<1>(c, $($arg),*),
            2 => $block::<2>(c, $($arg),*),
            3 => $block::<3>(c, $($arg),*),
            4 => $block::<4>(c, $($arg),*),
            5 => $block::<5>(c, $($arg),*),
            6 => $block::<6>(c, $($arg),*),
            7 => $block::<7>(c, $($arg),*),
            _ => {}
        }
    }};
}

/// Columns `c..c + W` of the `n == 0` form: row `i` of `rows` (the output
/// rows of the run's entries) gains `run[i] * w`.
#[inline(always)]
fn axpy_block<const W: usize>(c: usize, run: &[f64], w: &[f64], rows: &mut [f64]) {
    let wb: [f64; W] = *w[c..].first_chunk().expect("block within the row");
    for (row, &xv) in rows.chunks_exact_mut(w.len()).zip(run) {
        let ob: &mut [f64; W] = row[c..].first_chunk_mut().expect("block within the row");
        for (ov, wv) in ob.iter_mut().zip(wb) {
            *ov += xv * wv;
        }
    }
}

/// Columns `c..c + W` of the `n != 0` form: `orow` gains `s * w`, where
/// `s = sum_i run[i] * a[i]` over the rows `a` of `A^(0)` at the run's
/// entries, summed from zero in run order.
#[inline(always)]
fn dot_block<const W: usize>(c: usize, run: &[f64], a: &[f64], w: &[f64], orow: &mut [f64]) {
    let mut s = [0.0f64; W];
    for (row, &xv) in a.chunks_exact(w.len()).zip(run) {
        let ab: &[f64; W] = row[c..].first_chunk().expect("block within the row");
        for (sv, &av) in s.iter_mut().zip(ab) {
            *sv += xv * av;
        }
    }
    let wb: &[f64; W] = w[c..].first_chunk().expect("block within the row");
    let ob: &mut [f64; W] = orow[c..].first_chunk_mut().expect("block within the row");
    for ((ov, sv), &wv) in ob.iter_mut().zip(s).zip(wb) {
        *ov += sv * wv;
    }
}

/// Accumulates one piece of a contiguous mode-0 run into `out`, a row-major
/// buffer of `w.len()` columns: `run` holds the tensor entries at mode-0
/// indices `i0..i0 + run.len()` of one fibre and `w` is that fibre's
/// [`hadamard_row`]. With `row_n == None` (output mode 0) rows `i0..` of
/// `out` each gain `x * w`; with `Some(i_n)` row `i_n` gains `s * w`, where
/// `s = sum_i x_i * a0[i0 + i]` is summed from zero in run order, `a0` being
/// the mode-0 factor. A run handed over in two pieces therefore rounds its
/// `n != 0` sum differently from the same run handed over whole; mode 0
/// does not care how a run is cut.
#[inline(always)]
pub fn accumulate_run(
    run: &[f64],
    i0: usize,
    a0: &Matrix,
    row_n: Option<usize>,
    w: &[f64],
    out: &mut [f64],
) {
    let r = w.len();
    let piece = i0 * r..(i0 + run.len()) * r;
    match row_n {
        None => {
            let rows = &mut out[piece];
            for_column_blocks!(r, axpy_block(run, w, rows));
        }
        Some(i_n) => {
            let a = &a0.data()[piece];
            let orow = &mut out[i_n * r..(i_n + 1) * r];
            for_column_blocks!(r, dot_block(run, a, w, orow));
        }
    }
}

/// The entry point [`dispatch`] runs walk bodies under on this CPU:
/// `"avx2"` on an x86-64 that reports it, `"baseline"` otherwise.
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// Runs one walk — a body that calls [`accumulate_run`] piece after piece —
/// under the widest vector entry point this CPU reports (see [`isa`]). Pass
/// the body as an `#[inline(always)]` closure over `#[inline(always)]`
/// functions so that its arithmetic is compiled into each entry point; the
/// bits that come out are the same under either (module docs).
#[inline]
pub fn dispatch<T>(walk: impl FnOnce() -> T) -> T {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<T>(walk: impl FnOnce() -> T) -> T {
            walk()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` requires only the AVX2 feature, which the CPU
            // was just observed to have.
            return unsafe { avx2(walk) };
        }
    }
    walk()
}

/// The body of [`accumulate_flat_range`], for either entry point.
#[inline(always)]
fn stream_flat_range(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    let shape = x.shape();
    let i0 = shape.dim(0);
    let data = x.data();
    let mut idx = vec![0usize; shape.order()];
    let mut w = vec![0.0f64; factors[0].cols()];

    let mut lin = lo;
    while lin < hi {
        shape.delinearize_into(lin, &mut idx);
        let run = (i0 - idx[0]).min(hi - lin);
        hadamard_row(factors, n, &idx, &mut w);
        let row_n = (n != 0).then(|| idx[n]);
        accumulate_run(&data[lin..lin + run], idx[0], factors[0], row_n, &w, out);
        lin += run;
    }
}

/// Accumulates the MTTKRP contribution of the flat entry range `[lo, hi)` of
/// the tensor's colex data into `out`, a row-major `I_n x R` buffer, one
/// mode-0 run at a time (a range may start and end mid-run). Operands are
/// taken as checked by [`mttkrp_tensor::validate_operands`].
///
/// Streaming consecutive ranges into one buffer visits the entries in the
/// order of a single pass. For `n == 0` the result is bit-identical however
/// the tensor is cut; for `n != 0` it is when the cuts fall on run
/// boundaries, and a cut inside a run splits that run's sum and agrees to
/// rounding ([`accumulate_run`]).
pub fn accumulate_flat_range(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    dispatch(
        #[inline(always)]
        || stream_flat_range(x, factors, n, lo, hi, out),
    )
}

/// Local MTTKRP, `B(i_n, r) = sum_i X(i) * prod_{k != n} A^(k)(i_k, r)`: one
/// sequential stream through the tensor ([`accumulate_flat_range`] over all
/// of it). `factors[n]` is ignored. Flop counts:
/// [`crate::arith::streamed_kernel_flops`].
pub fn local_mttkrp(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let mut b = Matrix::zeros(x.shape().dim(n), r);
    accumulate_flat_range(x, factors, n, 0, x.num_entries(), b.data_mut());
    b
}

/// Two-step local MTTKRP (paper Section V-C3, Eq. (17)): forms the explicit
/// Khatri-Rao product and multiplies, `B = X_(n) * KRP`. Breaks the atomic
/// `N`-ary multiply assumption but computes the same values with
/// `~2 |X| R` flops instead of `N |X| R`.
pub fn local_mttkrp_twostep(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    mttkrp_tensor::validate_operands(x, factors, n);
    let unfolded = matricize(x, n);
    let others: Vec<&Matrix> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != n)
        .map(|(_, &f)| f)
        .collect();
    let krp = khatri_rao_colex(&others);
    unfolded.matmul(&krp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 20 + k as u64))
            .collect();
        (x, factors)
    }

    fn bits(words: &[f64]) -> Vec<u64> {
        words.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fast_kernel_matches_oracle() {
        let (x, factors) = setup(&[5, 4, 3], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let fast = local_mttkrp(&x, &refs, n);
            let slow = mttkrp_reference(&x, &refs, n);
            assert!(fast.max_abs_diff(&slow) < 1e-11, "mode {n}");
        }
    }

    /// Ranks on both sides of every column-block width, tails included.
    const RANKS: [usize; 8] = [1, 2, 3, 5, 8, 13, 16, 33];

    #[test]
    fn a_run_piece_is_one_dot_product_scaled_once() {
        // The run contract, computed naively column by column: no blocks, no
        // vectors. `n != 0` sums `x_i * a0_i` from zero in run order and
        // applies `w` once; `n == 0` adds `x_i * w` to each entry's own row.
        let (i0, len, i_n) = (2, 7, 4);
        for r in RANKS {
            let run = Matrix::random(1, len, r as u64);
            let a0 = Matrix::random(i0 + len + 1, r, 40 + r as u64);
            let w = Matrix::random(1, r, 80 + r as u64);
            let before = Matrix::random(i0 + len + 1, r, 120 + r as u64);

            let mut want = before.clone();
            for c in 0..r {
                let mut s = 0.0;
                for (i, &xv) in (i0..).zip(run.data()) {
                    s += xv * a0[(i, c)];
                }
                want[(i_n, c)] += s * w.data()[c];
            }
            let mut got = before.clone();
            accumulate_run(run.data(), i0, &a0, Some(i_n), w.data(), got.data_mut());
            assert_eq!(bits(got.data()), bits(want.data()), "n != 0, R = {r}");

            let mut want = before.clone();
            for (i, &xv) in (i0..).zip(run.data()) {
                for c in 0..r {
                    want[(i, c)] += xv * w.data()[c];
                }
            }
            let mut got = before.clone();
            accumulate_run(run.data(), i0, &a0, None, w.data(), got.data_mut());
            assert_eq!(bits(got.data()), bits(want.data()), "n == 0, R = {r}");
        }
    }

    #[test]
    fn flat_stream_bits_do_not_depend_on_the_entry_point() {
        // Width independence for the flat streamer: the body compiled for
        // the baseline ISA and the one `dispatch` picks (AVX2 where the CPU
        // has it; a release build is what makes them differ) agree to the
        // bit, on ranges cut mid-run.
        for dims in [&[9, 7][..], &[6, 5, 4], &[5, 3, 4, 3]] {
            for r in RANKS {
                let (x, factors) = setup(dims, r, 7 + r as u64);
                let refs: Vec<&Matrix> = factors.iter().collect();
                let entries = x.num_entries();
                let cuts = [0, 1, entries / 3 + 1, entries / 2, entries];
                for (n, &i_n) in dims.iter().enumerate() {
                    let mut plain = vec![0.0; i_n * r];
                    let mut dispatched = vec![0.0; i_n * r];
                    for cut in cuts.windows(2) {
                        stream_flat_range(&x, &refs, n, cut[0], cut[1], &mut plain);
                        accumulate_flat_range(&x, &refs, n, cut[0], cut[1], &mut dispatched);
                    }
                    assert_eq!(
                        bits(&dispatched),
                        bits(&plain),
                        "dims {dims:?}, R = {r}, mode {n}, isa {}",
                        isa()
                    );
                }
            }
        }
    }

    #[test]
    fn twostep_matches_oracle() {
        let (x, factors) = setup(&[4, 3, 5, 2], 2, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..4 {
            let two = local_mttkrp_twostep(&x, &refs, n);
            let slow = mttkrp_reference(&x, &refs, n);
            assert!(two.max_abs_diff(&slow) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn order2_kernels_agree() {
        let (x, factors) = setup(&[7, 6], 4, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..2 {
            let a = local_mttkrp(&x, &refs, n);
            let b = local_mttkrp_twostep(&x, &refs, n);
            assert!(a.max_abs_diff(&b) < 1e-11);
        }
    }
}
