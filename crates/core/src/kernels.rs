//! The dense in-memory MTTKRP kernel (no I/O simulation).
//!
//! The paper treats the local computation of its parallel algorithms (Line 6
//! of Algorithm 3, Line 7 of Algorithm 4) as the same dense MTTKRP it bounds
//! sequentially, and so does this workspace: every dense MTTKRP outside the
//! [`mttkrp_tensor::mttkrp_reference`] oracle is a walk over contiguous
//! *mode-0 runs* of the tensor, and the unit it hands over is the *panel*:
//! the pieces (all of a run, or a tile's share of it) of `p` runs
//! at consecutive mode-1 indices, `I_0` entries apart in storage. A panel is
//! built from one pair of primitives:
//! - [`hadamard_block`]: per piece, the Hadamard product `w` of the factor
//!   rows of every mode but `0` and `n`, which is constant along a run — the
//!   explicit Khatri-Rao rows of Section V-C3, `p x R` words at a time: rows
//!   `A^(1)(i_1.., :)` copied, then one whole-block multiply per remaining
//!   factor row (one shared row when `n == 1`);
//! - [`accumulate_panel`]: per piece, `B(i_0, :) += X(i) * w` entry by entry
//!   for `n == 0`; for every other mode a dot product, `s = sum_i X(i) *
//!   A^(0)(i_0, :)` summed from zero in run order, then one
//!   `B(i_n, :) += s * w`. Pieces reach an output row in piece order.
//!
//! [`hadamard_row`] and [`accumulate_run`] are the same pair for a panel of
//! one piece. One walk hands panels to the pair, the tiled box walk
//! [`walk_tiles`]: it cuts a box `[lo, hi)` of a [`TensorBlock`] — a
//! read-only view of one block of a tensor, in place — into tiles of edge
//! `tile`, and walks each tile one panel per mode-1 fibre. [`accumulate_box`]
//! runs it under [`dispatch`], and every dense MTTKRP is a call of it:
//! - [`block_mttkrp`] walks a whole block as one tile (every Algorithm 3 and
//!   matmul-baseline rank of `dist` and of [`crate::par`]: the stationary
//!   tensor is read where it lies, never copied), and [`local_mttkrp`] a
//!   whole tensor (what [`mod@crate::cp_als`], [`crate::multi`] and every
//!   Algorithm 4 rank run);
//! - `mttkrp_exec::native` walks one slab per call, at the plan's tile.
//!
//! A walk fixes only the *order* in which pieces reach an output row and
//! where runs are cut into pieces, and so which bits come out; the arithmetic
//! of a piece is here and nowhere else.
//!
//! Both forms take `K = 4` pieces and a block of compile-time width `W` of
//! the `R` columns at a time (the remainder of a panel goes through the same
//! bodies at `K = 1`). For `n != 0` the `K` sums share every load of `A^(0)`
//! and run as `K * W / 4` independent vector chains; for `n == 0` an output
//! row block is loaded once, gains its `K` products in piece order, and is
//! stored once. A column's arithmetic never reads another column and a
//! piece's never another piece's, so output bits do not depend on `K`, the
//! block width, the vector width, `R`'s divisibility, or how a panel's
//! Hadamard rows were batched.
//!
//! Every multiply-add is one fused operation, `f64::mul_add`, rounded once:
//! the `n == 0` update `o = x.mul_add(w, o)`, the `n != 0` sum
//! `s = x.mul_add(a, s)` and its scale `o = s.mul_add(w, o)` (the Hadamard
//! block only multiplies). IEEE 754 defines that operation exactly, so it has
//! the same bits wherever it runs, and that is what lets [`dispatch`] compile
//! the walk twice on x86-64 — once for the baseline ISA and once for AVX2 +
//! FMA, chosen per call from what the CPU reports — without forking the
//! results: the AVX2 body issues one `vfmadd` per multiply-add, and the
//! baseline body, where x86-64 has no fused instruction, calls libm's
//! correctly rounded `fma` for each one. The price is the baseline body's
//! speed, 15-20x slower than when it was unfused ([`walk_tiles`] run
//! plainly at the native tile, all modes, one thread of a Sapphire Rapids
//! Xeon: 56^3 at `R = 32` 2.9 -> 59 ms, 20^4 at `R = 5` 0.79 -> 11.9 ms),
//! paid only on an x86-64 without AVX2 + FMA (desktop and server parts
//! before 2013, some low-power ones after) and in debug builds. Where the
//! baseline ISA has the instruction (aarch64) both bodies issue it. An
//! unfused baseline would be fast everywhere and let the CPU decide bits;
//! this way the CPU decides none.
//!
//! Inside a `K x W` body every operand block is **copied into a by-value
//! `[f64; W]`** before the arithmetic and written back after it. What LLVM
//! makes of the same loops over `&[f64; W]` references depends on where they
//! are inlined: ISSUE 24's prototype compiled to vector code as a free
//! function and to fully scalar code inside the closure [`dispatch`] runs
//! (8.0 against 1.8 ns per entry on 56^3 at `R = 32`), and in this file
//! updating the `n == 0` output block through its reference costs mode 0 of
//! 48^3 at `R = 16` 0.109 -> 0.152 ms. Likewise `std::array::from_fn` stays an
//! out-of-line call per block under `dispatch` (20^4 at `R = 5`, all modes:
//! 0.70 against 0.53 ms), so the small arrays are filled by loops. No test
//! notices either — every bit is the same — only a clock does, which is what
//! `mttkrp-bench`'s `kernel_gate` is for.
//!
//! Hoisting `w` out of the run and, for `n != 0`, out of the sum spends about
//! `2 |X| R` flops at every mode ([`crate::arith::streamed_kernel_flops`]) —
//! Eq. (17)'s count with Khatri-Rao rows formed a panel at a time, never a
//! whole block of the product — against the `N |X| R` of Definition 2.1's
//! atomic `N`-ary multiply ([`crate::arith::atomic_kernel_flops`]). Every
//! operand of a panel (its entries, their rows of `A^(0)`, its at most
//! `tile x R` Hadamard words, its output rows) is inside the tile Eq. (11)
//! already holds resident, so the communication model is unaffected.

use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::fmt;

/// Pieces per register block of a panel: the `n != 0` form runs `K * W / 4`
/// independent 256-bit sums against one load of each `A^(0)` row block, the
/// `n == 0` form loads and stores each output row block once per `K` pieces.
/// `4 x 8` columns is eight accumulators — half of AVX2's registers, the
/// other half holding the shared operand and the broadcast entries.
const K: usize = 4;

/// `$block::<K.., W>(c, args..)`: one column block, for `for_column_blocks`.
macro_rules! column_block {
    ($block:ident [$($k:tt),*] ($($arg:expr),*), $w:literal, $c:expr) => {
        $block::<$($k,)* $w>($c, $($arg),*)
    };
}

/// Calls `$block::<K.., W>(c, args..)` once per column block `c..c + W` of
/// `0..$r`: blocks of the ladder's first width while they fit, then at most
/// one of each further width, then one tail of constant width `1..=7` (below
/// the ladder's last width), so every inner loop of a block has a constant
/// trip count. One piece at a time takes `[32, 16, 8]`: 32 columns are eight
/// 256-bit accumulators, enough chains to cover the FMA latency of the
/// `n != 0` sum, and one pass of width 5 over a run beat a 4 + 1 ladder's two
/// passes by 15 % at `R = 5` (`[16, 8]` lost 10 % one piece at a time on
/// 56^3 at `R = 32`). `K` pieces at a time take `[8]`: the same eight
/// accumulators spread over the pieces, and again one pass of the tail's
/// width (an `[8, 4]` ladder's 4 + 1 lost 27 % at `R = 5`, 20 % at `R = 13`;
/// `[12, 8]`'s twelve chains gained 8 % at `R = 32` but lost 7-10 % at
/// `R = 16`, where 12 + 4 leaves a tail of four chains).
macro_rules! for_column_blocks {
    ($r:expr, [$wide:literal $(, $w:literal)*], $block:ident $k:tt $args:tt) => {{
        let (r, mut c) = ($r, 0);
        while r - c >= $wide {
            column_block!($block $k $args, $wide, c);
            c += $wide;
        }
        $(if r - c >= $w {
            column_block!($block $k $args, $w, c);
            c += $w;
        })*
        match r - c {
            1 => column_block!($block $k $args, 1, c),
            2 => column_block!($block $k $args, 2, c),
            3 => column_block!($block $k $args, 3, c),
            4 => column_block!($block $k $args, 4, c),
            5 => column_block!($block $k $args, 5, c),
            6 => column_block!($block $k $args, 6, c),
            7 => column_block!($block $k $args, 7, c),
            _ => {}
        }
    }};
}

/// Columns `c..c + W` of every row of `block` are multiplied by those of
/// `row`.
#[inline(always)]
fn scale_block<const W: usize>(c: usize, row: &[f64], block: &mut [f64]) {
    let ab: [f64; W] = *row[c..].first_chunk().expect("block within the row");
    for brow in block.chunks_exact_mut(row.len()) {
        let wb: &mut [f64; W] = brow[c..].first_chunk_mut().expect("block within the row");
        let mut w = *wb;
        for (wv, av) in w.iter_mut().zip(ab) {
            *wv *= av;
        }
        *wb = w;
    }
}

/// Builds the Hadamard block of the panel of `pieces` runs whose first is
/// at `idx` (the others follow along mode 1): row `j` of `block` becomes the
/// Hadamard product of the rows `A^(k)(idx[k], :)` over every mode `k` other
/// than `0` and `n`, with `idx[1] + j` in place of `idx[1]`. At `n == 1` no
/// factor depends on `j` and only row 0 is built, shared by the panel (all
/// ones when there is no factor left). `idx[0]` and `idx[n]` are not read.
///
/// The lowest mode's rows are copied and every further factor multiplies the
/// whole block, in ascending mode order — bit for bit the product into a row
/// of ones, since `1.0 * a` is `a`.
#[inline(always)]
pub fn hadamard_block(
    factors: &[&Matrix],
    n: usize,
    idx: &[usize],
    pieces: usize,
    block: &mut [f64],
) {
    let r = factors[0].cols();
    let mut rest = (2..factors.len()).filter(|&k| k != n);
    let rows = if n == 1 { 1 } else { pieces };
    let block = &mut block[..rows * r];
    if n != 1 {
        block.copy_from_slice(&factors[1].data()[idx[1] * r..][..rows * r]);
    } else if let Some(k) = rest.next() {
        block.copy_from_slice(factors[k].row(idx[k]));
    } else {
        block.fill(1.0);
    }
    for k in rest {
        let row = factors[k].row(idx[k]);
        for_column_blocks!(r, [32, 16, 8], scale_block[](row, block));
    }
}

/// Sets `w` to the Hadamard product of the rows `A^(k)(idx[k], :)` over every
/// mode `k` other than `0` and `n` (all ones when there is no such mode): the
/// [`hadamard_block`] of a single run. `idx[0]` and `idx[n]` are not read.
#[inline(always)]
pub fn hadamard_row(factors: &[&Matrix], n: usize, idx: &[usize], w: &mut [f64]) {
    hadamard_block(factors, n, idx, 1, w);
}

/// `K` consecutive pieces of a panel as the block bodies read them: piece
/// `k` is `x[k * stride..][..len]` and its Hadamard row `w[k * w_stride..]`
/// (`w_stride` is 0 when the panel shares one row). Sliced off the panel once
/// per group: indexing back through the [`Panel`] in every block body cost
/// 5 % on 20^4 at `R = 5`.
#[derive(Clone, Copy)]
struct Pieces<'a> {
    x: &'a [f64],
    stride: usize,
    len: usize,
    w: &'a [f64],
    w_stride: usize,
    r: usize,
}

impl<'a> Pieces<'a> {
    /// The entries of each piece, every slice of length `len`.
    #[inline(always)]
    fn entries<const K: usize>(&self) -> [&'a [f64]; K] {
        let mut x: [&[f64]; K] = [&[]; K];
        for (k, piece) in x.iter_mut().enumerate() {
            *piece = &self.x[k * self.stride..][..self.len];
        }
        x
    }

    /// Columns `c..c + W` of each piece's Hadamard row, by value.
    #[inline(always)]
    fn hadamard<const K: usize, const W: usize>(&self, c: usize) -> [[f64; W]; K] {
        let mut w = [[0.0f64; W]; K];
        for (k, row) in w.iter_mut().enumerate() {
            *row = *self.w[k * self.w_stride + c..]
                .first_chunk()
                .expect("block within the row");
        }
        w
    }
}

/// Columns `c..c + W` of the `n == 0` form for `K` pieces: row `i` of `rows`
/// (the output rows of the pieces' entries) is loaded once, gains
/// `x_k[i] * w_k` for `k` in piece order, and is stored once.
#[inline(always)]
fn axpy_block<const K: usize, const W: usize>(c: usize, p: Pieces, rows: &mut [f64]) {
    let x: [&[f64]; K] = p.entries();
    let wb: [[f64; W]; K] = p.hadamard(c);
    for (i, row) in rows.chunks_exact_mut(p.r).enumerate().take(p.len) {
        let ob: &mut [f64; W] = row[c..].first_chunk_mut().expect("block within the row");
        let mut o = *ob;
        for k in 0..K {
            let xv = x[k][i];
            for (ov, wv) in o.iter_mut().zip(wb[k]) {
                *ov = xv.mul_add(wv, *ov);
            }
        }
        *ob = o;
    }
}

/// Columns `c..c + W` of the `n != 0` form for `K` pieces: `s_k = sum_i
/// x_k[i] * a[i]` over the rows `a` of `A^(0)` at the pieces' entries, each
/// summed from zero in run order and all `K` sharing every load of `a`; then,
/// in piece order, output row `row + k * row_stride` of `out` gains
/// `s_k * w_k`.
#[inline(always)]
fn dot_block<const K: usize, const W: usize>(
    c: usize,
    p: Pieces,
    a: &[f64],
    out: &mut [f64],
    row: usize,
    row_stride: usize,
) {
    let x: [&[f64]; K] = p.entries();
    let mut s = [[0.0f64; W]; K];
    for (i, arow) in a.chunks_exact(p.r).enumerate().take(p.len) {
        let ab: [f64; W] = *arow[c..].first_chunk().expect("block within the row");
        for k in 0..K {
            let xv = x[k][i];
            for (sv, av) in s[k].iter_mut().zip(ab) {
                *sv = xv.mul_add(av, *sv);
            }
        }
    }
    let wb: [[f64; W]; K] = p.hadamard(c);
    for k in 0..K {
        let ob: &mut [f64; W] = out[(row + k * row_stride) * p.r + c..]
            .first_chunk_mut()
            .expect("block within the row");
        let mut o = *ob;
        for ((ov, sv), wv) in o.iter_mut().zip(s[k]).zip(wb[k]) {
            *ov = sv.mul_add(wv, *ov);
        }
        *ob = o;
    }
}

/// One panel of a tensor: `pieces` run pieces of `len` entries each, all at
/// mode-0 indices `i0..i0 + len`, piece `j` being `entries[j * stride..][..len]`
/// — with `stride = I_0`, the runs of consecutive mode-1 indices.
#[derive(Clone, Copy, Debug)]
pub struct Panel<'a> {
    /// The tensor entries from the first piece's first on; what follows the
    /// last piece is not read.
    pub entries: &'a [f64],
    /// Distance between the first entries of consecutive pieces.
    pub stride: usize,
    /// Number of pieces.
    pub pieces: usize,
    /// Entries per piece.
    pub len: usize,
    /// Mode-0 index of each piece's first entry.
    pub i0: usize,
}

/// Accumulates one panel into `out`, a row-major buffer of `R` columns, given
/// its [`hadamard_block`] for output mode `n` and the mode-0 factor `a0`.
/// Every piece is a run piece under the contract of [`accumulate_run`], and
/// pieces reach an output row in piece order:
/// - `n == 0`: rows `i0..i0 + len` of `out` each gain `x_j * w_j` for
///   `j = 0, 1, ..` (`row_n` is not read);
/// - `n == 1`: row `row_n + j` gains `s_j * w`, `w` the block's one row;
/// - `n >= 2`: row `row_n` gains `s_j * w_j` for `j = 0, 1, ..`.
///
/// Pieces go `K = 4` to a register block and the remainder one at a time;
/// neither that nor the column blocking decides a bit.
#[inline(always)]
pub fn accumulate_panel(
    panel: &Panel,
    a0: &Matrix,
    n: usize,
    row_n: usize,
    block: &[f64],
    out: &mut [f64],
) {
    let r = a0.cols();
    let at = panel.i0 * r..(panel.i0 + panel.len) * r;
    let (w_stride, row_stride) = match n {
        1 => (0, 1),
        _ => (r, 0),
    };
    let group = |j: usize| Pieces {
        x: &panel.entries[j * panel.stride..],
        stride: panel.stride,
        len: panel.len,
        w: &block[j * w_stride..],
        w_stride,
        r,
    };
    let mut j = 0;
    if n == 0 {
        let rows = &mut out[at];
        while panel.pieces - j >= K {
            for_column_blocks!(r, [8], axpy_block[K](group(j), rows));
            j += K;
        }
        while j < panel.pieces {
            for_column_blocks!(r, [32, 16, 8], axpy_block[1](group(j), rows));
            j += 1;
        }
    } else {
        let a = &a0.data()[at];
        while panel.pieces - j >= K {
            let row = row_n + j * row_stride;
            for_column_blocks!(r, [8], dot_block[K](group(j), a, out, row, row_stride));
            j += K;
        }
        while j < panel.pieces {
            let row = row_n + j * row_stride;
            for_column_blocks!(r, [32, 16, 8], dot_block[1](group(j), a, out, row, 0));
            j += 1;
        }
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
///
/// This is a panel of one piece ([`accumulate_panel`]); the walks hand over
/// whole panels.
#[inline(always)]
pub fn accumulate_run(
    run: &[f64],
    i0: usize,
    a0: &Matrix,
    row_n: Option<usize>,
    w: &[f64],
    out: &mut [f64],
) {
    let panel = Panel {
        entries: run,
        stride: 0,
        pieces: 1,
        len: run.len(),
        i0,
    };
    // Any `n >= 2` reads `w` as the piece's own row and adds to `row_n`.
    let (n, row_n) = row_n.map_or((0, 0), |i_n| (2, i_n));
    accumulate_panel(&panel, a0, n, row_n, w, out);
}

/// Whether this CPU reports both features the `avx2` entry point is compiled
/// for: the one question [`isa`] and [`dispatch`] ask, so they cannot
/// disagree.
#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// The entry point [`dispatch`] runs walk bodies under on this CPU:
/// `"avx2"` on an x86-64 that reports AVX2 and FMA, `"baseline"` otherwise.
/// The name says where the time goes, never which bits come out.
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        return "avx2";
    }
    "baseline"
}

/// Runs one walk — a body that calls [`accumulate_panel`] panel after panel —
/// under the widest vector entry point this CPU reports (see [`isa`]): on
/// x86-64 an `avx2,fma` body when both are reported, so every `mul_add` is
/// one `vfmadd`. Pass the body as an `#[inline(always)]` closure over
/// `#[inline(always)]` functions so that its arithmetic is compiled into each
/// entry point; the bits that come out are the same under either (module
/// docs).
#[inline]
pub fn dispatch<T>(walk: impl FnOnce() -> T) -> T {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma")]
        fn avx2<T>(walk: impl FnOnce() -> T) -> T {
            walk()
        }
        if has_avx2_fma() {
            // SAFETY: `avx2` requires only the AVX2 and FMA features, which
            // the CPU was just observed to have.
            return unsafe { avx2(walk) };
        }
    }
    walk()
}

/// A read-only view of one box of a [`DenseTensor`], in place: its entries
/// are read where they lie, through the tensor's strides, and its
/// coordinates are the box's own (the box's first entry is the origin). The
/// view reaches nothing outside the box: it holds the tensor's storage from
/// the box's first entry to its last, and only [`walk_tiles`] and
/// [`TensorBlock::copy_entries`] read that, run piece by run piece.
#[derive(Clone)]
pub struct TensorBlock<'a> {
    /// The tensor's storage from the box's first entry through its last.
    span: &'a [f64],
    /// The box's extents.
    shape: Shape,
    /// The tensor's strides.
    strides: Vec<usize>,
}

impl fmt::Debug for TensorBlock<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TensorBlock({}, strides {:?})", self.shape, self.strides)
    }
}

impl<'a> TensorBlock<'a> {
    /// The box of `x` with mode-`k` indices in `ranges[k] = (lo, hi)`
    /// (half-open), the ranges [`DenseTensor::subtensor`] takes.
    pub fn new(x: &'a DenseTensor, ranges: &[(usize, usize)]) -> Self {
        let shape = x.shape();
        assert_eq!(ranges.len(), shape.order(), "range arity mismatch");
        for (k, &(lo, hi)) in ranges.iter().enumerate() {
            assert!(
                lo < hi && hi <= shape.dim(k),
                "bad range {lo}..{hi} for mode {k} of size {}",
                shape.dim(k)
            );
        }
        let strides = shape.strides();
        let corner = |at: fn((usize, usize)) -> usize| -> usize {
            ranges.iter().zip(&strides).map(|(&r, s)| at(r) * s).sum()
        };
        let (first, last) = (corner(|(lo, _)| lo), corner(|(_, hi)| hi - 1));
        let extents: Vec<usize> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        TensorBlock {
            span: &x.data()[first..=last],
            shape: Shape::new(&extents),
            strides,
        }
    }

    /// All of `x`.
    pub fn whole(x: &'a DenseTensor) -> Self {
        TensorBlock {
            span: x.data(),
            shape: x.shape().clone(),
            strides: x.shape().strides(),
        }
    }

    /// The box's extents.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Where the entry at box index `idx` lies in `span`.
    #[inline(always)]
    fn offset(&self, idx: &[usize]) -> usize {
        idx.iter().zip(&self.strides).map(|(i, s)| i * s).sum()
    }

    /// A copy of the entries at positions `[lo, hi)` of the box's own colex
    /// order — of what [`DenseTensor::subtensor`] would hold — copied a run
    /// piece at a time.
    pub fn copy_entries(&self, lo: usize, hi: usize) -> Vec<f64> {
        let run = self.shape.dim(0);
        let mut out = Vec::with_capacity(hi - lo);
        let mut idx = vec![0; self.shape.order()];
        let mut lin = lo;
        while lin < hi {
            self.shape.delinearize_into(lin, &mut idx);
            let take = (run - idx[0]).min(hi - lin);
            let at = self.offset(&idx);
            out.extend_from_slice(&self.span[at..at + take]);
            lin += take;
        }
        out
    }
}

/// The tiled box walk: accumulates the MTTKRP contribution of the box
/// `bounds[k] = (lo_k, hi_k)` of `x` into `out`, a row-major buffer of `R`
/// columns, reading the entries in place. Indices are `x`'s own: factor rows
/// are indexed from its origin, and so are output rows, less `out_row0` (which
/// must be 0 when `n == 0`: those rows are the entries' own mode-0 indices).
///
/// The box is cut into tiles at every `tile`-th index from its corner along
/// every mode, and the tiles are walked in colex order (mode 0 fastest). A
/// tile is one panel per mode-1 fibre — its pieces `[lo_0, hi_0)` of the runs
/// at mode-1 indices `lo_1..hi_1` — the fibres in the order an odometer over
/// modes `2..N` visits them. A `tile` no smaller than any extent walks the
/// box as one tile; its panels are then exactly those of the box's copy
/// ([`DenseTensor::subtensor`]) walked whole — the same pieces, lengths and
/// order, so the same bits. Smaller tiles re-cut runs and reorder what
/// reaches an output row, and agree to rounding.
///
/// Scratch is allocated once per call, never per tile or panel. Inlined into
/// its caller: [`accumulate_box`] runs it under [`dispatch`], and a test may
/// run it plainly to compare the two entry points.
#[inline(always)]
pub fn walk_tiles(
    x: &TensorBlock,
    factors: &[&Matrix],
    n: usize,
    bounds: &[(usize, usize)],
    tile: usize,
    out_row0: usize,
    out: &mut [f64],
) {
    let order = bounds.len();
    let tile = tile.max(1);
    let ntiles: Vec<usize> = bounds
        .iter()
        .map(|&(lo, hi)| (hi - lo).div_ceil(tile))
        .collect();
    let mut tb = bounds.to_vec();
    let mut idx = vec![0; order];
    let mut block = vec![0.0f64; tile.min(bounds[1].1 - bounds[1].0) * factors[0].cols()];
    for t in 0..ntiles.iter().product() {
        // Tile `t`'s bounds `tb` (mode 0 fastest), and the odometer at its
        // corner.
        let mut rest = t;
        for (((b, i), &(lo, hi)), &count) in tb.iter_mut().zip(&mut idx).zip(bounds).zip(&ntiles) {
            let at = lo + rest % count * tile;
            rest /= count;
            *b = (at, at + tile.min(hi - at));
            *i = at;
        }
        let ((lo0, hi0), (lo1, hi1)) = (tb[0], tb[1]);
        loop {
            hadamard_block(factors, n, &idx, hi1 - lo1, &mut block);
            let panel = Panel {
                entries: &x.span[x.offset(&idx)..],
                stride: x.strides[1],
                pieces: hi1 - lo1,
                len: hi0 - lo0,
                i0: lo0,
            };
            accumulate_panel(&panel, factors[0], n, idx[n] - out_row0, &block, out);

            // Odometer over modes 2..N within the tile.
            let mut k = 2;
            while k < order {
                idx[k] += 1;
                if idx[k] < tb[k].1 {
                    break;
                }
                idx[k] = tb[k].0;
                k += 1;
            }
            if k >= order {
                break;
            }
        }
    }
}

/// The one dense MTTKRP walk: [`walk_tiles`] over the box `bounds` of `x`,
/// under [`dispatch`]. Operands are taken as checked by
/// [`mttkrp_tensor::validate_factors`].
pub fn accumulate_box(
    x: &TensorBlock,
    factors: &[&Matrix],
    n: usize,
    bounds: &[(usize, usize)],
    tile: usize,
    out_row0: usize,
    out: &mut [f64],
) {
    dispatch(
        #[inline(always)]
        || walk_tiles(x, factors, n, bounds, tile, out_row0, out),
    )
}

/// Local MTTKRP, `B(i_n, r) = sum_i X(i) * prod_{k != n} A^(k)(i_k, r)`,
/// over the block `x` in place: the box walk over all of it, as one tile.
/// Factor `k` has one row per mode-`k` index of the block, and `factors[n]`
/// is ignored. Flop counts: [`crate::arith::streamed_kernel_flops`].
pub fn block_mttkrp(x: &TensorBlock, factors: &[&Matrix], n: usize) -> Matrix {
    let r = mttkrp_tensor::validate_factors(x.shape(), factors, n);
    let dims = x.shape().dims();
    let bounds: Vec<(usize, usize)> = dims.iter().map(|&d| (0, d)).collect();
    let mut b = Matrix::zeros(dims[n], r);
    accumulate_box(x, factors, n, &bounds, usize::MAX, 0, b.data_mut());
    b
}

/// Local MTTKRP over the whole tensor: [`block_mttkrp`] of all of it, one
/// sequential stream through the entries.
pub fn local_mttkrp(x: &DenseTensor, factors: &[&Matrix], n: usize) -> Matrix {
    block_mttkrp(&TensorBlock::whole(x), factors, n)
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
        // Every multiply-add is one fused operation.
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
                    s = xv.mul_add(a0[(i, c)], s);
                }
                want[(i_n, c)] = s.mul_add(w.data()[c], want[(i_n, c)]);
            }
            let mut got = before.clone();
            accumulate_run(run.data(), i0, &a0, Some(i_n), w.data(), got.data_mut());
            assert_eq!(bits(got.data()), bits(want.data()), "n != 0, R = {r}");

            let mut want = before.clone();
            for (i, &xv) in (i0..).zip(run.data()) {
                for c in 0..r {
                    want[(i, c)] = xv.mul_add(w.data()[c], want[(i, c)]);
                }
            }
            let mut got = before.clone();
            accumulate_run(run.data(), i0, &a0, None, w.data(), got.data_mut());
            assert_eq!(bits(got.data()), bits(want.data()), "n == 0, R = {r}");
        }
    }

    #[test]
    fn each_multiply_add_rounds_once() {
        // `x * a` with `x = 1 + 2^-30`, `a = 1 - 2^-30` is `1 - 2^-60`
        // exactly. Fused against `-1` that leaves `-2^-60`; rounded first it
        // is `1`, which leaves `0`. Each case puts the pair at one site of the
        // kernel, and only there, so unfusing any one site fails its case.
        let (x, a, tiny) = (1.0 + 2f64.powi(-30), 1.0 - 2f64.powi(-30), -2f64.powi(-60));
        for r in RANKS {
            let row = |v: f64| Matrix::from_fn(1, r, |_, _| v);
            let run_on = |run: &[f64], a0: &Matrix, row_n, w: f64, start: f64| {
                let mut out = Matrix::from_fn(a0.rows(), r, |_, _| start);
                accumulate_run(run, 0, a0, row_n, row(w).data(), out.data_mut());
                out.row(0).to_vec()
            };
            // `n == 0`: the entry's own row, at -1, gains `x * w`.
            let got = run_on(&[x], &row(0.0), None, a, -1.0);
            assert_eq!(bits(&got), bits(&vec![tiny; r]), "n == 0 axpy, R = {r}");
            // `n != 0`, the sum: `1 * -1`, then `x * a` on top of it.
            let a0 = Matrix::from_fn(2, r, |i, _| [-1.0, a][i]);
            let got = run_on(&[1.0, x], &a0, Some(0), 1.0, 0.0);
            assert_eq!(bits(&got), bits(&vec![tiny; r]), "n != 0 sum, R = {r}");
            // `n != 0`, the scale: `s = x` exactly, then a row at -1 gains
            // `s * w`.
            let got = run_on(&[x], &row(1.0), Some(0), a, -1.0);
            assert_eq!(bits(&got), bits(&vec![tiny; r]), "n != 0 scale, R = {r}");
        }
    }

    #[test]
    fn isa_names_avx2_exactly_when_avx2_and_fma_are_reported() {
        #[cfg(target_arch = "x86_64")]
        let both = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let both = false;
        assert_eq!(isa() == "avx2", both, "isa {}", isa());
    }
}
