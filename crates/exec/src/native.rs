//! The native backend: cache-tiled dense MTTKRP on a rayon thread pool.
//!
//! Parallel decomposition: the tensor is split into *slabs*, ranges of
//! consecutive indices of one mode, each a box of the tensor read in place.
//! [`native_grain`] picks the mode: the last mode when it has at least
//! `2 x threads` indices, else the highest mode that has, else the largest
//! mode — cut into `4 x threads` slabs (fewer when the mode is shorter). A
//! pool of one worker takes the whole tensor as a single slab, straight into
//! the output. When the output mode is the split mode (other than mode 0),
//! slabs map to disjoint output row chunks ([`Matrix::par_row_chunks_mut`])
//! and threads write their rows directly; otherwise each rayon fold keeps a
//! per-thread accumulator matrix and the partials are summed in the reduce
//! step — no locks, no `unsafe`.
//!
//! Cache tiling: within a slab, the iteration space is walked in `b`-edge
//! tensor blocks in the spirit of Algorithm 2 / `seq::choose_block_size`,
//! with the Eq. (11) residency constraint made rank-aware
//! (`b^N + N*b*R <= M`, since a factor sub-block is `b x R` words here).
//! Each slab goes to `core::kernels::accumulate_box`, the one walk every
//! dense MTTKRP runs (every dist rank walks its stationary block with it as
//! one tile): the tile odometer over the slab, handing the kernel a *panel*
//! at a time — a tile's share of the runs of one mode-1 fibre, with one
//! Hadamard block (at most `b x R` words, inside the budget above) built per
//! panel. This module only chooses the slabs; it owns no walk and no
//! arithmetic.

use crate::backend::{Backend, ExecCost, ExecReport};
use crate::machine::DEFAULT_CACHE_WORDS;
use crate::plan::Plan;
use mttkrp_core::kernels::{accumulate_box, TensorBlock};
use mttkrp_core::seq;
use mttkrp_tensor::{DenseTensor, Matrix};
use rayon::prelude::*;
use std::time::Instant;

/// The largest block edge `b >= 1` with `b^order + order*b*rank <= m`
/// ([`seq::choose_block_size_with_rank`], the rank-aware analogue of
/// Eq. (11)): each of the `order` factor sub-blocks held in cache is
/// `b x rank` words. Unlike the core helper this never panics — a cache
/// too small for any tile just degrades to `b = 1`.
pub fn native_tile(m: usize, order: usize, rank: usize) -> usize {
    match order.checked_mul(rank).and_then(|f| f.checked_add(1)) {
        Some(min_words) if m >= min_words => seq::choose_block_size_with_rank(m, order, rank),
        _ => 1,
    }
}

/// How [`mttkrp_native`] splits work across the pool: `count` slabs of
/// `depth` consecutive mode-`mode` indices each (the last may be shorter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParGrain {
    /// The mode the slabs cut.
    pub mode: usize,
    /// Mode-`mode` indices per slab.
    pub depth: usize,
    /// Number of slabs handed to the pool.
    pub count: usize,
}

/// Chooses the parallel decomposition of a `dims` tensor on `threads`
/// workers (module docs). One thread takes the whole tensor as one slab:
/// there is no load to balance, and [`mttkrp_native`] accumulates a lone slab
/// straight into the output. More threads take `4 x threads` slabs for load
/// balance, along the last mode when it can feed the pool (at least
/// `2 x threads` indices), else along the highest mode that can, else along
/// the largest.
pub fn native_grain(dims: &[usize], threads: usize) -> ParGrain {
    let last = dims.len() - 1;
    let (mode, slabs) = if threads <= 1 {
        (last, 1)
    } else {
        let mode = (0..=last)
            .rev()
            .find(|&k| dims[k] >= 2 * threads)
            .or_else(|| (0..=last).max_by_key(|&k| dims[k]))
            .expect("a tensor has a mode");
        (mode, 4 * threads)
    };
    let depth = dims[mode].div_ceil(slabs);
    ParGrain {
        mode,
        depth,
        count: dims[mode].div_ceil(depth),
    }
}

/// Cache-tiled parallel MTTKRP on the given rayon pool. `tile` is the block
/// edge (see [`native_tile`]); `factors[n]` is ignored.
pub fn mttkrp_native(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    tile: usize,
    pool: &rayon::ThreadPool,
) -> Matrix {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let dims = x.shape().dims();
    let i_n = dims[n];
    let grain = native_grain(dims, pool.current_num_threads());
    let whole = TensorBlock::whole(x);
    // Accumulates the slab from mode-`grain.mode` index `j0` on into `out`,
    // whose first row is output row `out_row0`.
    let slab = |j0: usize, out: &mut [f64], out_row0: usize| {
        let mut bounds: Vec<(usize, usize)> = dims.iter().map(|&d| (0, d)).collect();
        bounds[grain.mode] = (j0, dims[grain.mode].min(j0 + grain.depth));
        accumulate_box(&whole, factors, n, &bounds, tile, out_row0, out);
    };

    pool.install(|| match grain {
        ParGrain { count: 1, .. } => {
            // One slab is the whole tensor: nothing to split or reduce.
            let mut b = Matrix::zeros(i_n, r);
            slab(0, b.data_mut(), 0);
            b
        }
        ParGrain { mode, depth, .. } if n == mode && n != 0 => {
            // Slabs own disjoint output rows: write in place, no reduction.
            // (Mode-0 output rows are the entries' own indices, so a mode-0
            // split takes the accumulators below.)
            let mut b = Matrix::zeros(i_n, r);
            b.par_row_chunks_mut(depth)
                .for_each(|(j0, rows)| slab(j0, rows, j0));
            b
        }
        ParGrain { depth, count, .. } => {
            // Per-thread accumulators, summed pairwise in the reduction.
            (0..count)
                .into_par_iter()
                .fold(
                    || Matrix::zeros(i_n, r),
                    |mut acc, s| {
                        slab(s * depth, acc.data_mut(), 0);
                        acc
                    },
                )
                .reduce(
                    || Matrix::zeros(i_n, r),
                    |mut a, b| {
                        a.axpy(1.0, &b);
                        a
                    },
                )
        }
    })
}

/// Executes MTTKRP at hardware speed on a rayon thread pool.
pub struct NativeBackend {
    pool: rayon::ThreadPool,
    threads: usize,
    cache_words: usize,
}

impl NativeBackend {
    /// A backend with its own pool of exactly `threads` workers, tiling for
    /// a cache of `cache_words` words.
    pub fn new(threads: usize, cache_words: usize) -> NativeBackend {
        assert!(threads >= 1, "need at least one thread");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon thread pool");
        NativeBackend {
            pool,
            threads,
            cache_words: cache_words.max(1),
        }
    }

    /// All available cores, default cache size.
    pub fn with_all_cores() -> NativeBackend {
        NativeBackend::new(crate::MachineSpec::detect_threads(), DEFAULT_CACHE_WORDS)
    }

    /// A single-threaded baseline (same kernel, no parallelism) — the
    /// comparison point for speedup measurements.
    pub fn single_threaded() -> NativeBackend {
        NativeBackend::new(1, DEFAULT_CACHE_WORDS)
    }

    /// The worker count of this backend's pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the tiled kernel directly (no plan needed), choosing the tile
    /// from this backend's cache size.
    pub fn run(&self, x: &DenseTensor, factors: &[&Matrix], mode: usize) -> Matrix {
        let tile = native_tile(self.cache_words, x.order(), factors[0].cols());
        mttkrp_native(x, factors, mode, tile, &self.pool)
    }
}

impl Backend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    /// Runs the plan's MTTKRP on this backend's thread pool.
    ///
    /// The native backend has exactly one execution strategy — the
    /// cache-tiled shared-memory kernel — so only the plan's *mode*, *tile*
    /// and problem are honored. A distributed plan (Algorithm 3/4, parallel
    /// matmul) computes the same values here, but its processor grid and
    /// communication schedule describe the [`crate::SimBackend`], not this
    /// execution; callers forcing a distributed plan onto the native
    /// backend should say so to their users (the CLI prints a note).
    fn execute(&self, plan: &Plan, x: &DenseTensor, factors: &[&Matrix]) -> ExecReport {
        let tile = plan.native_tile();
        let start = Instant::now();
        let output = mttkrp_native(x, factors, plan.mode, tile, &self.pool);
        let elapsed = start.elapsed();
        ExecReport {
            output,
            backend: self.name(),
            cost: ExecCost::Native {
                elapsed,
                threads: self.threads,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::kernels::{isa, walk_tiles};
    use mttkrp_tensor::{mttkrp_reference, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 50 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn native_tile_respects_budget() {
        // b^3 + 3*b*8 <= 1000: b = 8 gives 512 + 192 = 704, b = 9 gives 945.
        assert_eq!(native_tile(1000, 3, 8), 9);
        assert_eq!(native_tile(4, 3, 8), 1); // nothing fits: degenerate tile
        assert!(native_tile(1 << 21, 3, 32) >= 64);
    }

    #[test]
    fn matches_oracle_all_modes_3way() {
        let (x, factors) = setup(&[7, 5, 6], 4, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let be = NativeBackend::new(3, 1 << 12);
        for n in 0..3 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn matches_oracle_4way_tiny_tile() {
        let (x, factors) = setup(&[4, 3, 5, 2], 3, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        for n in 0..4 {
            for tile in [1, 2, 7] {
                let got = mttkrp_native(&x, &refs, n, tile, &pool);
                let want = mttkrp_reference(&x, &refs, n);
                assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}, tile {tile}");
            }
        }
    }

    #[test]
    fn matches_oracle_order2() {
        let (x, factors) = setup(&[9, 8], 5, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let be = NativeBackend::new(2, 64);
        for n in 0..2 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn grain_feeds_the_pool_on_skinny_last_modes() {
        // 512x512x2 on 8 threads: only 2 last-mode slabs exist, so the slabs
        // cut the highest mode that can feed the pool, mode 1, with at least
        // one slab per worker (the regression the ROADMAP tracked).
        let grain = native_grain(&[512, 512, 2], 8);
        assert_eq!(grain.mode, 1);
        assert!(grain.count >= 8, "{grain:?}");
        // No mode of 10x9x2x2 has 16 indices: the largest mode is cut.
        assert_eq!(native_grain(&[10, 9, 2, 2], 8).mode, 0);
        // A long last mode keeps the last-mode slabs.
        let grain = native_grain(&[64, 64, 64], 8);
        assert_eq!(grain.mode, 2);
        assert!(grain.count >= 8, "{grain:?}");
        // Single-threaded runs take one slab, whatever the last mode: no
        // per-slab scratch, no accumulator reduction.
        for i_last in [1, 2, 64] {
            assert_eq!(
                native_grain(&[16, 16, i_last], 1),
                ParGrain {
                    mode: 2,
                    depth: i_last,
                    count: 1
                }
            );
        }
    }

    /// Checks every output mode of each skinny-last-mode shape against the
    /// oracle, at 2, 3 and 8 threads and tiles from one entry to the whole
    /// slab. Returns whether the split mode itself was checked at n = 0
    /// (accumulated) and at n = 1 (rows written in place).
    fn check_skinny_shapes(shapes: &[&[usize]]) -> [bool; 2] {
        let mut split_at_n = [false; 2];
        for threads in [2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for &dims in shapes {
                let (x, factors) = setup(dims, 5, 6);
                let refs: Vec<&Matrix> = factors.iter().collect();
                let mode = native_grain(dims, threads).mode;
                assert_ne!(mode, dims.len() - 1, "dims {dims:?}, {threads} threads");
                for n in 0..dims.len() {
                    let want = mttkrp_reference(&x, &refs, n);
                    for tile in [1, 3, 1024] {
                        let got = mttkrp_native(&x, &refs, n, tile, &pool);
                        let case =
                            format!("dims {dims:?}, {threads} threads, mode {n}, tile {tile}");
                        assert!(got.max_abs_diff(&want) < 1e-12, "{case}");
                    }
                    if n == mode && n < 2 {
                        split_at_n[n] = true;
                    }
                }
            }
        }
        split_at_n
    }

    #[test]
    fn skinny_last_mode_matches_oracle_all_modes() {
        // Regression: shapes like 512x512x2 previously underused the pool.
        // Their slabs cut another mode, and every output mode must stay
        // correct, the split mode itself included.
        let split_at_n = check_skinny_shapes(&[&[24, 20, 2], &[10, 9, 2, 2], &[17, 3, 2]]);
        assert_eq!(split_at_n, [true, true]);
    }

    #[test]
    fn flat_streamed_walk_matches_oracle_below_the_blocking_threshold() {
        // Small mode-0 factors on skinny last modes, the shapes that once
        // took the streamed flat walk: their slabs now cut a mode other than
        // the last, and must agree with the oracle for every output mode.
        check_skinny_shapes(&[&[37, 11, 2], &[64, 9, 3], &[13, 7, 2, 2]]);
    }

    #[test]
    fn tall_skinny_shapes_split_along_mode_0() {
        // A tall-skinny tensor has only mode 0 to feed the pool with: its
        // slabs are runs cut across, and tiles cut them again.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        for dims in [&[16384, 6, 2][..], &[16384, 3, 2, 2]] {
            let r = 4;
            let (x, factors) = setup(dims, r, 22);
            let refs: Vec<&Matrix> = factors.iter().collect();
            assert_eq!(native_grain(dims, 8).mode, 0);
            for n in 0..dims.len() {
                let want = mttkrp_reference(&x, &refs, n);
                for tile in [1, 61, 127] {
                    let got = mttkrp_native(&x, &refs, n, tile, &pool);
                    assert!(
                        got.max_abs_diff(&want) < 1e-10,
                        "dims {dims:?}, mode {n}, tile {tile}"
                    );
                }
            }
        }
    }

    /// FNV-1a over the output bit patterns for modes 0, middle and last of
    /// `walk(x, factors, n, tile, out)`, which accumulates the whole tensor
    /// into `out`.
    /// Operands are a closed form of the index, not draws from the `rand`
    /// shim, so the constants below survive a shim -> registry swap; the
    /// divisors are odd so products and sums round.
    fn walk_hash(
        dims: &[usize],
        r: usize,
        tile: usize,
        walk: impl Fn(&DenseTensor, &[&Matrix], usize, usize, &mut [f64]),
    ) -> u64 {
        let shape = Shape::new(dims);
        let data = (0..shape.num_entries())
            .map(|lin| ((37 * lin + 11) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let x = DenseTensor::from_vec(shape, data);
        let entry = |k: usize, i: usize, c: usize| ((13 * i + 7 * c + 5 * k + 3) % 29) as f64;
        let factors: Vec<Matrix> = (0..dims.len())
            .map(|k| Matrix::from_fn(dims[k], r, |i, c| entry(k, i, c) / 29.0 + 0.25))
            .collect();
        let factors: Vec<&Matrix> = factors.iter().collect();
        let last = dims.len() - 1;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for n in [0, last.div_ceil(2), last] {
            let mut out = vec![0.0; dims[n] * r];
            walk(&x, &factors, n, tile, &mut out);
            for byte in out.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The last-mode slabs of `depth`, as `mttkrp_native` walks its slabs:
    /// each writes its own rows in place when `n` is the last mode.
    fn slabs(dims: &[usize], depth: usize) -> impl Iterator<Item = Vec<(usize, usize)>> + '_ {
        let last = dims.len() - 1;
        (0..dims[last]).step_by(depth).map(move |j0| {
            let mut bounds: Vec<(usize, usize)> = dims.iter().map(|&d| (0, d)).collect();
            bounds[last] = (j0, dims[last].min(j0 + depth));
            bounds
        })
    }

    /// The slab walk of `depth`-deep last-mode slabs, through `walk`.
    fn slab_walk(depth: usize) -> impl Fn(&DenseTensor, &[&Matrix], usize, usize, &mut [f64]) {
        move |x, factors, n, tile, out| {
            let (dims, r) = (x.shape().dims(), factors[0].cols());
            let (whole, last) = (TensorBlock::whole(x), dims.len() - 1);
            for bounds in slabs(dims, depth) {
                let row0 = if n == last { bounds[last].0 } else { 0 };
                let out = &mut out[row0 * r..];
                accumulate_box(&whole, factors, n, &bounds, tile, row0, out);
            }
        }
    }

    #[test]
    fn walks_reproduce_the_bits_recorded_when_the_multiply_adds_became_fused() {
        // Constants recorded at the commit that made each of the kernel's
        // multiply-adds one fused operation (`mul_add`: one rounding where
        // there were two, so every output moved, once, mode 0 included).
        // They pin the run contract — the `n != 0` piece a dot product summed
        // from zero and scaled once by its Hadamard row — plus the walk's
        // visiting order and piece cuts, under whichever entry point this CPU
        // dispatches to.
        //
        // Multi-tile slab walk: tile < every dim, two uneven slabs.
        let hash = walk_hash(&[7, 5, 6], 5, 3, slab_walk(4));
        assert_eq!(hash, 0x94e7faaa7578f232);
        let hash = walk_hash(&[5, 4, 3, 4], 3, 2, slab_walk(3));
        assert_eq!(hash, 0x6c383be4479e3706);
    }

    #[test]
    fn walk_bits_do_not_depend_on_the_entry_point() {
        // Width independence for the tiled walk: its body run plainly
        // (compiled for the baseline ISA) and through `dispatch` (AVX2 where
        // the CPU has it; a release build is what makes them differ) agrees
        // to the bit. Tile 3 cuts every dimension, so runs arrive in pieces;
        // the ranks sit on both sides of every column-block width.
        for dims in [&[9, 7][..], &[7, 5, 6], &[5, 4, 3, 4]] {
            for r in [1, 2, 3, 5, 8, 13, 16, 33] {
                let (x, factors) = setup(dims, r, 30 + r as u64);
                let factors: Vec<&Matrix> = factors.iter().collect();
                let whole = TensorBlock::whole(&x);
                let last = dims.len() - 1;
                for (n, &i_n) in dims.iter().enumerate() {
                    let bits =
                        |words: &[f64]| words.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let case = format!("dims {dims:?}, R = {r}, mode {n}, isa {}", isa());

                    let (mut plain, mut dispatched) = (vec![0.0; i_n * r], vec![0.0; i_n * r]);
                    for bounds in slabs(dims, 4) {
                        let row0 = if n == last { bounds[last].0 } else { 0 };
                        let (p, d) = (&mut plain[row0 * r..], &mut dispatched[row0 * r..]);
                        walk_tiles(&whole, &factors, n, &bounds, 3, row0, p);
                        accumulate_box(&whole, &factors, n, &bounds, 3, row0, d);
                    }
                    assert_eq!(bits(&dispatched), bits(&plain), "slabs, {case}");
                }
            }
        }
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let (x, factors) = setup(&[12, 10, 8], 6, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let one = NativeBackend::single_threaded().run(&x, &refs, 1);
        let many = NativeBackend::new(4, DEFAULT_CACHE_WORDS).run(&x, &refs, 1);
        assert!(one.max_abs_diff(&many) < 1e-12);
    }

    #[test]
    fn flat_and_slab_paths_agree() {
        // The skinny shape that once took flat ranges on 8 threads: one slab
        // against slabs along mode 0 (no mode of 16x12x3 but the first has
        // 16 indices), at every output mode.
        let (x, factors) = setup(&[16, 12, 3], 4, 8);
        let refs: Vec<&Matrix> = factors.iter().collect();
        assert_eq!(native_grain(&[16, 12, 3], 8).mode, 0);
        for n in 0..3 {
            let one = NativeBackend::single_threaded().run(&x, &refs, n);
            let split = NativeBackend::new(8, DEFAULT_CACHE_WORDS).run(&x, &refs, n);
            assert!(one.max_abs_diff(&split) < 1e-12, "mode {n}");
        }
    }
}
