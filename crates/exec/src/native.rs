//! The native backend: cache-tiled dense MTTKRP on a rayon thread pool.
//!
//! Parallel decomposition: the tensor is split into contiguous *last-mode
//! slabs* (ranges of last-mode indices, each read in place). When the output
//! mode *is* the last mode, slabs map to disjoint output row chunks
//! ([`Matrix::par_row_chunks_mut`]) and threads write their rows directly;
//! otherwise each rayon fold keeps a per-thread accumulator matrix and the
//! partials are summed in the reduce step — no locks, no `unsafe`. A pool of
//! one worker takes the whole tensor as a single slab and accumulates
//! straight into the output.
//!
//! Cache tiling: within a slab, the iteration space is walked in `b`-edge
//! tensor blocks in the spirit of Algorithm 2 / `seq::choose_block_size`,
//! with the Eq. (11) residency constraint made rank-aware
//! (`b^N + N*b*R <= M`, since a factor sub-block is `b x R` words here).
//! Each block is a box of the tensor that `core::kernels::walk_box` walks in
//! place — the box walk every dist rank runs over its stationary block —
//! handing the kernel a *panel* at a time: the block's share of the runs of
//! one mode-1 fibre, with one Hadamard block (at most `b x R` words, inside
//! the budget above) built per panel. The slab walk owns only the tile
//! odometer; this module owns walks — which panels, in which order, cut
//! where — and no arithmetic.
//!
//! Parallel grain: last-mode slabs are the preferred decomposition (the
//! slab data is contiguous and the tiled kernel walks it cache-friendly),
//! but a tensor whose *last* mode is smaller than the pool (e.g.
//! `512 x 512 x 2`) cannot feed every worker that way. [`native_grain`]
//! detects this and switches to *flat entry ranges*: the tensor's colex
//! data is split into `~4 x threads` contiguous chunks of entries —
//! shape-independent, so the pool is always fed — and each chunk is
//! accumulated into a per-thread output matrix, summed in the reduction.
//! The flat path gets the same `b`-edge cache treatment as the slab path
//! once the mode-0 factor outgrows a per-core cache
//! ([`FLAT_BLOCK_MIN_FACTOR_WORDS`]): whole mode-0 runs are walked in
//! `tile x tile` bands (the band's Hadamard blocks cached, one `b x R` block
//! of `A^(1)` resident across a band of runs), so large skinny tensors no
//! longer re-stream the mode-0 factor per run; small factors keep the
//! perfectly sequential streamed walk.

use crate::backend::{Backend, ExecCost, ExecReport};
use crate::machine::DEFAULT_CACHE_WORDS;
use crate::plan::Plan;
use mttkrp_core::kernels::{
    accumulate_flat_range, accumulate_panel, dispatch, hadamard_block, walk_box, Panel, TensorBlock,
};
use mttkrp_core::par::dist::split_range;
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

/// How [`mttkrp_native`] splits work across the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParGrain {
    /// Contiguous last-mode slabs of `depth` indices each (`count` slabs
    /// in total); the cache-tiled kernel runs within each slab.
    LastModeSlabs {
        /// Last-mode indices per slab.
        depth: usize,
        /// Number of slabs handed to the pool.
        count: usize,
    },
    /// `chunks` contiguous ranges of the tensor's flat entry space, each
    /// accumulated into a per-thread output matrix. Used when the last
    /// mode is too short to feed the pool with slabs.
    FlatRanges {
        /// Number of entry ranges handed to the pool.
        chunks: usize,
    },
}

/// Chooses the parallel decomposition for a tensor whose last-mode extent
/// is `i_last` and entry count is `entries`, on `threads` workers.
///
/// Last-mode slabs (4 per thread for load balance) whenever the last mode
/// can feed the pool; flat entry ranges when it cannot (`i_last` below
/// `2 x threads`), so skinny-last-mode shapes like `512 x 512 x 2` still
/// use every worker. Single-threaded runs always take one slab pass: there
/// is no load to balance, and [`mttkrp_native`] accumulates a lone slab
/// straight into the output.
pub fn native_grain(i_last: usize, entries: usize, threads: usize) -> ParGrain {
    let threads = threads.max(1);
    if threads > 1 && i_last < 2 * threads {
        ParGrain::FlatRanges {
            chunks: (4 * threads).min(entries).max(1),
        }
    } else {
        let slabs = if threads == 1 { 1 } else { 4 * threads };
        let depth = i_last.div_ceil(slabs).max(1);
        ParGrain::LastModeSlabs {
            depth,
            count: i_last.div_ceil(depth),
        }
    }
}

/// The mode-0 factor footprint (in words) above which the flat-range path
/// switches from run-by-run streaming to the blocked (`b`-edge) walk.
///
/// Streaming keeps one output row and re-reads `A^(1)` top to bottom for
/// every run: when `I_0 x R` fits a per-core cache that costs nothing
/// (and the perfectly sequential tensor walk prefetches best), but once
/// the factor spills, every run re-streams it from memory — `R` times the
/// tensor's own traffic. Half a MiB (2^16 words) is a conservative
/// per-core-L2-sized threshold for "it spilled": below it blocking is
/// noise-to-slightly-negative; above it PR 5 measured the blocked walk
/// ~29% faster on `16384 x 128 x 2`, `R = 32`. No benchmark workload covers
/// this path yet (every timed plan is one tile on one thread).
pub const FLAT_BLOCK_MIN_FACTOR_WORDS: usize = 1 << 16;

/// Whether the blocked flat walk is worth it for a mode-0 extent of `i0`
/// at rank `r` (see [`FLAT_BLOCK_MIN_FACTOR_WORDS`]).
fn flat_blocking_pays(i0: usize, r: usize) -> bool {
    i0.saturating_mul(r) >= FLAT_BLOCK_MIN_FACTOR_WORDS
}

/// The per-slab kernel parameters shared by every worker: the operands,
/// output mode, tile edge, and rank.
struct SlabKernel<'a> {
    x: &'a DenseTensor,
    factors: &'a [&'a Matrix],
    n: usize,
    tile: usize,
    r: usize,
}

impl SlabKernel<'_> {
    /// Accumulates the MTTKRP contribution of the `depth` last-mode indices
    /// from `j0` on into `out`, a row-major `r`-column buffer indexed by
    /// `global_output_row - out_row0` (`out_row0` is nonzero only when `n`
    /// is the last mode).
    fn accumulate(&self, j0: usize, depth: usize, out: &mut [f64], out_row0: usize) {
        dispatch(
            #[inline(always)]
            || self.walk_slab(j0, depth, out, out_row0),
        )
    }

    /// The body of [`Self::accumulate`], for either entry point: the tile
    /// odometer, one [`walk_box`] per tile.
    #[inline(always)]
    fn walk_slab(&self, j0: usize, depth: usize, out: &mut [f64], out_row0: usize) {
        let x = TensorBlock::whole(self.x);
        let order = x.shape().order();
        let last = order - 1;
        let tile = self.tile.max(1);

        // Extents of this slab's iteration space (full in every mode but the
        // last) and the per-mode tile counts.
        let mut ext: Vec<usize> = x.shape().dims().to_vec();
        ext[last] = depth;
        let ntiles: Vec<usize> = ext.iter().map(|&e| e.div_ceil(tile)).collect();
        let total_tiles: usize = ntiles.iter().product();

        // Tile bounds are global tensor indices.
        let mut bounds = vec![(0usize, 0usize); order];
        for t in 0..total_tiles {
            let mut tt = t;
            for (k, b) in bounds.iter_mut().enumerate() {
                let lo = tt % ntiles[k] * tile;
                tt /= ntiles[k];
                *b = (lo, (lo + tile).min(ext[k]));
            }
            bounds[last].0 += j0;
            bounds[last].1 += j0;
            walk_box(&x, self.factors, self.n, &bounds, out_row0, out);
        }
    }

    /// Accumulates the MTTKRP contribution of the flat entry range
    /// `[lo, hi)` of the tensor's colex data into `out`, a row-major
    /// `I_n x r` buffer.
    ///
    /// With `tile <= 1` the range is streamed in storage order
    /// ([`Self::accumulate_flat_streamed`]); otherwise the complete mode-0
    /// runs inside the range are walked in `b`-edge blocks
    /// ([`Self::accumulate_flat_blocked`]) — the same cache treatment the
    /// slab path gets — with any partial head/tail run streamed as before.
    fn accumulate_flat(&self, lo: usize, hi: usize, out: &mut [f64]) {
        let i0 = self.x.shape().dim(0);
        if self.tile <= 1 || !flat_blocking_pays(i0, self.r) {
            return self.accumulate_flat_streamed(lo, hi, out);
        }
        // Split the range into a partial head run, whole runs, and a
        // partial tail run; only whole runs go through the blocked walk.
        let head_end = lo.next_multiple_of(i0).min(hi);
        let tail_start = (hi / i0 * i0).max(head_end);
        self.accumulate_flat_streamed(lo, head_end, out);
        self.accumulate_flat_blocked(head_end / i0, tail_start / i0, out);
        self.accumulate_flat_streamed(tail_start, hi, out);
    }

    /// Blocked (`b`-edge) walk over the whole mode-0 runs with *rest*
    /// indices (the colex linearization of modes `1..N`) in `[rlo, rhi)`.
    ///
    /// The run space is tiled on both axes: `tile` runs share one residency
    /// of each `tile x r` block of `A^(1)` (and, for `n == 0`, of the
    /// output), and the Hadamard rows of the band are built once, a panel
    /// (the band's share of a mode-1 fibre) at a time, and cached — so a
    /// large skinny tensor stops re-streaming the
    /// full `I_1 x R` factor from memory for every run. Residency is
    /// `2*b*R` words, within the budget of the plan's Eq. (11)-style tile
    /// (`b^N + N*b*R <= M` with `N >= 2`).
    fn accumulate_flat_blocked(&self, rlo: usize, rhi: usize, out: &mut [f64]) {
        dispatch(
            #[inline(always)]
            || self.walk_bands(rlo, rhi, out),
        )
    }

    /// The body of [`Self::accumulate_flat_blocked`], for either entry point.
    #[inline(always)]
    fn walk_bands(&self, rlo: usize, rhi: usize, out: &mut [f64]) {
        let (x, factors, n, r) = (self.x, self.factors, self.n, self.r);
        let shape = x.shape();
        let i0 = shape.dim(0);
        let data = x.data();
        let tile = self.tile;

        let i1 = shape.dim(1);
        let mut idx = vec![0usize; shape.order()];
        // Per-band caches: the Hadamard block and the mode-`n` index of the
        // band's panels, each at the slot of its first run. A panel is the
        // band's share of one mode-1 fibre.
        let mut block = vec![0.0f64; tile * r];
        let mut rows = vec![0usize; tile];
        let fibre_end = |run: usize, band_end: usize| (run + i1 - run % i1).min(band_end);

        let mut band = rlo;
        while band < rhi {
            let band_end = (band + tile).min(rhi);
            let mut run = band;
            while run < band_end {
                let pieces = fibre_end(run, band_end) - run;
                let t = run - band;
                shape.delinearize_into(run * i0, &mut idx);
                hadamard_block(factors, n, &idx, pieces, &mut block[t * r..]);
                rows[t] = idx[n];
                run += pieces;
            }
            let mut b0 = 0;
            while b0 < i0 {
                let b1 = (b0 + tile).min(i0);
                let mut run = band;
                while run < band_end {
                    let pieces = fibre_end(run, band_end) - run;
                    let t = run - band;
                    let panel = Panel {
                        entries: &data[run * i0 + b0..],
                        stride: i0,
                        pieces,
                        len: b1 - b0,
                        i0: b0,
                    };
                    accumulate_panel(&panel, factors[0], n, rows[t], &block[t * r..], out);
                    run += pieces;
                }
                b0 = b1;
            }
            band = band_end;
        }
    }

    /// Streams the flat entry range `[lo, hi)` in storage order — the core
    /// streamer, which over a whole tensor has the bits of `local_mttkrp`.
    /// The untiled baseline of the flat path (and the handler for partial
    /// runs at blocked-range boundaries).
    fn accumulate_flat_streamed(&self, lo: usize, hi: usize, out: &mut [f64]) {
        accumulate_flat_range(self.x, self.factors, self.n, lo, hi, out);
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
    let shape = x.shape();
    let order = shape.order();
    let last = order - 1;
    let i_n = shape.dim(n);
    let i_last = shape.dim(last);
    let threads = pool.current_num_threads().max(1);
    let grain = native_grain(i_last, x.num_entries(), threads);

    let kernel = SlabKernel {
        x,
        factors,
        n,
        tile,
        r,
    };
    pool.install(|| match grain {
        ParGrain::LastModeSlabs { count: 1, .. } => {
            // One slab is the whole tensor: nothing to split or reduce.
            let mut b = Matrix::zeros(i_n, r);
            kernel.accumulate(0, i_last, b.data_mut(), 0);
            b
        }
        ParGrain::LastModeSlabs { depth, .. } if n == last => {
            // Slabs own disjoint output rows: write in place, no reduction.
            let mut b = Matrix::zeros(i_n, r);
            b.par_row_chunks_mut(depth)
                .for_each(|(j0, rows)| kernel.accumulate(j0, rows.len() / r, rows, j0));
            b
        }
        ParGrain::LastModeSlabs { depth, count } => {
            // Per-thread accumulators, summed pairwise in the reduction.
            (0..count)
                .into_par_iter()
                .fold(
                    || Matrix::zeros(i_n, r),
                    |mut acc, s| {
                        let j0 = s * depth;
                        kernel.accumulate(j0, depth.min(i_last - j0), acc.data_mut(), 0);
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
        ParGrain::FlatRanges { chunks } => {
            // Shape-independent decomposition: contiguous flat entry
            // ranges with per-thread accumulators (every output row may be
            // touched by any chunk, so no in-place path exists here).
            let entries = x.num_entries();
            (0..chunks)
                .into_par_iter()
                .fold(
                    || Matrix::zeros(i_n, r),
                    |mut acc, c| {
                        let (lo, hi) = split_range(entries, chunks, c);
                        kernel.accumulate_flat(lo, hi, acc.data_mut());
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
    use mttkrp_core::kernels::isa;
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
        // 512x512x2 on 8 threads: only 2 last-mode slabs exist, so the
        // grain must switch to flat ranges with at least one chunk per
        // worker (the regression the ROADMAP tracked).
        match native_grain(2, 512 * 512 * 2, 8) {
            ParGrain::FlatRanges { chunks } => assert!(chunks >= 8, "chunks = {chunks}"),
            other => panic!("expected flat ranges, got {other:?}"),
        }
        // A long last mode keeps the slab decomposition.
        match native_grain(64, 64 * 64 * 64, 8) {
            ParGrain::LastModeSlabs { count, .. } => assert!(count >= 8),
            other => panic!("expected slabs, got {other:?}"),
        }
        // Single-threaded runs take one slab, whatever the last mode: no
        // per-slab scratch, no accumulator reduction.
        for i_last in [1, 2, 64] {
            assert_eq!(
                native_grain(i_last, 1 << 12, 1),
                ParGrain::LastModeSlabs {
                    depth: i_last,
                    count: 1
                }
            );
        }
    }

    #[test]
    fn skinny_last_mode_matches_oracle_all_modes() {
        // Regression: shapes like 512x512x2 previously underused the pool;
        // the flat-range path must stay correct for every output mode.
        let (x, factors) = setup(&[24, 20, 2], 5, 6);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let be = NativeBackend::new(8, 1 << 12);
        for n in 0..3 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
        // Order-4 with two skinny trailing modes.
        let (x, factors) = setup(&[10, 9, 2, 2], 3, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..4 {
            let got = be.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            assert!(got.max_abs_diff(&want) < 1e-12, "mode {n}");
        }
    }

    #[test]
    fn flat_streamed_walk_matches_oracle_below_the_blocking_threshold() {
        // Small mode-0 factors stay on the streamed path whatever the
        // tile; it must agree with the oracle on skinny last modes that
        // force flat ranges, for every output mode.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        for dims in [&[37, 11, 2][..], &[64, 9, 3], &[13, 7, 2, 2]] {
            let (x, factors) = setup(dims, 5, 21);
            let refs: Vec<&Matrix> = factors.iter().collect();
            assert!(matches!(
                native_grain(dims[dims.len() - 1], x.num_entries(), 8),
                ParGrain::FlatRanges { .. }
            ));
            assert!(!flat_blocking_pays(dims[0], 5));
            for n in 0..dims.len() {
                let want = mttkrp_reference(&x, &refs, n);
                for tile in [1, 16, 1024] {
                    let got = mttkrp_native(&x, &refs, n, tile, &pool);
                    assert!(
                        got.max_abs_diff(&want) < 1e-12,
                        "dims {dims:?}, mode {n}, tile {tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_blocked_walk_matches_streamed_walk_and_oracle() {
        // Tall-skinny shapes above the blocking threshold take the b-edge
        // banded walk (tile > 1); it must agree with the untiled streamed
        // baseline (tile = 1) and the oracle for every output mode. Chunk
        // boundaries from split_range land mid-run, so the partial
        // head/tail handling is exercised too.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        for dims in [&[16384, 6, 2][..], &[16384, 3, 2, 2]] {
            let r = 4;
            assert!(flat_blocking_pays(dims[0], r));
            let (x, factors) = setup(dims, r, 22);
            let refs: Vec<&Matrix> = factors.iter().collect();
            assert!(matches!(
                native_grain(dims[dims.len() - 1], x.num_entries(), 8),
                ParGrain::FlatRanges { .. }
            ));
            for n in 0..dims.len() {
                let want = mttkrp_reference(&x, &refs, n);
                let streamed = mttkrp_native(&x, &refs, n, 1, &pool);
                assert!(
                    streamed.max_abs_diff(&want) < 1e-10,
                    "streamed dims {dims:?}, mode {n}"
                );
                for tile in [2, 61, 127] {
                    let blocked = mttkrp_native(&x, &refs, n, tile, &pool);
                    assert!(
                        blocked.max_abs_diff(&want) < 1e-10,
                        "dims {dims:?}, mode {n}, tile {tile}"
                    );
                }
            }
        }
    }

    /// FNV-1a over the output bit patterns for modes 0, middle and last of
    /// `walk`, which accumulates the whole tensor into the buffer it is
    /// given. Operands are a closed form of the index, not draws from the
    /// `rand` shim, so the constants below survive a shim -> registry swap;
    /// the divisors are odd so products and sums round.
    fn walk_hash(
        dims: &[usize],
        r: usize,
        tile: usize,
        walk: impl Fn(&SlabKernel, &mut [f64]),
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
            let kernel = SlabKernel {
                x: &x,
                factors: &factors,
                n,
                tile,
                r,
            };
            let mut out = vec![0.0; dims[n] * r];
            walk(&kernel, &mut out);
            for byte in out.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The slab walk as `mttkrp_native` drives it: last-mode slabs of
    /// `depth`, each writing its own rows in place when `n` is the last mode.
    fn slab_walk(depth: usize) -> impl Fn(&SlabKernel, &mut [f64]) {
        move |k, out| {
            for (j0, slab) in k.x.last_mode_slabs(depth) {
                let rows = slab.len() / k.x.last_mode_slab_len();
                if k.n == k.x.order() - 1 {
                    k.accumulate(j0, rows, &mut out[j0 * k.r..(j0 + rows) * k.r], j0);
                } else {
                    k.accumulate(j0, rows, out, 0);
                }
            }
        }
    }

    /// The flat walk over consecutive ranges cut mid-run at `cuts`.
    fn flat_walk(cuts: &'static [usize]) -> impl Fn(&SlabKernel, &mut [f64]) {
        move |k, out| {
            assert!(cuts.iter().all(|c| c % k.x.shape().dim(0) != 0));
            let mut lo = 0;
            for &hi in cuts.iter().chain([&k.x.num_entries()]) {
                k.accumulate_flat(lo, hi, out);
                lo = hi;
            }
        }
    }

    #[test]
    fn walks_reproduce_the_bits_recorded_when_the_run_became_a_dot_product() {
        // Constants recorded at the commit that made the `n != 0` run piece a
        // dot product scaled once by its Hadamard row (`s * w` per piece, no
        // longer `x * a * w` per entry: fewer roundings, so every `n != 0`
        // output moved, once; mode-0 outputs kept their bits). They pin the
        // run contract plus each walk's visiting order and piece cuts, under
        // whichever entry point this CPU dispatches to.
        //
        // Multi-tile slab walk: tile < every dim, two uneven slabs.
        let hash = walk_hash(&[7, 5, 6], 5, 3, slab_walk(4));
        assert_eq!(hash, 0xce52767327235adf);
        let hash = walk_hash(&[5, 4, 3, 4], 3, 2, slab_walk(3));
        assert_eq!(hash, 0xc8ad01724c69d5e8);
        // Streamed flat walk: mode-0 factor below the blocking threshold.
        assert!(!flat_blocking_pays(7, 5) && !flat_blocking_pays(5, 3));
        let hash = walk_hash(&[7, 5, 6], 5, 3, flat_walk(&[10, 11, 95]));
        assert_eq!(hash, 0x80c5b1086a123905);
        let hash = walk_hash(&[5, 4, 3, 4], 3, 2, flat_walk(&[3, 127, 128]));
        assert_eq!(hash, 0x5ae379c90a644be3);
        // Blocked flat walk: mode-0 factor at the threshold and tile > 1, the
        // partial head and tail runs of each range streamed.
        assert!(flat_blocking_pays(16384, 4));
        let hash = walk_hash(&[16384, 3, 2], 4, 61, flat_walk(&[20000, 20001, 70000]));
        assert_eq!(hash, 0xf1c8a59a5b170f94);
        let hash = walk_hash(&[16384, 3, 2, 2], 4, 61, flat_walk(&[20000, 120000]));
        assert_eq!(hash, 0x1bfce6b89923b73d);
    }

    #[test]
    fn walk_bits_do_not_depend_on_the_entry_point() {
        // Width independence for the tiled walks: each body run plainly
        // (compiled for the baseline ISA) and through `dispatch` (AVX2 where
        // the CPU has it; a release build is what makes them differ) agrees
        // to the bit. Tile 3 cuts every dimension, so runs arrive in pieces;
        // the ranks sit on both sides of every column-block width.
        for dims in [&[9, 7][..], &[7, 5, 6], &[5, 4, 3, 4]] {
            for r in [1, 2, 3, 5, 8, 13, 16, 33] {
                let (x, factors) = setup(dims, r, 30 + r as u64);
                let factors: Vec<&Matrix> = factors.iter().collect();
                let last = dims.len() - 1;
                let runs = x.num_entries() / dims[0];
                for (n, &i_n) in dims.iter().enumerate() {
                    let kernel = SlabKernel {
                        x: &x,
                        factors: &factors,
                        n,
                        tile: 3,
                        r,
                    };
                    let bits =
                        |words: &[f64]| words.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let case = format!("dims {dims:?}, R = {r}, mode {n}, isa {}", isa());

                    let (mut plain, mut dispatched) = (vec![0.0; i_n * r], vec![0.0; i_n * r]);
                    for (j0, slab) in x.last_mode_slabs(4) {
                        let depth = slab.len() / x.last_mode_slab_len();
                        let row0 = if n == last { j0 } else { 0 };
                        kernel.walk_slab(j0, depth, &mut plain[row0 * r..], row0);
                        kernel.accumulate(j0, depth, &mut dispatched[row0 * r..], row0);
                    }
                    assert_eq!(bits(&dispatched), bits(&plain), "slabs, {case}");

                    let (mut plain, mut dispatched) = (vec![0.0; i_n * r], vec![0.0; i_n * r]);
                    for (rlo, rhi) in [(0, runs / 2), (runs / 2, runs)] {
                        kernel.walk_bands(rlo, rhi, &mut plain);
                        kernel.accumulate_flat_blocked(rlo, rhi, &mut dispatched);
                    }
                    assert_eq!(bits(&dispatched), bits(&plain), "bands, {case}");
                }
            }
        }
    }

    #[test]
    fn flat_and_slab_paths_agree() {
        // The same shape through both decompositions (1 thread forces
        // slabs, 8 threads forces flat ranges on this skinny last mode).
        let (x, factors) = setup(&[16, 12, 3], 4, 8);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..3 {
            let slab = NativeBackend::single_threaded().run(&x, &refs, n);
            let flat = NativeBackend::new(8, DEFAULT_CACHE_WORDS).run(&x, &refs, n);
            assert!(slab.max_abs_diff(&flat) < 1e-12, "mode {n}");
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
}
