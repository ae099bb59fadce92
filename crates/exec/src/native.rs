//! The native backend: cache-tiled dense MTTKRP on threads it forks itself.
//!
//! Parallel decomposition: the tensor is split into *slabs*, ranges of
//! consecutive indices of one mode, each a box of the tensor read in place.
//! [`native_grain`] picks the mode: the last mode when it has at least
//! `2 x threads` indices, else the highest mode that has, else the largest
//! mode — cut into `4 x threads` slabs (fewer when the mode is shorter). A
//! pool of one worker takes the whole tensor as a single slab, straight into
//! the output. More take the slabs in one contiguous piece per thread
//! ([`fork`]), as Algorithm 3's processors take blocks: when the output mode
//! is the split mode (other than mode 0) a piece writes its slabs' rows in
//! place; otherwise it folds them in order into a partial of its own, and the
//! partials are summed in piece order — no locks, no `unsafe`.
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
use std::ops::Range;
use std::panic::resume_unwind;
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
struct ParGrain {
    /// The mode the slabs cut.
    mode: usize,
    /// Mode-`mode` indices per slab.
    depth: usize,
    /// Number of slabs handed to the pool.
    count: usize,
}

/// Chooses the parallel decomposition of a `dims` tensor on `threads`
/// workers (module docs). One thread takes the whole tensor as one slab:
/// there is no load to balance, and [`mttkrp_native`] accumulates a lone slab
/// straight into the output. More threads take `4 x threads` slabs for load
/// balance, along the last mode when it can feed the pool (at least
/// `2 x threads` indices), else along the highest mode that can, else along
/// the largest.
fn native_grain(dims: &[usize], threads: usize) -> ParGrain {
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

/// Cuts `slabs` into at most `threads` contiguous pieces, in order, by
/// recursive halving: the first `len * (threads / 2) / threads` slabs go to
/// half the threads and the rest to the other half, and a range whose first
/// half would be empty stays whole — the cut the rayon shim's parallel
/// iterators made. (Cutting at `len * i / threads` differs, at 2 slabs on 3
/// threads for one. The cut fixes which slabs share a partial, hence the
/// bits of a summed output.)
fn split_pieces(slabs: Range<usize>, threads: usize, pieces: &mut Vec<Range<usize>>) {
    let half = threads / 2;
    let mid = slabs.start + slabs.len() * half / threads;
    if mid == slabs.start {
        pieces.push(slabs);
    } else {
        split_pieces(slabs.start..mid, half, pieces);
        split_pieces(mid..slabs.end, threads - half, pieces);
    }
}

/// Runs `work` on every piece, the first on the calling thread and each
/// other on a scoped thread of its own (as `netsim::run_spmd` runs its
/// ranks), and returns the results in piece order. A panicking piece's
/// payload is re-thrown once every piece has stopped.
fn fork<P: Send, T: Send>(
    pieces: impl IntoIterator<Item = P>,
    work: impl Fn(P) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    let mut pieces = pieces.into_iter();
    let first = pieces.next().expect("a fork has a piece");
    std::thread::scope(|scope| {
        let others: Vec<_> = pieces.map(|p| scope.spawn(move || work(p))).collect();
        let mut results = vec![work(first)];
        for handle in others {
            results.push(handle.join().unwrap_or_else(|e| resume_unwind(e)));
        }
        results
    })
}

/// The largest tensor order whose slab bounds [`mttkrp_native`] keeps on the
/// stack; a higher order allocates them per piece.
const STACK_ORDER: usize = 8;

/// Cache-tiled MTTKRP on the pool's thread count, the caller's thread among
/// them. `tile` is the block edge ([`native_tile`]); `factors[n]` is ignored.
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
    let threads = pool.current_num_threads();
    let ParGrain { mode, depth, count } = native_grain(dims, threads);
    let whole = TensorBlock::whole(x);
    // Accumulates slabs `slabs` in order into `out`, whose first row is
    // output row `out_row0`. The slabs' bounds live on the stack up to order
    // `STACK_ORDER`.
    let walk = |slabs: Range<usize>, out: &mut [f64], out_row0: usize| {
        let mut stack = [(0, 0); STACK_ORDER];
        let mut heap = Vec::new();
        let bounds = match stack.get_mut(..dims.len()) {
            Some(bounds) => bounds,
            None => {
                heap.resize(dims.len(), (0, 0));
                &mut heap[..]
            }
        };
        for (b, &d) in bounds.iter_mut().zip(dims) {
            *b = (0, d);
        }
        for j0 in slabs.map(|s| s * depth) {
            bounds[mode] = (j0, dims[mode].min(j0 + depth));
            accumulate_box(&whole, factors, n, bounds, tile, out_row0, out);
        }
    };

    let mut b = Matrix::zeros(i_n, r);
    if count == 1 {
        // One slab is the whole tensor: nothing to split or reduce.
        walk(0..1, b.data_mut(), 0);
        return b;
    }
    let mut pieces = Vec::with_capacity(threads);
    split_pieces(0..count, threads, &mut pieces);
    if n == mode && n != 0 {
        // A piece owns its slabs' output rows: it writes them in place, no
        // reduction. (Mode-0 output rows are the entries' own indices, so a
        // mode-0 split takes the partials below.)
        let mut rest = b.data_mut();
        let owned = pieces.into_iter().map(|slabs| {
            let rows = i_n.min(slabs.end * depth) - slabs.start * depth;
            let (own, tail) = std::mem::take(&mut rest).split_at_mut(rows * r);
            rest = tail;
            (slabs, own)
        });
        fork(owned, |(slabs, own)| {
            walk(slabs.clone(), own, slabs.start * depth)
        });
    } else {
        // A partial per piece, from zeros; the partials summed in order.
        let partials = fork(pieces, |slabs| {
            let mut partial = Matrix::zeros(i_n, r);
            walk(slabs, partial.data_mut(), 0);
            partial
        });
        for partial in &partials {
            b.axpy(1.0, partial);
        }
    }
    b
}

/// Executes MTTKRP at hardware speed on a fixed number of threads.
pub struct NativeBackend {
    pool: rayon::ThreadPool,
    threads: usize,
    cache_words: usize,
}

impl NativeBackend {
    /// A backend that runs every call on exactly `threads` threads, tiling
    /// for a cache of `cache_words` words.
    pub fn new(threads: usize, cache_words: usize) -> NativeBackend {
        assert!(threads >= 1, "need at least one thread");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build thread pool");
        NativeBackend {
            pool,
            threads,
            cache_words: cache_words.max(1),
        }
    }

    /// A single-threaded baseline (same kernel, no parallelism) — the
    /// comparison point for speedup measurements.
    pub fn single_threaded() -> NativeBackend {
        NativeBackend::new(1, DEFAULT_CACHE_WORDS)
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

    /// Runs the plan's MTTKRP on this backend's threads.
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
        let cost = ExecCost::Native {
            threads: self.threads,
        };
        ExecReport::finish(output, self.name(), cost, start)
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
    fn native_reproduces_the_bits_recorded_before_it_forked_its_own_threads() {
        // Constants recorded with the rayon shim's parallel iterators
        // driving the slabs: the pieces they cut and the order their
        // partials are summed in are part of the bits. One thread takes the
        // one-slab arm; on [7, 5, 6], 2 and 3 threads cut 6 last-mode slabs
        // into 3+3 and 2+2+2 (mode 2 in place, modes 0 and 1 summed), 4 and 8
        // threads cut 7 mode-0 slabs into 1+2+2+2 and seven pieces (summed).
        let cuts: [(usize, &[usize]); 4] =
            [(2, &[3, 3]), (3, &[2; 3]), (4, &[1, 2, 2, 2]), (8, &[1; 7])];
        for (threads, want) in cuts {
            let (count, mut pieces) = (native_grain(&[7, 5, 6], threads).count, Vec::new());
            split_pieces(0..count, threads, &mut pieces);
            let lens: Vec<usize> = pieces.iter().map(Range::len).collect();
            assert_eq!(lens, want, "{threads} threads");
        }
        let pins: [(&[usize], usize, usize, [u64; 5]); 2] = [
            (
                &[7, 5, 6],
                5,
                3,
                [
                    0x90c0abf33762bcd7,
                    0xedc40108d9025f92,
                    0xf2b4643eab7070f8,
                    0x14951cd414ff3fc2,
                    0x4a614a670f4e3c7a,
                ],
            ),
            (
                &[5, 4, 3, 4],
                3,
                2,
                [
                    0x36584ecf308b5fcd,
                    0x352973bf2150dda3,
                    0x40aa47b36455eab1,
                    0x7a95d6fd748225bf,
                    0x92f2a2099131728f,
                ],
            ),
        ];
        for (dims, r, tile, hashes) in pins {
            for (threads, want) in [1, 2, 3, 4, 8].into_iter().zip(hashes) {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let hash = walk_hash(dims, r, tile, |x, factors, n, tile, out| {
                    out.copy_from_slice(mttkrp_native(x, factors, n, tile, &pool).data())
                });
                assert_eq!(hash, want, "dims {dims:?}, {threads} threads");
            }
        }
    }

    #[test]
    fn fork_runs_the_first_piece_on_the_caller_and_each_other_on_its_own() {
        let caller = std::thread::current().id();
        let ids = fork(0..8, |_| std::thread::current().id());
        assert_eq!(ids[0], caller);
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 8, "{ids:?}");
        // A lone piece spawns no thread: it runs on the caller.
        assert_eq!(fork([()], |()| std::thread::current().id()), [caller]);
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
