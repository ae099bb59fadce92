//! Rank data layouts: what each rank *owns* before a run starts.
//!
//! A rank reads its box of the tensor in place, through a [`TensorBlock`]
//! view that reaches nothing else, and owns copies of its factor chunks. The
//! tensor is stationary — Algorithm 3 and the matmul baseline never send it,
//! so no rank copies it either; Algorithm 4 does send it, so its ranks own
//! their part. After sharding, the only way data crosses ranks is through
//! the rank's transport.
//!
//! Each sharder is a map over a per-rank function ([`alg3_shard`],
//! [`alg4_shard`], [`matmul_shard`]), which is all a process running one rank
//! calls. Every cut — tensor blocks, factor rows, Algorithm 4's column parts,
//! the matmul slabs — is a [`mttkrp_netsim::schedule::split_range`] piece, the
//! same block distribution the schedule predictions use, so the two agree
//! word for word on any grid. Where a grid extent exceeds what it cuts
//! (`P_k > I_k`, `P_0 > R`, more ranks than slab rows) some pieces are empty:
//! such a rank owns no tensor entries, contributes a zero partial, and still
//! joins every collective with zero-word blocks.

use crate::kernels::{block_mttkrp, TensorBlock};
use mttkrp_netsim::schedule::{check_grid, split_range, split_sizes};
use mttkrp_netsim::ProcessorGrid;
use mttkrp_tensor::{DenseTensor, Matrix};

/// The box of `x` a rank reads in place, or `None` when it is empty in some
/// mode (no zero-extent shape is ever built).
fn block_of<'a>(x: &'a DenseTensor, ranges: &[(usize, usize)]) -> Option<TensorBlock<'a>> {
    ranges
        .iter()
        .all(|&(lo, hi)| lo < hi)
        .then(|| TensorBlock::new(x, ranges))
}

/// Line 6 of a rank body: the local MTTKRP of `block` against the gathered
/// factor blocks (`gathered[k]` is row-major with `cols` columns, one row per
/// mode-`k` index of the block; entry `n` is ignored), as the row-major
/// partial the reduce-scatter sums. A rank that owns no entries (`None`)
/// contributes zeros, `rows x cols` of them.
pub(crate) fn local_partial(
    block: Option<&TensorBlock>,
    gathered: Vec<Vec<f64>>,
    n: usize,
    rows: usize,
    cols: usize,
) -> Vec<f64> {
    let Some(block) = block else {
        return vec![0.0; rows * cols];
    };
    let dims = block.shape().dims();
    let factors: Vec<Matrix> = gathered
        .into_iter()
        .enumerate()
        .map(|(k, data)| {
            if k == n {
                Matrix::zeros(dims[n], cols)
            } else {
                Matrix::from_rows_vec(dims[k], cols, data)
            }
        })
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    block_mttkrp(block, &refs, n).into_data()
}

/// What one rank owns for Algorithm 3 (stationary tensor): a view of its
/// subtensor block `S^(k)_{p_k} = split_range(I_k, P_k, p_k)` and, for every
/// mode `k`, its chunk of the block row `A^(k)(S^(k)_{p_k}, :)` (partitioned
/// by rows across the mode-`k` hyperslice).
#[derive(Clone, Debug)]
pub struct Alg3Shard<'a> {
    /// World rank this shard belongs to.
    pub rank: usize,
    /// Owned index ranges `S^(k)_{p_k}` per mode.
    pub ranges: Vec<(usize, usize)>,
    /// The owned (stationary) subtensor block, read in place; `None` when it
    /// is empty in some mode.
    pub block: Option<TensorBlock<'a>>,
    /// Global factor row range owned per mode (also the rows of `B^(n)`
    /// this rank ends up with after the reduce-scatter, for `k = n`).
    pub factor_rows: Vec<(usize, usize)>,
    /// Owned factor rows per mode, as row-major `rows x R` data (a rank
    /// may own zero rows of a block when the hyperslice outnumbers them).
    pub factor_chunks: Vec<Vec<f64>>,
}

/// Cuts the operands into one [`Alg3Shard`] per rank of `grid`.
pub fn shard_alg3<'a>(
    x: &'a DenseTensor,
    factors: &[&Matrix],
    n: usize,
    grid: &[usize],
) -> Vec<Alg3Shard<'a>> {
    (0..ProcessorGrid::new(grid).num_ranks())
        .map(|me| alg3_shard(x, factors, n, grid, me))
        .collect()
}

/// World rank `me`'s [`Alg3Shard`] of `grid`.
pub fn alg3_shard<'a>(
    x: &'a DenseTensor,
    factors: &[&Matrix],
    n: usize,
    grid: &[usize],
    me: usize,
) -> Alg3Shard<'a> {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shape = x.shape();
    let order = shape.order();
    check_grid(shape.dims(), grid);
    let pgrid = ProcessorGrid::new(grid);
    let coords = pgrid.coords(me);
    let ranges: Vec<(usize, usize)> = (0..order)
        .map(|k| split_range(shape.dim(k), grid[k], coords[k]))
        .collect();
    let mut factor_rows = Vec::with_capacity(order);
    let mut factor_chunks = Vec::with_capacity(order);
    for k in 0..order {
        let comm = pgrid.hyperslice_comm(me, k);
        let my_idx = comm.local_index(me).expect("member of own hyperslice");
        let block_rows = ranges[k].1 - ranges[k].0;
        let (lo, hi) = split_range(block_rows, comm.size(), my_idx);
        let (g0, g1) = (ranges[k].0 + lo, ranges[k].0 + hi);
        factor_rows.push((g0, g1));
        let mut chunk = Vec::with_capacity((g1 - g0) * r);
        for row in g0..g1 {
            chunk.extend_from_slice(factors[k].row(row));
        }
        factor_chunks.push(chunk);
    }
    Alg3Shard {
        rank: me,
        block: block_of(x, &ranges),
        ranges,
        factor_rows,
        factor_chunks,
    }
}

/// What one rank owns for Algorithm 4 (general): a `1/P_0` part of its
/// subtensor block (the tensor *is* communicated in Algorithm 4) and, for
/// every mode, its row chunk of `A^(k)(S^(k), T_{p_0})` — the `T_{p_0} =
/// split_range(R, P_0, p_0)` column slice of the factor.
#[derive(Clone, Debug)]
pub struct Alg4Shard {
    /// World rank this shard belongs to.
    pub rank: usize,
    /// Owned index ranges `S^(k)` per mode (shared by the `P_0` fiber).
    pub ranges: Vec<(usize, usize)>,
    /// Owned flat slice `[t_lo, t_hi)` of the subtensor's colex data.
    pub part_range: (usize, usize),
    /// The owned subtensor part (colex order within the block).
    pub tensor_part: Vec<f64>,
    /// Owned column range `T_{p_0} = [c_lo, c_hi)` of every factor.
    pub col_range: (usize, usize),
    /// Global factor row range owned per mode.
    pub factor_rows: Vec<(usize, usize)>,
    /// Owned factor chunks per mode, as row-major `rows x |T_{p_0}|` data.
    pub factor_chunks: Vec<Vec<f64>>,
}

/// Cuts the operands into one [`Alg4Shard`] per rank of the `(N+1)`-way
/// grid `P_0 x P_1 x ... x P_N`.
pub fn shard_alg4(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    p0: usize,
    grid: &[usize],
) -> Vec<Alg4Shard> {
    (0..p0 * ProcessorGrid::new(grid).num_ranks())
        .map(|me| alg4_shard(x, factors, n, p0, grid, me))
        .collect()
}

/// World rank `me`'s [`Alg4Shard`] of the grid `p0 x grid`. Its tensor part
/// is copied straight from its block, without the rest of the block.
pub fn alg4_shard(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    p0: usize,
    grid: &[usize],
    me: usize,
) -> Alg4Shard {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shape = x.shape();
    let order = shape.order();
    check_grid(shape.dims(), grid);
    assert!(p0 >= 1, "P_0 must be at least 1");
    let mut gdims = Vec::with_capacity(order + 1);
    gdims.push(p0);
    gdims.extend_from_slice(grid);
    let pgrid = ProcessorGrid::new(&gdims);

    let coords = pgrid.coords(me);
    let ranges: Vec<(usize, usize)> = (0..order)
        .map(|k| split_range(shape.dim(k), grid[k], coords[k + 1]))
        .collect();
    let (c_lo, c_hi) = split_range(r, p0, coords[0]);

    // The owned 1/P_0 part of the subtensor's flat (colex) data.
    let fiber = pgrid.fiber_comm(me, 0);
    let my_fiber_idx = fiber.local_index(me).expect("member of own fiber");
    let block = block_of(x, &ranges);
    let entries = block.as_ref().map_or(0, |b| b.shape().num_entries());
    let (t_lo, t_hi) = split_range(entries, fiber.size(), my_fiber_idx);
    let tensor_part = block.map_or_else(Vec::new, |b| b.copy_entries(t_lo, t_hi));

    let mut factor_rows = Vec::with_capacity(order);
    let mut factor_chunks = Vec::with_capacity(order);
    for k in 0..order {
        let varying: Vec<usize> = (0..=order).filter(|&j| j != 0 && j != k + 1).collect();
        let comm = pgrid.slice_comm(me, &varying);
        let my_idx = comm.local_index(me).expect("member of own slice");
        let block_rows = ranges[k].1 - ranges[k].0;
        let (lo, hi) = split_range(block_rows, comm.size(), my_idx);
        let (g0, g1) = (ranges[k].0 + lo, ranges[k].0 + hi);
        factor_rows.push((g0, g1));
        let mut chunk = Vec::with_capacity((g1 - g0) * (c_hi - c_lo));
        for row in g0..g1 {
            chunk.extend_from_slice(&factors[k].row(row)[c_lo..c_hi]);
        }
        factor_chunks.push(chunk);
    }
    Alg4Shard {
        rank: me,
        ranges,
        part_range: (t_lo, t_hi),
        tensor_part,
        col_range: (c_lo, c_hi),
        factor_rows,
        factor_chunks,
    }
}

/// What one rank owns for the 1D parallel matmul baseline: a view of its
/// slab of the contraction dimension (the `split_range` piece of the
/// highest-index mode other than `n`) plus — per the paper's generous
/// baseline assumptions — replicas of the non-slab factors.
#[derive(Clone, Debug)]
pub struct MatmulShard<'a> {
    /// The slabbed mode.
    pub slab_mode: usize,
    /// Owned slab range of the slab mode.
    pub slab_range: (usize, usize),
    /// The owned tensor slab, read in place; `None` when the slab is empty.
    pub block: Option<TensorBlock<'a>>,
    /// Per-mode local factors: the slab rows for `slab_mode`, full replicas
    /// otherwise (a zero placeholder for mode `n`); none when the slab is
    /// empty.
    pub local_factors: Vec<Matrix>,
    /// Rows of every rank's partial product: `I_n`.
    pub(crate) partial_rows: usize,
    /// Rows of `B^(n)` this rank keeps after the reduce-scatter.
    pub out_rows: (usize, usize),
}

/// Cuts the operands into one [`MatmulShard`] per rank.
pub fn shard_matmul<'a>(
    x: &'a DenseTensor,
    factors: &[&Matrix],
    n: usize,
    procs: usize,
) -> Vec<MatmulShard<'a>> {
    (0..procs)
        .map(|me| matmul_shard(x, factors, n, procs, me))
        .collect()
}

/// Rank `me`'s [`MatmulShard`] of `procs`.
pub fn matmul_shard<'a>(
    x: &'a DenseTensor,
    factors: &[&Matrix],
    n: usize,
    procs: usize,
    me: usize,
) -> MatmulShard<'a> {
    let r = mttkrp_tensor::validate_operands(x, factors, n);
    let shape = x.shape();
    let order = shape.order();
    let slab_mode = (0..order).rev().find(|&k| k != n).expect("order >= 2");
    let (s_lo, s_hi) = split_range(shape.dim(slab_mode), procs, me);
    let ranges: Vec<(usize, usize)> = (0..order)
        .map(|k| {
            if k == slab_mode {
                (s_lo, s_hi)
            } else {
                (0, shape.dim(k))
            }
        })
        .collect();
    let block = block_of(x, &ranges);
    let local_factors: Vec<Matrix> = match block {
        None => Vec::new(),
        Some(_) => (0..order)
            .map(|k| {
                if k == slab_mode {
                    factors[k].row_block(s_lo, s_hi)
                } else if k == n {
                    Matrix::zeros(shape.dim(n), r)
                } else {
                    factors[k].clone()
                }
            })
            .collect(),
    };
    MatmulShard {
        slab_mode,
        slab_range: (s_lo, s_hi),
        block,
        local_factors,
        partial_rows: shape.dim(n),
        out_rows: split_range(shape.dim(n), procs, me),
    }
}

/// The reduce-scatter segment sizes (in words) for distributing `rows`
/// output rows of width `r` over a communicator of `q` ranks.
pub(crate) fn output_counts(rows: usize, r: usize, q: usize) -> Vec<usize> {
    split_sizes(rows, q).into_iter().map(|c| c * r).collect()
}
