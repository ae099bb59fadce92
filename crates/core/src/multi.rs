//! Multi-mode MTTKRP with intermediate reuse — the Section VII extension.
//!
//! CP-ALS needs `MTTKRP(X, ., n)` for *every* mode `n` per sweep. The paper
//! notes (citing Phan et al. \[13\]) that computing the modes jointly "can
//! save both communication and computation" because partial contractions
//! are shared. This module implements the *dimension-tree* organization.
//!
//! A node for a contiguous mode range `S = [lo, hi)` holds the partial
//! `Y_S(i_S, r) = sum_{i_notS} X(i) * prod_{k not in S} A^(k)(i_k, r)`, an
//! `(prod_S I_k) x R` matrix with `i_S` colexicographic; a leaf `S = {n}`
//! *is* the mode-`n` MTTKRP output. Storage is colexicographic, so forming
//! `Y_S` from `X` is an ordinary MTTKRP of a *reshaped view of the same
//! buffer* ([`pass_view`]), run by whichever kernel the caller already has;
//! below a partial only [`contract_partial`] is new arithmetic.
//!
//! [`sweep_steps`] lists the steps in in-order (Gauss-Seidel) sequence: `Y_S`
//! depends only on factors outside `S`, so a caller that updates `A^(n)`
//! right after leaf `n` feeds every later step the factors a per-mode sweep
//! would have used. [`mttkrp_all_modes_tree`] is the one-snapshot evaluation;
//! `mttkrp-exec`'s `SweepPlan` and the `mttkrp-als` engine walk the same steps.

use crate::arith::{atomic_kernel_flops, streamed_kernel_flops};
use crate::kernels::local_mttkrp;
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use std::borrow::Borrow;

/// Multiply/add counts of one multi-MTTKRP evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlopCount {
    /// Scalar multiplications performed.
    pub muls: u64,
    /// Scalar additions performed.
    pub(crate) adds: u64,
}

impl FlopCount {
    /// Total flops.
    pub fn total(&self) -> u64 {
        self.muls + self.adds
    }
}

/// One step of a sweep over the dimension tree: form `Y_[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeStep {
    /// First mode of the range.
    pub lo: usize,
    /// One past the last mode of the range.
    pub hi: usize,
    /// Index (in the step list) of the step whose partial this one is
    /// contracted from; `None` for a pass over the tensor itself.
    pub parent: Option<usize>,
}

impl TreeStep {
    /// Whether the step's output is a mode's MTTKRP (a one-mode range).
    pub fn is_leaf(&self) -> bool {
        self.hi - self.lo == 1
    }
}

/// The steps of one sweep over a `dims` tensor at rank `rank`, in execution
/// order (leaf `n` is the `n`-th leaf).
///
/// `0..N` is halved recursively. A range of two or more modes gets a shared
/// partial iff the partial is no larger than what it is contracted from:
/// always below another partial, and off the tensor when `R` is at most the
/// product of the dropped extents. The halves of a range without one are
/// formed from the tensor in their turn, down to one pass per mode.
pub fn sweep_steps(dims: &[usize], rank: usize) -> Vec<TreeStep> {
    fn halve(
        dims: &[usize],
        rank: usize,
        (lo, hi): (usize, usize),
        parent: Option<usize>,
        steps: &mut Vec<TreeStep>,
    ) {
        let mid = lo + (hi - lo).div_ceil(2);
        for (lo, hi) in [(lo, mid), (mid, hi)] {
            let dropped = (dims[..lo].iter().chain(&dims[hi..]))
                .fold(1u128, |acc, &d| acc.saturating_mul(d as u128));
            let mut parent = parent;
            if hi - lo == 1 || parent.is_some() || rank as u128 <= dropped {
                steps.push(TreeStep { lo, hi, parent });
                parent = Some(steps.len() - 1);
            }
            if hi - lo > 1 {
                halve(dims, rank, (lo, hi), parent, steps);
            }
        }
    }
    assert!(dims.len() >= 2, "MTTKRP requires an order >= 2 tensor");
    let mut steps = Vec::new();
    halve(dims, rank, (0, dims.len()), None, &mut steps);
    steps
}

/// The MTTKRP that forms `Y_[lo, hi)` from the tensor: the dims of the view
/// with the range's modes merged into one, and that mode's index. The view's
/// operands are the factors outside the range, in order, around the merged
/// mode's own slot (ignored, as in every MTTKRP).
pub fn pass_view(dims: &[usize], lo: usize, hi: usize) -> (Vec<usize>, usize) {
    let merged = dims[lo..hi].iter().product();
    ([&dims[..lo], &[merged], &dims[hi..]].concat(), lo)
}

/// The flops of step `i` as its loops run them: [`streamed_kernel_flops`] of
/// the [`pass_view`] for a tensor pass; for a contraction one Hadamard row
/// per dropped index (`R` multiplies per dropped mode after the first) and
/// `R` multiply-adds per parent entry.
pub fn step_flops(dims: &[usize], rank: usize, steps: &[TreeStep], i: usize) -> FlopCount {
    let words = |s: TreeStep| dims[s.lo..s.hi].iter().product::<usize>() as u64 * rank as u64;
    let step = steps[i];
    let (muls, adds) = match step.parent.map(|p| steps[p]) {
        None => {
            let (view, mode) = pass_view(dims, step.lo, step.hi);
            streamed_kernel_flops(&view, rank, mode)
        }
        Some(parent) => {
            let dropped_modes = ((parent.hi - parent.lo) - (step.hi - step.lo)) as u64;
            let hadamard = words(parent) / words(step) * (dropped_modes - 1) * rank as u64;
            (hadamard + words(parent), words(parent))
        }
    };
    FlopCount { muls, adds }
}

/// Contracts `parent`, the partial of step `from`, down to `out`, that of
/// `to` (a prefix or suffix of `from`'s range), multiplying in the factors of
/// the dropped modes: `out(i_keep, :) = sum_{i_drop} parent(i_keep, i_drop, :)
/// ∘ w(i_drop)`, `w` being the Hadamard product of the dropped modes' factor
/// rows. `out` is overwritten.
///
/// The rows `w` are formed once per call, each as the product of its factor
/// rows in ascending mode order, into `scratch` (resized to fit, so a caller
/// that keeps it allocates only the first time); when one mode is dropped
/// they are that factor's rows, read where they lie. Then every output entry
/// is summed from zero over `i_drop` in ascending (colex) order, one unfused
/// multiply and add per term. The parent's rows for one dropped index are
/// contiguous when a prefix is kept, and those for one kept index when a
/// suffix is, so the loop over that contiguous range is the inner one.
pub fn contract_partial(
    parent: &Matrix,
    from: TreeStep,
    to: TreeStep,
    factors: &[impl Borrow<Matrix>],
    out: &mut Matrix,
    scratch: &mut Vec<f64>,
) {
    let keeps_prefix = to.lo == from.lo;
    assert!(
        keeps_prefix != (to.hi == from.hi) && from.lo <= to.lo && to.hi <= from.hi,
        "{to:?} is not a proper prefix or suffix of {from:?}"
    );
    let dropped = if keeps_prefix {
        to.hi..from.hi
    } else {
        from.lo..to.lo
    };
    let (r, kept_rows) = (parent.cols(), out.rows());
    let dropped_rows = parent.rows() / kept_rows;
    let factor = |k: usize| -> &Matrix { factors[k].borrow() };
    let w: &[f64] = if dropped.len() == 1 {
        factor(dropped.start).data()
    } else {
        scratch.resize(dropped_rows * r, 0.0);
        for (i_drop, w) in scratch.chunks_exact_mut(r).enumerate() {
            let mut rest = i_drop;
            for (m, k) in dropped.clone().enumerate() {
                let rows = factor(k).rows();
                let row = factor(k).row(rest % rows);
                rest /= rows;
                if m == 0 {
                    w.copy_from_slice(row);
                } else {
                    w.iter_mut().zip(row).for_each(|(wv, &a)| *wv *= a);
                }
            }
        }
        scratch.as_slice()
    };
    let add = |orow: &mut [f64], yrow: &[f64], wrow: &[f64]| {
        for ((ov, &yv), &wv) in orow.iter_mut().zip(yrow).zip(wrow) {
            *ov += yv * wv;
        }
    };
    let (src, dst) = (parent.data(), out.data_mut());
    dst.fill(0.0);
    if keeps_prefix {
        // Parent row `i_keep + i_drop * kept_rows`.
        for (block, wrow) in src.chunks_exact(kept_rows * r).zip(w.chunks_exact(r)) {
            for (orow, yrow) in dst.chunks_exact_mut(r).zip(block.chunks_exact(r)) {
                add(orow, yrow, wrow);
            }
        }
    } else {
        // Parent row `i_keep * dropped_rows + i_drop`.
        for (orow, block) in dst
            .chunks_exact_mut(r)
            .zip(src.chunks_exact(dropped_rows * r))
        {
            for (yrow, wrow) in block.chunks_exact(r).zip(w.chunks_exact(r)) {
                add(orow, yrow, wrow);
            }
        }
    }
}

/// Computes `MTTKRP(X, {A}, n)` for **every** mode `n` from one snapshot of
/// the factors, walking [`sweep_steps`]: each tensor pass is
/// [`local_mttkrp`] on the [`pass_view`], each other step a
/// [`contract_partial`]. Returns the `N` output matrices (index `n` holds
/// `B^(n)`) and the flops run ([`step_flops`] summed).
///
/// All `N` factors participate (unlike single-mode MTTKRP, no factor is
/// ignored: factor `n` is used by every other mode's output). Outputs agree
/// with per-mode MTTKRPs to rounding, not bit for bit.
pub fn mttkrp_all_modes_tree(x: &DenseTensor, factors: &[&Matrix]) -> (Vec<Matrix>, FlopCount) {
    let dims = x.shape().dims();
    assert_eq!(factors.len(), dims.len(), "need one factor per mode");
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), dims[k], "factor {k} row mismatch");
        assert_eq!(f.cols(), r, "factor {k} rank mismatch");
    }

    let steps = sweep_steps(dims, r);
    let mut flops = FlopCount::default();
    let mut partials: Vec<Matrix> = Vec::with_capacity(steps.len());
    let mut scratch = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let mut y = Matrix::zeros(dims[step.lo..step.hi].iter().product(), r);
        if let Some(p) = step.parent {
            contract_partial(&partials[p], steps[p], *step, factors, &mut y, &mut scratch);
        } else {
            let (view, mode) = pass_view(dims, step.lo, step.hi);
            // `y` stands in the ignored slot until the kernel's output replaces it.
            let operands = [&factors[..step.lo], &[&y], &factors[step.hi..]].concat();
            y = local_mttkrp(&x.reshaped(Shape::new(&view)), &operands, mode);
        }
        let run = step_flops(dims, r, &steps, i);
        flops.muls += run.muls;
        flops.adds += run.adds;
        partials.push(y);
    }
    let leaves = steps.iter().zip(partials).filter(|(s, _)| s.is_leaf());
    (leaves.map(|(_, y)| y).collect(), flops)
}

/// The naive comparison: `N` independent single-mode MTTKRPs, counted as
/// Definition 2.1's atomic `N`-ary multiplies ([`atomic_kernel_flops`]).
pub fn mttkrp_all_modes_naive(x: &DenseTensor, factors: &[&Matrix]) -> (Vec<Matrix>, FlopCount) {
    let (order, r) = (x.order() as u64, factors[0].cols() as u64);
    // The counts are linear in the entries: N passes are one over N |X|.
    let (muls, adds) = atomic_kernel_flops(order * x.num_entries() as u64, r, order);
    let outputs = (0..x.order()).map(|n| local_mttkrp(x, factors, n));
    (outputs.collect(), FlopCount { muls, adds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_tensor::mttkrp_reference;

    fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape, seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 90 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn tree_matches_oracle_3way() {
        let (x, factors) = build(&[4, 5, 3], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
        for n in 0..3 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(
                outs[n].max_abs_diff(&oracle) < 1e-10,
                "mode {n}: {}",
                outs[n].max_abs_diff(&oracle)
            );
        }
    }

    #[test]
    fn tree_matches_oracle_4way_and_5way() {
        for dims in [vec![3usize, 4, 2, 3], vec![2, 3, 2, 3, 2]] {
            let (x, factors) = build(&dims, 2, 2);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
            for n in 0..dims.len() {
                let oracle = mttkrp_reference(&x, &refs, n);
                assert!(
                    outs[n].max_abs_diff(&oracle) < 1e-10,
                    "dims {dims:?} mode {n}"
                );
            }
        }
    }

    #[test]
    fn tree_matches_oracle_2way() {
        let (x, factors) = build(&[5, 6], 3, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
        for n in 0..2 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(outs[n].max_abs_diff(&oracle) < 1e-10);
        }
    }

    #[test]
    fn naive_matches_oracle_too() {
        let (x, factors) = build(&[4, 3, 4], 2, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_naive(&x, &refs);
        for n in 0..3 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(outs[n].max_abs_diff(&oracle) < 1e-10);
        }
    }

    #[test]
    fn tree_saves_multiplies_at_order_4_plus() {
        // The reuse claim of Section VII: fewer multiplies than N
        // independent MTTKRPs.
        for dims in [vec![6usize, 6, 6, 6], vec![4, 4, 4, 4, 4]] {
            let (x, factors) = build(&dims, 3, 5);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (_, tree) = mttkrp_all_modes_tree(&x, &refs);
            let (_, naive) = mttkrp_all_modes_naive(&x, &refs);
            assert!(
                tree.muls < naive.muls,
                "dims {dims:?}: tree {} !< naive {}",
                tree.muls,
                naive.muls
            );
        }
    }

    #[test]
    fn tree_savings_grow_with_order() {
        // Ratio naive/tree multiplies should grow with N (N^2 vs ~N).
        let mut prev_ratio = 0.0;
        for order in [3usize, 4, 5, 6] {
            let dims = vec![3usize; order];
            let (x, factors) = build(&dims, 2, 6);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let (_, tree) = mttkrp_all_modes_tree(&x, &refs);
            let (_, naive) = mttkrp_all_modes_naive(&x, &refs);
            let ratio = naive.muls as f64 / tree.muls as f64;
            assert!(
                ratio > prev_ratio * 0.95,
                "ratio should trend upward: N={order} ratio {ratio:.2} prev {prev_ratio:.2}"
            );
            prev_ratio = ratio;
        }
        assert!(prev_ratio > 1.5, "at N=6 the tree should win clearly");
    }

    #[test]
    fn flop_counter_consistency() {
        // Naive counter formula: N * I * R * (N-1) muls, N * I * R adds.
        let (x, factors) = build(&[3, 3, 3], 2, 7);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (_, naive) = mttkrp_all_modes_naive(&x, &refs);
        let i = 27u64;
        assert_eq!(naive.muls, 3 * i * 2 * 2);
        assert_eq!(naive.adds, 3 * i * 2);
        assert_eq!(naive.total(), naive.muls + naive.adds);
    }

    #[test]
    fn rectangular_dims_exercise_index_mapping() {
        let (x, factors) = build(&[2, 7, 3, 5], 3, 8);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, _) = mttkrp_all_modes_tree(&x, &refs);
        for n in 0..4 {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(outs[n].max_abs_diff(&oracle) < 1e-10, "mode {n}");
        }
    }
}
