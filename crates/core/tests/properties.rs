//! Property-based tests for the core algorithms: every implementation
//! agrees with the oracle on random problems, measured costs equal the
//! closed-form models, and the lower-bound machinery holds on random
//! iteration subsets.

use mttkrp_core::multi::{self, TreeStep};
use mttkrp_core::{bounds, hbl, kernels, model, par, seq, Problem};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use proptest::prelude::*;
use std::collections::HashSet;

fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed ^ ((k as u64 + 3) * 104729)))
        .collect();
    (x, factors)
}

fn bits(words: &[f64]) -> Vec<u64> {
    words.iter().map(|v| v.to_bits()).collect()
}

/// The kernel's contract computed naively, one run piece at a time and column
/// by column — no panels, no blocks, no vectors. A piece is `len` entries from
/// flat index `first` on, inside one mode-0 run. Its Hadamard row `w` is
/// multiplied up from ones over the modes other than `0` and `n`, ascending;
/// then `n == 0` adds `x_i * w` to each entry's own row, and any other mode
/// sums `x_i * a0_i` from zero in run order and applies `w` once. Every
/// multiply-add is one fused operation.
fn naive_pieces(
    x: &DenseTensor,
    factors: &[&Matrix],
    n: usize,
    pieces: &[(usize, usize)],
    out: &mut Matrix,
) {
    let r = out.cols();
    let mut idx = vec![0usize; x.order()];
    for &(first, len) in pieces {
        x.shape().delinearize_into(first, &mut idx);
        let run = &x.data()[first..first + len];
        for c in 0..r {
            let mut w = 1.0;
            for (k, f) in factors.iter().enumerate().skip(1) {
                if k != n {
                    w *= f[(idx[k], c)];
                }
            }
            if n == 0 {
                for (i, &xv) in (idx[0]..).zip(run) {
                    out[(i, c)] = xv.mul_add(w, out[(i, c)]);
                }
            } else {
                let mut s = 0.0;
                for (i, &xv) in (idx[0]..).zip(run) {
                    s = xv.mul_add(factors[0][(i, c)], s);
                }
                out[(idx[n], c)] = s.mul_add(w, out[(idx[n], c)]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_equals_oracle_any_block_size(
        dims in prop::collection::vec(2usize..6, 2..4),
        r in 1usize..4,
        b in 1usize..4,
        seed in 0u64..1000,
        mode_frac in 0.0f64..1.0,
    ) {
        let n = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let order = dims.len();
        let m = b.pow(order as u32) + order * b + 2;
        let run = seq::mttkrp_blocked(&x, &refs, n, m, b);
        let oracle = mttkrp_reference(&x, &refs, n);
        prop_assert!(run.output.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));

        // Measured I/O equals the exact model.
        let p = Problem::new(&dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(), r as u64);
        prop_assert_eq!(run.stats.total() as u128, model::alg2_cost_exact(&p, n, b as u64));
        // ... and never exceeds Eq. (12).
        prop_assert!(run.stats.total() as f64 <= model::alg2_cost_upper(&p, b as u64) + 0.5);
        // ... and respects the lower bounds.
        prop_assert!(run.stats.total() as f64 >= bounds::seq_best(&p, m as u64));
    }

    #[test]
    fn local_mttkrp_equals_oracle_however_the_stream_is_cut(
        mut dims in prop::collection::vec(1usize..7, 2..6),
        pinned in 0usize..3,
        r_pick in 0usize..5,
        seed in 0u64..1000,
    ) {
        // A third of the cases each pin I_0 = 1 (every run is one entry) and
        // order 2 (mode 1 leaves no factor for the Hadamard row: all ones).
        // How tiles cut the stream is `the_box_walk_…`'s.
        match pinned {
            0 => dims[0] = 1,
            1 => dims.truncate(2),
            _ => {}
        }
        let r = [1, 2, 3, 5, 8][r_pick];
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        for n in 0..dims.len() {
            let whole = kernels::local_mttkrp(&x, &refs, n);
            let oracle = mttkrp_reference(&x, &refs, n);
            prop_assert!(whole.max_abs_diff(&oracle) <= 1e-12 * (1.0 + oracle.frob_norm()));
        }
    }

    #[test]
    fn a_panel_is_its_pieces_bit_for_bit(
        order in 2usize..6,
        r_pick in 0usize..8,
        extents in prop::collection::vec(1usize..5, 5..=5),
        picks in prop::collection::vec(0usize..1000, 6..=6),
        seed in 0u64..1000,
    ) {
        // The ranks sit on both sides of every column-block width; below,
        // `p mod 4` takes every value and `p < 4` occurs.
        let r = [1, 2, 3, 5, 8, 13, 16, 33][r_pick];
        let mut dims = extents[..order].to_vec();
        dims[0] += 2;
        dims[1] += 10;
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (i0, entries) = (dims[0], x.num_entries());

        // One panel: `p` pieces shorter than their runs (a tile's share),
        // somewhere inside a mode-1 fibre.
        for p in [1, 2, 3, 4, 5, 7, 8, 9] {
            let mut idx: Vec<usize> = dims.iter().zip(&picks).map(|(&d, &v)| v % d).collect();
            idx[1] = picks[1] % (dims[1] - p + 1);
            let len = 1 + picks[5] % (i0 - idx[0]);
            let first = x.shape().linearize(&idx);
            let panel = kernels::Panel {
                entries: &x.data()[first..],
                stride: i0,
                pieces: p,
                len,
                i0: idx[0],
            };
            let pieces: Vec<(usize, usize)> = (0..p).map(|j| (first + j * i0, len)).collect();
            let mut block = vec![f64::NAN; p * r];
            for (n, &i_n) in dims.iter().enumerate() {
                let before = Matrix::random(i_n, r, seed + 7);
                let mut got = before.clone();
                kernels::hadamard_block(&refs, n, &idx, p, &mut block);
                kernels::accumulate_panel(&panel, refs[0], n, idx[n], &block, got.data_mut());
                let mut want = before;
                naive_pieces(&x, &refs, n, &pieces, &mut want);
                prop_assert_eq!(bits(got.data()), bits(want.data()), "p = {}, mode {}", p, n);
            }
        }

        // The whole tensor: every run one piece, summed from zero.
        for (n, &i_n) in dims.iter().enumerate() {
            let mut want = Matrix::zeros(i_n, r);
            let runs: Vec<(usize, usize)> = (0..entries).step_by(i0).map(|lin| (lin, i0)).collect();
            naive_pieces(&x, &refs, n, &runs, &mut want);
            let whole = kernels::local_mttkrp(&x, &refs, n);
            prop_assert_eq!(bits(whole.data()), bits(want.data()), "whole, mode {}", n);
        }
    }

    #[test]
    fn the_box_walk_is_local_mttkrp_on_a_copy_of_the_box(
        order in 2usize..6,
        r_pick in 0usize..8,
        dims in prop::collection::vec(1usize..6, 5..=5),
        kinds in prop::collection::vec(0usize..4, 5..=5),
        picks in prop::collection::vec(0usize..1000, 10..=10),
        seed in 0u64..1000,
    ) {
        let r = [1, 2, 3, 5, 8, 13, 16, 33][r_pick];
        let dims = &dims[..order];
        // Per mode: the whole extent, an edge (through the last index), one
        // index wide, or anywhere.
        let ranges: Vec<(usize, usize)> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| {
                let (a, b) = (picks[2 * k] % d, picks[2 * k + 1] % d);
                match kinds[k] {
                    0 => (0, d),
                    1 => (a, d),
                    2 => (a, a + 1),
                    _ => (a.min(b), a.max(b) + 1),
                }
            })
            .collect();
        let (x, factors) = build(dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let copy = x.subtensor(&ranges);
        let rows: Vec<Matrix> = factors
            .iter()
            .zip(&ranges)
            .map(|(f, &(lo, hi))| f.row_block(lo, hi))
            .collect();
        let rows: Vec<&Matrix> = rows.iter().collect();
        let block = kernels::TensorBlock::new(&x, &ranges);
        let whole = kernels::TensorBlock::whole(&x);
        let i0 = copy.shape().dim(0);
        let runs: Vec<(usize, usize)> = (0..copy.num_entries()).step_by(i0).map(|lin| (lin, i0)).collect();
        for n in 0..order {
            let want = kernels::local_mttkrp(&copy, &rows, n);
            // The copy's runs one piece each, the contract applied naively.
            let mut naive = Matrix::zeros(want.rows(), r);
            naive_pieces(&copy, &rows, n, &runs, &mut naive);
            prop_assert_eq!(bits(want.data()), bits(naive.data()), "naive, mode {}", n);

            // A rank's block: indices from the block's origin.
            let got = kernels::block_mttkrp(&block, &rows, n);
            prop_assert_eq!(bits(got.data()), bits(want.data()), "block, mode {}", n);

            // The same box of the whole tensor, global indices, output rows
            // from the box's first on (`out_row0`) unless `n == 0`. One tile
            // covering the box has the copy's bits; smaller tiles cut runs
            // into pieces and reorder what reaches an output row, and agree
            // to rounding.
            let (lo, hi) = ranges[n];
            let row0 = if n == 0 { 0 } else { lo };
            for tile in [usize::MAX, 1, 2, 3] {
                let mut out = Matrix::zeros(hi - row0, r);
                kernels::accumulate_box(&whole, &refs, n, &ranges, tile, row0, out.data_mut());
                prop_assert!(out.data()[..(lo - row0) * r].iter().all(|&v| v == 0.0));
                let got = out.row_block(lo - row0, hi - row0);
                if tile == usize::MAX {
                    prop_assert_eq!(bits(got.data()), bits(want.data()), "tile, mode {}", n);
                } else {
                    let tol = 1e-12 * (1.0 + want.frob_norm());
                    prop_assert!(got.max_abs_diff(&want) <= tol, "mode {}, tile {}", n, tile);
                }
            }
        }
    }

    #[test]
    fn stationary_equals_oracle_on_random_grids(
        dims in prop::collection::vec(1usize..=9, 3..=3),
        grid in prop::collection::vec(1usize..=4, 3..=3),
        r in 1usize..4,
        seed in 0u64..1000,
        mode_frac in 0.0f64..1.0,
    ) {
        // No divisibility: uneven blocks, and empty ones where P_k > I_k.
        let n = 2usize.min(((dims.len() - 1) as f64 * mode_frac) as usize);
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_stationary(&x, &refs, n, &grid);
        let oracle = mttkrp_reference(&x, &refs, n);
        prop_assert!(run.output.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));
    }

    #[test]
    fn general_equals_oracle_with_rank_splits(
        p0_exp in 0u32..3,
        r_mult in 1usize..3,
        seed in 0u64..1000,
    ) {
        let p0 = 1usize << p0_exp;
        let r = p0 * r_mult;
        let dims = [4usize, 4, 4];
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_general(&x, &refs, 1, p0, &[2, 1, 2]);
        let oracle = mttkrp_reference(&x, &refs, 1);
        prop_assert!(run.output.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));
    }

    #[test]
    fn hbl_inequality_random_subsets(
        pts in prop::collection::vec(prop::collection::vec(0usize..5, 4..=4), 1..40),
    ) {
        // Lemma 4.1 with s* on arbitrary subsets of a 3-way iteration space.
        let set: HashSet<Vec<usize>> = pts.into_iter().collect();
        let f: Vec<Vec<usize>> = set.into_iter().collect();
        let bound = hbl::hbl_upper_bound(&f, 3);
        prop_assert!(f.len() as f64 <= bound + 1e-9);
    }

    #[test]
    fn lower_bounds_dominated_by_alg2_model(
        log_m in 4u32..14,
        dim_exp in 3u32..7,
        r in 1u64..64,
    ) {
        // The Eq. (12)-style upper bound with the best feasible b must
        // dominate the lower bounds for every parameter combination
        // (soundness of the pair; Theorem 6.1 says they are also within a
        // constant in the right regime).
        let m = 1u64 << log_m;
        let p = Problem::cubical(3, 1u64 << dim_exp, r);
        let b = seq::choose_block_size(m as usize, 3) as u64;
        let ub = model::alg2_cost_exact(&p, 0, b) as f64;
        let lb = bounds::seq_best(&p, m);
        prop_assert!(ub >= lb - 1e-6, "ub {ub} < lb {lb}");
    }

    #[test]
    fn parallel_bounds_dominated_by_alg4_model(
        log_p in 0u32..16,
        dim_exp in 4u32..9,
        r_exp in 0u32..8,
    ) {
        // Sends+receives of the best Eq. (18) grid (2x the one-way model)
        // dominate the memory-independent bounds.
        let procs = 1u64 << log_p;
        let p = Problem::cubical(3, 1u64 << dim_exp, 1u64 << r_exp);
        let (_, _, cost) = mttkrp_core::grid_opt::optimize_alg4_grid(&p, procs);
        let lb = bounds::par_best_mi(&p, procs);
        prop_assert!(2.0 * cost >= lb - 1e-6, "2*{cost} < {lb}");
    }

    #[test]
    fn lemma_43_44_are_inverse_like(c in 0.5f64..50.0, s1 in 0.1f64..1.0, s2 in 0.1f64..1.0) {
        // If the max product under sum <= c is V, then the min sum under
        // product >= V is c (the optimizers coincide).
        let s = [s1, s2];
        let v = hbl::lemma43_max_product(&s, c);
        let back = hbl::lemma44_min_sum(&s, v);
        prop_assert!((back - c).abs() < 1e-6 * c, "{back} != {c}");
    }

    #[test]
    fn grid_optimizer_never_beaten_by_random_factorization(
        procs in 1u64..200,
        dim in 8u64..64,
        r in 1u64..16,
        pick in 0usize..50,
    ) {
        let p = Problem::new(&[dim, dim * 2, dim / 2 + 1], r);
        let (_, best) = mttkrp_core::grid_opt::optimize_alg3_grid(&p, procs);
        let all = mttkrp_core::grid_opt::factorizations(procs, 3);
        let g = &all[pick % all.len()];
        prop_assert!(model::alg3_cost(&p, g) >= best - 1e-9);
    }
}

/// `Y_[lo, hi)` straight from Definition 2.1: the oracle on the tensor
/// reshaped so that the range is one mode.
fn partial_oracle(x: &DenseTensor, factors: &[&Matrix], lo: usize, hi: usize) -> Matrix {
    let (view, mode) = multi::pass_view(x.shape().dims(), lo, hi);
    let ignored = Matrix::zeros(view[mode], factors[0].cols());
    let operands = [&factors[..lo], &[&ignored], &factors[hi..]].concat();
    mttkrp_reference(&x.reshaped(Shape::new(&view)), &operands, mode)
}

/// The partial contraction against the oracle, for every parent range and
/// every split of it (not only the halves `sweep_steps` picks), on
/// rectangular shapes including extents of 1.
#[test]
fn contract_partial_equals_oracle_for_every_split() {
    for dims in [
        &[4usize, 3, 5][..],
        &[2, 7, 3, 5],
        &[3, 1, 4, 2],
        &[2, 3, 2, 3, 2],
        &[1, 4, 2, 1, 3],
    ] {
        let (x, factors) = build(dims, 3, 17);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let order = dims.len();
        let ranges = (0..order).flat_map(|lo| (lo + 2..=order).map(move |hi| (lo, hi)));
        // The whole of `0..N` is the tensor, not a partial: no rank index yet.
        for (lo, hi) in ranges.filter(|&(lo, hi)| hi - lo < order) {
            let from = TreeStep {
                lo,
                hi,
                parent: None,
            };
            let parent = partial_oracle(&x, &refs, lo, hi);
            for mid in lo + 1..hi {
                for (lo, hi) in [(lo, mid), (mid, hi)] {
                    let to = TreeStep {
                        lo,
                        hi,
                        parent: Some(0),
                    };
                    let want = partial_oracle(&x, &refs, lo, hi);
                    // Stale contents must be overwritten, not added to.
                    let mut got = Matrix::from_fn(want.rows(), 3, |_, _| f64::NAN);
                    multi::contract_partial(&parent, from, to, &refs, &mut got, &mut Vec::new());
                    assert!(
                        got.max_abs_diff(&want) < 1e-10 * (1.0 + want.frob_norm()),
                        "dims {dims:?}: {from:?} -> {to:?}"
                    );
                }
            }
        }
    }
}

/// The contraction's contract computed naively, one output entry at a time:
/// `sum_{i_drop} parent(i_keep, i_drop, c) * w(i_drop, c)` summed from zero
/// over the dropped indices in colex order, `w` multiplied up from one over
/// the dropped modes in ascending order, every multiply and add unfused.
fn naive_contraction(parent: &Matrix, from: TreeStep, to: TreeStep, factors: &[&Matrix]) -> Matrix {
    let r = parent.cols();
    let dims: Vec<usize> = factors.iter().map(|f| f.rows()).collect();
    let from_shape = Shape::new(&dims[from.lo..from.hi]);
    let kept = Shape::new(&dims[to.lo..to.hi]);
    let dropped_modes: Vec<usize> = (from.lo..from.hi)
        .filter(|k| !(to.lo..to.hi).contains(k))
        .collect();
    let dropped = Shape::new(&dropped_modes.iter().map(|&k| dims[k]).collect::<Vec<_>>());
    let (mut ki, mut di) = (vec![0; kept.order()], vec![0; dropped.order()]);
    let mut out = Matrix::zeros(kept.num_entries(), r);
    for i_keep in 0..kept.num_entries() {
        kept.delinearize_into(i_keep, &mut ki);
        for c in 0..r {
            let mut s = 0.0;
            for i_drop in 0..dropped.num_entries() {
                dropped.delinearize_into(i_drop, &mut di);
                let full: Vec<usize> = (from.lo..from.hi)
                    .map(|k| match dropped_modes.iter().position(|&d| d == k) {
                        Some(at) => di[at],
                        None => ki[k - to.lo],
                    })
                    .collect();
                let mut w = 1.0;
                for (&k, &i) in dropped_modes.iter().zip(&di) {
                    w *= factors[k][(i, c)];
                }
                s += parent[(from_shape.linearize(&full), c)] * w;
            }
            out[(i_keep, c)] = s;
        }
    }
    out
}

/// The contraction, bit for bit, against [`naive_contraction`], for every
/// split [`contract_partial_equals_oracle_for_every_split`] draws and at
/// ranks on both sides of every vector width, through one scratch buffer.
#[test]
fn contract_partial_is_the_naive_sum_bit_for_bit() {
    let mut scratch = Vec::new();
    for r in [1, 2, 3, 5, 8, 13, 16, 33] {
        for dims in [
            &[4usize, 3, 5][..],
            &[2, 7, 3, 5],
            &[3, 1, 4, 2],
            &[2, 3, 2, 3, 2],
            &[1, 4, 2, 1, 3],
        ] {
            let (_, factors) = build(dims, r, 31 + r as u64);
            let refs: Vec<&Matrix> = factors.iter().collect();
            let order = dims.len();
            let ranges = (0..order).flat_map(|lo| (lo + 2..=order).map(move |hi| (lo, hi)));
            for (lo, hi) in ranges.filter(|&(lo, hi)| hi - lo < order) {
                let from = TreeStep {
                    lo,
                    hi,
                    parent: None,
                };
                let rows: usize = dims[lo..hi].iter().product();
                let parent = Matrix::random(rows, r, (lo * 10 + hi) as u64);
                for mid in lo + 1..hi {
                    for (lo, hi) in [(lo, mid), (mid, hi)] {
                        let to = TreeStep {
                            lo,
                            hi,
                            parent: Some(0),
                        };
                        let want = naive_contraction(&parent, from, to, &refs);
                        let mut got = Matrix::from_fn(want.rows(), r, |_, _| f64::NAN);
                        multi::contract_partial(&parent, from, to, &refs, &mut got, &mut scratch);
                        assert_eq!(
                            bits(got.data()),
                            bits(want.data()),
                            "R = {r}, dims {dims:?}: {from:?} -> {to:?}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The step list partitions the modes in order, puts a partial only
    /// where it is no larger than its source, and the tree evaluation it
    /// drives agrees with the oracle and runs exactly the flops it predicts.
    #[test]
    fn sweep_steps_are_in_order_and_obey_the_size_rule(
        dims in prop::collection::vec(1usize..6, 2..6),
        r in 1usize..40,
        seed in 0u64..1000,
    ) {
        let steps = multi::sweep_steps(&dims, r);
        let leaves: Vec<usize> = steps.iter().filter(|s| s.is_leaf()).map(|s| s.lo).collect();
        prop_assert_eq!(leaves, (0..dims.len()).collect::<Vec<_>>());
        let words = |s: &TreeStep| dims[s.lo..s.hi].iter().product::<usize>() * r;
        for (i, step) in steps.iter().enumerate() {
            match step.parent {
                Some(p) => {
                    prop_assert!(p < i && steps[p].lo <= step.lo && step.hi <= steps[p].hi);
                    prop_assert!(words(step) <= words(&steps[p]));
                }
                None if !step.is_leaf() => {
                    prop_assert!(words(step) <= dims.iter().product::<usize>());
                }
                None => {}
            }
        }

        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (outs, flops) = multi::mttkrp_all_modes_tree(&x, &refs);
        for (n, out) in outs.iter().enumerate() {
            let oracle = mttkrp_reference(&x, &refs, n);
            prop_assert!(out.max_abs_diff(&oracle) < 1e-9 * (1.0 + oracle.frob_norm()));
        }
        let predicted: u64 = (0..steps.len())
            .map(|i| multi::step_flops(&dims, r, &steps, i).total())
            .sum();
        prop_assert_eq!(flops.total(), predicted);
    }
}
