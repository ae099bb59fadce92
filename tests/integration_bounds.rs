//! Integration: every *executed* algorithm respects every applicable
//! *lower bound* — the end-to-end statement of the paper. Measured
//! communication (simulators) must dominate the theorems' formulas, and
//! the optimal algorithms must sit within a modest constant of them.

use mttkrp_bench::setup_problem;
use mttkrp_core::{bounds, grid_opt, model, par, seq, Problem};
use mttkrp_tensor::Matrix;

#[test]
fn sequential_measured_respects_theorem_41_and_fact_41() {
    for (dims, r, m) in [
        (vec![8usize, 8, 8], 4usize, 32usize),
        (vec![12, 10, 8], 3, 64),
        (vec![6, 6, 6, 6], 2, 48),
    ] {
        let (x, factors) = setup_problem(&dims, r, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let p = Problem::new(
            &dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            r as u64,
        );
        let lb = bounds::seq_best(&p, m as u64);
        for n in 0..dims.len() {
            let b = seq::choose_block_size(m, dims.len());
            let run = seq::mttkrp_blocked(&x, &refs, n, m, b);
            assert!(
                run.stats.total() as f64 >= lb,
                "blocked W = {} < lower bound {lb} (dims {dims:?}, n {n})",
                run.stats.total()
            );
            let run1 = seq::mttkrp_unblocked(&x, &refs, n, m);
            assert!(run1.stats.total() as f64 >= lb);
            let runm = seq::mttkrp_seq_matmul(&x, &refs, n, m);
            // The matmul baseline breaks atomicity, so Theorem 4.1 does not
            // bind it -- but Fact 4.1 (touch all I/O) still must hold.
            let trivial = bounds::seq_trivial(&p, m as u64);
            assert!(runm.total_stats().total() as f64 >= trivial);
        }
    }
}

#[test]
fn blocked_algorithm_is_within_constant_of_bound() {
    // Theorem 6.1 at an executable scale: ratio bounded by a modest
    // constant in the regime where the bounds are non-vacuous. (At tiny M
    // the integer block size is far from (alpha*M)^(1/N) -- e.g. M = 32
    // forces b = 2 when b = 3 needs 36 words -- so the constant is looser
    // than the asymptotic one.)
    let dims = vec![16usize, 16, 16];
    let r = 8usize;
    let (x, factors) = setup_problem(&dims, r, 2);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let p = Problem::new(&[16, 16, 16], r as u64);
    for &m in &[32usize, 128, 512] {
        let b = seq::choose_block_size(m, 3);
        let run = seq::mttkrp_blocked(&x, &refs, 0, m, b);
        let lb = bounds::seq_best(&p, m as u64);
        assert!(lb > 0.0, "bound should be non-vacuous at M = {m}");
        let ratio = run.stats.total() as f64 / lb;
        assert!(
            ratio < 12.0,
            "optimality ratio {ratio:.2} too large at M = {m}"
        );
    }
}

#[test]
fn parallel_measured_respects_memory_independent_bounds() {
    let dims = vec![8usize, 8, 8];
    let r = 4usize;
    let (x, factors) = setup_problem(&dims, r, 3);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let p = Problem::new(&[8, 8, 8], r as u64);
    for grid in [[2usize, 2, 2], [4, 2, 1], [2, 1, 2]] {
        let procs: usize = grid.iter().product();
        let run = par::mttkrp_stationary(&x, &refs, 0, &grid);
        let lb = bounds::par_best_mi(&p, procs as u64);
        assert!(
            run.summary.max_words as f64 >= lb,
            "grid {grid:?}: measured {} < bound {lb}",
            run.summary.max_words
        );
    }
}

#[test]
fn general_algorithm_respects_bounds_with_p0() {
    let dims = vec![8usize, 8, 8];
    let r = 8usize;
    let (x, factors) = setup_problem(&dims, r, 4);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let p = Problem::new(&[8, 8, 8], r as u64);
    let run = par::mttkrp_general(&x, &refs, 0, 2, &[2, 2, 2]);
    let lb = bounds::par_best_mi(&p, 16);
    assert!(run.summary.max_words as f64 >= lb);
}

#[test]
fn modeled_optimal_grids_sit_between_bounds_and_2x_bounds_figure4_scale() {
    // At the paper's Figure 4 scale, the best Eq. (14)/(18) grids must
    // dominate Corollary 4.2 and stay within a small constant of it.
    let p = Problem::cubical(3, 1 << 15, 1 << 15);
    for &log_p in &[5u32, 10, 15, 20, 25, 30] {
        let procs = 1u64 << log_p;
        let (_, _, cost) = grid_opt::optimize_alg4_grid(&p, procs);
        let lb = bounds::par_best_mi(&p, procs);
        if lb > 0.0 {
            assert!(
                cost >= lb * 0.49,
                "P=2^{log_p}: cost {cost:.3e} far below bound {lb:.3e}"
            );
            assert!(
                cost <= 8.0 * bounds::par_combined_cor42(&p, procs),
                "P=2^{log_p}: cost {cost:.3e} too far above Cor 4.2"
            );
        }
    }
}

#[test]
fn executed_segments_respect_theorem_41_proof_bound() {
    // The proof device of Theorem 4.1, verified on real executions: in any
    // window of M loads/stores, no algorithm can complete more than
    // (3M)^{2-1/N}/N atomic N-ary multiplies. The simulator records the
    // per-segment iteration counts; every one must obey the cap.
    for (dims, r, m, b) in [
        (vec![8usize, 8, 8], 4usize, 16usize, 2usize),
        (vec![8, 8, 8], 4, 40, 3),
        (vec![12, 10, 8], 3, 80, 4),
        (vec![6, 6, 6, 6], 2, 32, 2),
    ] {
        let (x, factors) = setup_problem(&dims, r, 77);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let order = dims.len();
        let cap = mttkrp_core::hbl::segment_iteration_bound(order, m as u64);
        for n in 0..order {
            for run in [
                seq::mttkrp_blocked(&x, &refs, n, m, b),
                seq::mttkrp_unblocked(&x, &refs, n, m),
            ] {
                assert!(!run.segments.is_empty());
                let total: u64 = run.segments.iter().sum();
                assert_eq!(
                    total as u128,
                    Problem::new(
                        &dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
                        r as u64,
                    )
                    .iteration_space(),
                    "all iterations accounted"
                );
                for (s, &iters) in run.segments.iter().enumerate() {
                    assert!(
                        (iters as f64) <= cap + 1e-9,
                        "dims {dims:?} n {n} segment {s}: {iters} iterations > cap {cap:.1}"
                    );
                }
            }
        }
    }
}

#[test]
fn hbl_segment_bound_dominates_any_executed_segment() {
    // The segment-counting heart of Theorem 4.1: no M-load/store segment
    // can evaluate more than (3M)^(2-1/N)/N iterations. The blocked
    // algorithm's per-block work must respect it with M = b^N + N*b.
    let p = Problem::new(&[16, 16, 16], 4);
    for &b in &[2u64, 4] {
        let m = b.pow(3) + 3 * b;
        let per_block_iterations = (b.pow(3) * p.rank) as f64;
        let segment_cap = mttkrp_core::hbl::segment_iteration_bound(3, m);
        // One block's r-loop performs b^3 * R iterations while moving
        // ~b^3 + (N+1) b R words; scaled to M-word segments the HBL cap
        // must dominate. Conservative check: iterations per (3M)-word
        // window <= cap.
        let words_per_block = (b.pow(3) + 4 * b * p.rank) as f64;
        let segments = (words_per_block / m as f64).ceil();
        assert!(
            per_block_iterations <= segments * segment_cap,
            "b = {b}: {per_block_iterations} iterations exceed HBL cap"
        );
    }
}

#[test]
fn model_asymptotics_agree_with_exact_models() {
    // Eq. (14)'s asymptotic form NR(I/P)^{1/N} matches the exact even-case
    // expression within 2x for cubical grids.
    let p = Problem::cubical(3, 1 << 6, 16);
    for &procs in &[8u64, 64, 512] {
        let side = (procs as f64).cbrt().round() as u64;
        let grid = vec![side; 3];
        let exact = model::alg3_cost(&p, &grid);
        let asym = 3.0 * 16.0 * ((1u64 << 18) as f64 / procs as f64).cbrt();
        assert!(
            exact <= asym,
            "exact {exact} should be below asymptotic {asym}"
        );
        assert!(exact >= asym * 0.4, "exact {exact} too far below {asym}");
    }
}
