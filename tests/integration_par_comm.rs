//! Integration: the parallel algorithms, the network simulator, the grid
//! optimizer, and the cost models agree end-to-end — and the paper's
//! Section VI-B comparison reproduces at executable scale.

use mttkrp_bench::setup_problem;
use mttkrp_core::{grid_opt, model, par, Problem};
use mttkrp_tensor::{mttkrp_reference, Matrix};

#[test]
fn parallel_algorithms_agree_with_oracle_across_grids() {
    let dims = vec![4usize, 6, 4];
    let r = 4usize;
    let (x, factors) = setup_problem(&dims, r, 13);
    let refs: Vec<&Matrix> = factors.iter().collect();
    for n in 0..3 {
        let oracle = mttkrp_reference(&x, &refs, n);
        for grid in [[1usize, 1, 1], [2, 1, 1], [2, 3, 2], [4, 2, 4]] {
            let run = par::mttkrp_stationary(&x, &refs, n, &grid);
            assert!(
                run.output.max_abs_diff(&oracle) < 1e-10,
                "alg3 grid {grid:?} mode {n}"
            );
        }
        for (p0, grid) in [(2usize, [2usize, 1, 2]), (4, [1, 3, 1]), (2, [1, 1, 1])] {
            let run = par::mttkrp_general(&x, &refs, n, p0, &grid);
            assert!(
                run.output.max_abs_diff(&oracle) < 1e-10,
                "alg4 p0 {p0} grid {grid:?} mode {n}"
            );
        }
    }
}

#[test]
fn optimizer_grid_is_no_worse_than_naive_grids_when_executed() {
    let dims = vec![16usize, 8, 8];
    let r = 4usize;
    let procs = 16u64;
    let p = Problem::new(&[16, 8, 8], r as u64);
    let (x, factors) = setup_problem(&dims, r, 14);
    let refs: Vec<&Matrix> = factors.iter().collect();

    let (best_grid, best_cost) = grid_opt::optimize_alg3_grid(&p, procs);
    let gb: Vec<usize> = best_grid.iter().map(|&g| g as usize).collect();
    let best_run = par::mttkrp_stationary(&x, &refs, 0, &gb);

    for grid in [[16usize, 1, 1], [1, 4, 4], [4, 4, 1]] {
        let run = par::mttkrp_stationary(&x, &refs, 0, &grid);
        assert!(
            best_run.summary.max_words <= run.summary.max_words,
            "optimizer grid {gb:?} ({}) worse than {grid:?} ({})",
            best_run.summary.max_words,
            run.summary.max_words
        );
    }
    // The model agrees with the measurement ordering.
    assert!(best_cost <= model::alg3_cost(&p, &[16, 1, 1]));
}

#[test]
fn alg4_beats_alg3_exactly_when_model_says_so() {
    // Large-rank problem at P = 16: the model picks P0 > 1; execution
    // confirms the ordering.
    let dims = vec![4usize, 4, 4];
    let r = 32usize;
    let p = Problem::new(&[4, 4, 4], r as u64);
    let (x, factors) = setup_problem(&dims, r, 15);
    let refs: Vec<&Matrix> = factors.iter().collect();

    let (p0, grid4, cost4) = grid_opt::optimize_alg4_grid(&p, 16);
    assert!(p0 > 1, "model should choose rank partitioning here");
    let (grid3, cost3) = grid_opt::optimize_alg3_grid(&p, 16);
    assert!(cost4 < cost3);

    let g4: Vec<usize> = grid4.iter().map(|&g| g as usize).collect();
    let g3: Vec<usize> = grid3.iter().map(|&g| g as usize).collect();
    let run4 = par::mttkrp_general(&x, &refs, 0, p0 as usize, &g4);
    let run3 = par::mttkrp_stationary(&x, &refs, 0, &g3);
    assert!(
        run4.summary.max_words < run3.summary.max_words,
        "alg4 {} !< alg3 {}",
        run4.summary.max_words,
        run3.summary.max_words
    );
}

#[test]
fn strong_scaling_reduces_per_rank_words() {
    // Note: per-rank words are not monotone between adjacent small P (a
    // P=2 grid gathers only two modes fully; a 2x2x2 grid touches all
    // three), but the asymptotic NR(I/P)^(1/N) decay shows by P=64.
    let dims = vec![16usize, 16, 16];
    let r = 8usize;
    let (x, factors) = setup_problem(&dims, r, 16);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let w2 = par::mttkrp_stationary(&x, &refs, 0, &[2, 1, 1])
        .summary
        .max_words;
    let w8 = par::mttkrp_stationary(&x, &refs, 0, &[2, 2, 2])
        .summary
        .max_words;
    let w64 = par::mttkrp_stationary(&x, &refs, 0, &[4, 4, 4])
        .summary
        .max_words;
    assert!(w64 < w8, "P=64 ({w64}) should be below P=8 ({w8})");
    assert!(w64 < w2, "P=64 ({w64}) should be below P=2 ({w2})");
}

#[test]
fn total_words_conservation() {
    // Every word sent is received exactly once: global sent == received.
    let dims = vec![8usize, 8, 8];
    let (x, factors) = setup_problem(&dims, 4, 17);
    let refs: Vec<&Matrix> = factors.iter().collect();
    for grid in [[2usize, 2, 2], [4, 1, 2]] {
        let run = par::mttkrp_stationary(&x, &refs, 1, &grid);
        let sent: u64 = run.stats.iter().map(|s| s.words_sent).sum();
        let recv: u64 = run.stats.iter().map(|s| s.words_received).sum();
        assert_eq!(sent, recv, "conservation violated on grid {grid:?}");
    }
}

#[test]
fn matmul_baseline_flat_vs_stationary_falling() {
    // The Figure 4 shape at executable scale. The stationary advantage
    // over the *best* CARMA regime needs (I/P)^(1/6) > 3, i.e. I/P > 729:
    // use a 64^3 tensor so that P = 64 leaves I/P = 4096.
    let dims = vec![64usize, 64, 64];
    let r = 4usize;
    let (x, factors) = setup_problem(&dims, r, 18);
    let refs: Vec<&Matrix> = factors.iter().collect();

    // Executed 1D baseline: per-rank words grow toward I_n R = 256 with P.
    let mm2 = par::mttkrp_par_matmul(&x, &refs, 0, 2).max_recv_words();
    let mm8 = par::mttkrp_par_matmul(&x, &refs, 0, 8).max_recv_words();
    let mm64 = par::mttkrp_par_matmul(&x, &refs, 0, 64).max_recv_words();
    assert_eq!(mm2, 64 * 4 / 2);
    assert!(mm8 > mm2 && mm64 > mm8, "1D baseline flattens upward");

    // Stationary: per-rank words fall with P.
    let st64 = par::mttkrp_stationary(&x, &refs, 0, &[4, 4, 4]).max_recv_words();
    assert_eq!(st64, 3 * 15 * 4, "even-case Eq. (14) value");
    assert!(
        st64 < mm64,
        "stationary {st64} should beat executed 1D {mm64}"
    );

    // ... and beats even the best modeled CARMA regime at this scale.
    let mm64_model = model::mm_baseline_cost(&Problem::new(&[64, 64, 64], 4), 0, 64);
    assert!(
        (st64 as f64) < mm64_model,
        "at P=64 stationary {st64} should beat modeled matmul {mm64_model}"
    );
}
