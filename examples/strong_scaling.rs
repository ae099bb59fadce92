//! Strong scaling of the parallel algorithms on the simulated machine:
//! a miniature, *measured* version of the paper's Figure 4.
//!
//! For a fixed problem we sweep the processor count, run Algorithm 3,
//! Algorithm 4 (with its best grid), and the matmul baseline for real, and
//! print measured words/rank next to the memory-independent lower bound.
//!
//! Run with: `cargo run --release -p mttkrp-core --example strong_scaling`

use mttkrp_core::{bounds, grid_opt, par, Problem};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};

fn main() {
    // 16 x 16 x 16 tensor, R = 16: large enough rank that Algorithm 4's
    // rank-partitioning pays off at the top of the sweep.
    let dims = [16usize, 16, 16];
    let rank = 16;
    let n = 0;
    let shape = Shape::new(&dims);
    let x = DenseTensor::random(shape.clone(), 1);
    let factors: Vec<Matrix> = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, rank, 10 + k as u64))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(&shape, rank);
    let oracle = mttkrp_tensor::mttkrp_reference(&x, &refs, n);

    println!("measured strong scaling: I = 16^3, R = {rank}, mode {n}");
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>12} {:>10}",
        "P", "alg3 w/rank", "alg4 w/rank", "matmul w/rank", "lower bnd", "alg4 grid"
    );

    for log_p in 0..=6 {
        let p = 1usize << log_p;

        // Algorithm 3: its best grid by model.
        let (grid3, _) = grid_opt::optimize_alg3_grid(&problem, p as u64);
        let g3: Vec<usize> = grid3.iter().map(|&g| g as usize).collect();
        let run3 = par::mttkrp_stationary(&x, &refs, n, &g3);
        assert!(run3.output.max_abs_diff(&oracle) < 1e-9);

        // Algorithm 4: its best (P0, grid) by model.
        let (p0, g4, _) = grid_opt::optimize_alg4_grid(&problem, p as u64);
        let g4u: Vec<usize> = g4.iter().map(|&g| g as usize).collect();
        let run4 = par::mttkrp_general(&x, &refs, n, p0 as usize, &g4u);
        assert!(run4.output.max_abs_diff(&oracle) < 1e-9);

        // Matmul baseline (1D over the last non-n mode, extent 16).
        let run = par::mttkrp_par_matmul(&x, &refs, n, p);
        assert!(run.output.max_abs_diff(&oracle) < 1e-9);

        let lb = bounds::par_best_mi(&problem, p as u64);
        println!(
            "{:>5} {:>14} {:>14} {:>14} {:>12.0} {:>4}x{:?}",
            p,
            run3.max_recv_words(),
            run4.max_recv_words(),
            run.max_recv_words(),
            lb,
            p0,
            g4u
        );
    }
    println!("all executed runs verified against the oracle");
}
