//! Ablation study over the design choices DESIGN.md calls out, with
//! *measured* (deterministic) communication and arithmetic counts:
//!
//! 1. **Processor-grid choice** (Algorithm 3): optimized factorization vs
//!    1D and random grids — how much the grid matters.
//! 2. **Block-size choice** (Algorithm 2): swept `b` vs the Eq.-(11)
//!    maximum — why `b ~ M^(1/N)` is the right pick.
//! 3. **Rank partitioning** (Algorithm 4): `P_0` swept at fixed `P` — the
//!    tensor-vs-factor traffic trade-off behind Theorem 6.2's two regimes.
//! 4. **Kernel atomicity** (Eq. (15) vs Eq. (17)): multiplies of the atomic
//!    vs two-step local kernels.
//!
//! Run with: `cargo run --release -p mttkrp-bench --bin ablation`

use mttkrp_bench::{header, row, setup_problem};
use mttkrp_core::{arith, grid_opt, model, par, seq, Problem};
use mttkrp_tensor::Matrix;

fn main() {
    println!("# Ablation studies\n");

    // ------------------------------------------------------------------
    println!("## 1. Grid choice, Algorithm 3 (16x16x16, R = 4, P = 16)\n");
    header(&["grid", "modeled words", "measured max w/rank", "vs best"]);
    let dims = [16usize, 16, 16];
    let (x, factors) = setup_problem(&dims, 4, 1);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let p = Problem::new(&[16, 16, 16], 4);
    let (best_grid, best_cost) = grid_opt::optimize_alg3_grid(&p, 16);
    let candidates: Vec<Vec<u64>> = vec![
        best_grid.clone(),
        vec![16, 1, 1],
        vec![1, 16, 1],
        vec![4, 4, 1],
        vec![2, 2, 4],
    ];
    for grid in candidates {
        let gu: Vec<usize> = grid.iter().map(|&g| g as usize).collect();
        let run = par::mttkrp_stationary(&x, &refs, 0, &gu);
        let modeled = model::alg3_cost(&p, &grid);
        row(&[
            format!("{grid:?}"),
            format!("{modeled:.0}"),
            format!("{}", run.max_recv_words()),
            format!("{:.2}x", modeled / best_cost),
        ]);
    }

    // ------------------------------------------------------------------
    println!("\n## 2. Block size, Algorithm 2 (16^3, R = 4, M = 1100)\n");
    header(&["b", "b^N+Nb", "measured words", "vs best"]);
    let m = 1100usize;
    let bmax = seq::choose_block_size(m, 3);
    let mut best = u64::MAX;
    let mut rows = Vec::new();
    for b in 1..=bmax {
        let run = seq::mttkrp_blocked(&x, &refs, 0, m, b);
        best = best.min(run.stats.total());
        rows.push((b, run.stats.total()));
    }
    for (b, w) in rows {
        row(&[
            format!("{b}{}", if b == bmax { " (max)" } else { "" }),
            format!("{}", b.pow(3) + 3 * b),
            format!("{w}"),
            format!("{:.2}x", w as f64 / best as f64),
        ]);
    }

    // ------------------------------------------------------------------
    println!("\n## 3. Rank partitioning P0, Algorithm 4 (8^3, R = 32, P = 16)\n");
    header(&["P0", "grid", "tensor words", "factor words", "total w/rank"]);
    let dims2 = [8usize, 8, 8];
    let (x2, factors2) = setup_problem(&dims2, 32, 2);
    let refs2: Vec<&Matrix> = factors2.iter().collect();
    let p2 = Problem::new(&[8, 8, 8], 32);
    for (p0, grid) in [
        (1usize, [4usize, 2, 2]),
        (2, [2, 2, 2]),
        (4, [2, 2, 1]),
        (8, [2, 1, 1]),
        (16, [1, 1, 1]),
    ] {
        let run = par::mttkrp_general(&x2, &refs2, 0, p0, &grid);
        let g64: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
        let procs: u64 = 16;
        let tensor_words = (p0 as f64 - 1.0) * 512.0 / procs as f64;
        let total_model = model::alg4_cost(&p2, p0 as u64, &g64);
        row(&[
            format!("{p0}"),
            format!("{grid:?}"),
            format!("{tensor_words:.0}"),
            format!("{:.0}", total_model - tensor_words),
            format!("{}", run.max_recv_words()),
        ]);
    }
    println!("\n(P0 trades growing tensor all-gather words against shrinking");
    println!("factor words; the optimum interior when NR is large vs I/P.)");

    // ------------------------------------------------------------------
    println!("\n## 4. Kernel atomicity: multiplies, atomic vs two-step\n");
    header(&["N", "I", "R", "atomic muls", "two-step muls", "ratio"]);
    for (order, dim, r) in [(3usize, 16u64, 8u64), (4, 8, 8), (5, 6, 4)] {
        let i: u64 = dim.pow(order as u32);
        let (am, _) = arith::atomic_kernel_flops(i, r, order as u64);
        let (tm, _) = arith::twostep_kernel_flops(i, dim, r, order as u64);
        row(&[
            format!("{order}"),
            format!("{dim}^{order}"),
            format!("{r}"),
            format!("{am}"),
            format!("{tm}"),
            format!("{:.2}x", am as f64 / tm as f64),
        ]);
    }
    println!("\n(The two-step kernel needs ~(N-1)/2x fewer multiplies — Eq. (17) —");
    println!("but breaks the atomicity assumption behind the lower bounds.)");

    // ------------------------------------------------------------------
    println!("\n## 5. Loop order, Algorithm 2: rank loop inside vs outside\n");
    header(&[
        "R",
        "b",
        "r-inner (Alg 2) words",
        "r-outer words",
        "penalty",
    ]);
    let dims3 = [12usize, 12, 12];
    for r in [1usize, 4, 16] {
        let (x3, factors3) = setup_problem(&dims3, r, 3);
        let refs3: Vec<&Matrix> = factors3.iter().collect();
        let good = seq::mttkrp_blocked(&x3, &refs3, 0, 80, 4);
        let bad = seq::mttkrp_blocked_r_outer(&x3, &refs3, 0, 80, 4);
        row(&[
            format!("{r}"),
            "4".into(),
            format!("{}", good.stats.total()),
            format!("{}", bad.stats.total()),
            format!(
                "{:.2}x",
                bad.stats.total() as f64 / good.stats.total() as f64
            ),
        ]);
    }
    println!("\n(Nesting r inside the block loops loads each tensor block once");
    println!("instead of R times — the ordering the paper's Algorithm 2 uses.)");
}
