//! Regenerates **Figure 4** of the paper: "Modeled Strong-Scaling
//! Comparison" of MTTKRP-via-matmul, Algorithm 3 (stationary), and
//! Algorithm 4 (general) for a 3-way cubical tensor with `I = 2^45`
//! (`I_k = 2^15`), `R = 2^15`, and `P = 2^0 .. 2^30`.
//!
//! All three curves are *model* evaluations, exactly as in the paper:
//! - matmul: CARMA costs for `(2^15 x 2^30) * (2^30 x 2^15)` (the
//!   Khatri-Rao product assumed free, as the paper assumes);
//! - Algorithms 3/4: Eq. (14)/(18) minimized over integer processor grids
//!   (with `P_k <= I_k`, `P_0 <= R`).
//!
//! After the series, the binary checks the paper's §VI-B in-text claims:
//! the matmul kink, the Algorithm 3/4 divergence point, and the ~25x gap
//! at `P = 2^17`.
//!
//! Run with: `cargo run --release -p mttkrp-bench --bin fig4`

use mttkrp_bench::eng;
use mttkrp_core::{grid_opt, model, Problem};

/// Best Eq.-(14) grid with the physical constraint `P_k <= I_k`.
fn best_alg3(p: &Problem, procs: u64) -> f64 {
    let mut best = f64::INFINITY;
    for grid in grid_opt::factorizations(procs, p.order()) {
        if grid.iter().zip(&p.dims).any(|(&g, &d)| g > d) {
            continue;
        }
        best = best.min(model::alg3_cost(p, &grid));
    }
    best
}

/// Best Eq.-(18) grid with `P_k <= I_k` and `P_0 <= R`.
fn best_alg4(p: &Problem, procs: u64) -> (f64, u64) {
    let mut best = (f64::INFINITY, 1u64);
    for f in grid_opt::factorizations(procs, p.order() + 1) {
        let (p0, grid) = (f[0], &f[1..]);
        if p0 > p.rank || grid.iter().zip(&p.dims).any(|(&g, &d)| g > d) {
            continue;
        }
        let cost = model::alg4_cost(p, p0, grid);
        if cost < best.0 {
            best = (cost, p0);
        }
    }
    best
}

fn main() {
    let problem = Problem::cubical(3, 1 << 15, 1 << 15);
    println!("# Figure 4: modeled strong scaling, I = 2^45 (I_k = 2^15), R = 2^15\n");
    println!("| log2 P | matmul (words) | alg 3 (words) | alg 4 (words) | alg4 P0 |\n|---|---|---|---|---|");

    let mut mm_series = Vec::new();
    let mut a3_series = Vec::new();
    let mut a4_series = Vec::new();
    for log_p in 0..=30u32 {
        let p = 1u64 << log_p;
        let mm = model::mm_baseline_cost(&problem, 0, p);
        let a3 = best_alg3(&problem, p);
        let (a4, p0) = best_alg4(&problem, p);
        mm_series.push(mm);
        a3_series.push(a3);
        a4_series.push(a4);
        println!(
            "| {log_p} | {} | {} | {} | {p0} |",
            eng(mm),
            eng(a3),
            eng(a4)
        );
    }

    println!("\n## Paper claim checks (Section VI-B)\n");

    // Claim 1: the matmul curve has a kink where the optimal algorithm
    // switches regimes (paper: 1-large-dim -> multi-large-dim).
    let kink = (1..mm_series.len())
        .find(|&i| mm_series[i] < mm_series[i - 1] * 0.999)
        .unwrap_or(0);
    println!(
        "- matmul kink (first P where the curve starts falling): P = 2^{kink} \
         (paper: switch from 1D to 2D algorithm; boundary I/R^2 = 2^15)"
    );

    // Claim 2: Algorithms 3 and 4 diverge only at large P (paper: P >= 2^27).
    let diverge = (0..a4_series.len())
        .find(|&i| a4_series[i] < a3_series[i] * 0.999)
        .unwrap_or(31);
    println!(
        "- Algorithm 4 first beats Algorithm 3 at P = 2^{diverge} \
         (paper: curves diverge only when P >= 2^27)"
    );

    // Claim 3: at P = 2^17 the tensor-aware algorithms move far fewer words
    // than matmul (paper: approximately 25x). The paper's constant is
    // against the 1D matmul cost I^(1/N) R (its kink note says the switch
    // to the 2D algorithm happens at this scale); we report both.
    let i17 = 17usize;
    let ratio_best = mm_series[i17] / a3_series[i17];
    let mm_1d = ((1u64 << 15) * (1u64 << 15)) as f64; // I^(1/3) * R words
    let ratio_1d = mm_1d / a3_series[i17];
    println!(
        "- at P = 2^17: best-regime matmul/alg3 = {ratio_best:.1}x, \
         1D-matmul/alg3 = {ratio_1d:.1}x (paper: ~25x)"
    );

    // Claim 4: beyond the small-P warm-up, ours never loses to matmul.
    // (For P in 4..16 the exact Eq. (14) cost with its -1 terms sits a few
    // tens of percent above the flat matmul line -- indistinguishable on
    // the paper's log axis; from P = 2^5 on, the tensor-aware algorithms
    // win outright, by up to ~10x mid-range.)
    let last_loss = (1..=30)
        .rev()
        .find(|&i| a4_series[i] > mm_series[i] * 1.0001)
        .unwrap_or(0);
    let max_ratio = (1..=30)
        .map(|i| mm_series[i] / a4_series[i])
        .fold(0.0f64, f64::max);
    println!(
        "- tensor-aware <= matmul for all P >= 2^{}; peak advantage {max_ratio:.1}x",
        last_loss + 1
    );
}
