//! Ablations over the algorithms' design choices, with *measured*
//! (deterministic) communication and arithmetic counts: (1) the processor
//! grid of Algorithm 3, (2) the block size of Algorithm 2, (3) the rank
//! partitioning `P_0` of Algorithm 4, with Eq. (19)'s flops per rank,
//! (4) the atomic vs two-step local kernel against Eqs. (15) and (17), and
//! (5) Algorithm 2's rank loop inside vs outside the block loops.

use super::Section;
use mttkrp_bench::setup_problem;
use mttkrp_core::{arith, grid_opt, model, par, seq, Problem};
use mttkrp_tensor::Matrix;

pub fn section() -> Section {
    let mut s = Section::default();
    s.line("# Ablation studies\n");
    let (x, factors) = setup_problem(&[16, 16, 16], 4, 1);
    let refs: Vec<&Matrix> = factors.iter().collect();

    s.line("## 1. Grid choice, Algorithm 3 (16x16x16, R = 4, P = 16)\n");
    s.line("| grid | modeled words | measured max w/rank | vs best |\n|---|---|---|---|");
    let p = Problem::new(&[16, 16, 16], 4);
    let (best_grid, best_cost) = grid_opt::optimize_alg3_grid(&p, 16);
    let (mut exact, mut vs_best) = (best_grid == [2, 2, 4], vec![]);
    for grid in [best_grid, vec![16, 1, 1], vec![1, 16, 1], vec![4, 4, 1]] {
        let gu: Vec<usize> = grid.iter().map(|&g| g as usize).collect();
        let measured = par::mttkrp_stationary(&x, &refs, 0, &gu).max_recv_words();
        let modeled = model::alg3_cost(&p, &grid);
        let ratio = modeled / best_cost;
        s.line(format!(
            "| {grid:?} | {modeled:.0} | {measured} | {ratio:.2}x |"
        ));
        exact &= measured as f64 == modeled;
        vs_best.push(ratio);
    }
    s.claim(
        "the searched grid is [2, 2, 4], and every grid's words equal Eq. (14)",
        exact,
    );
    s.pin(
        "cost over the searched grid's, in table order",
        &vs_best,
        &[1.0, 1.76, 1.76, 1.24],
    );

    s.line("\n## 2. Block size, Algorithm 2 (16^3, R = 4, M = 1100)\n");
    s.line("| b | b^N+Nb | measured words | vs best |\n|---|---|---|---|");
    let bmax = seq::choose_block_size(1100, 3);
    let words: Vec<u64> = (1..=bmax)
        .map(|b| seq::mttkrp_blocked(&x, &refs, 0, 1100, b).stats.total())
        .collect();
    let best = words.iter().copied().min().unwrap_or(1);
    for (b, w) in (1..=bmax).zip(&words) {
        let max = if b == bmax { " (max)" } else { "" };
        let ratio = *w as f64 / best as f64;
        s.line(format!(
            "| {b}{max} | {} | {w} | {ratio:.2}x |",
            b.pow(3) + 3 * b
        ));
    }
    s.claim(
        "measured words never rise with b, so Eq. (11)'s largest block, b = 10, is best",
        bmax == 10 && words.windows(2).all(|w| w[1] <= w[0]),
    );

    s.line("\n## 3. Rank partitioning P0, Algorithm 4 (8^3, R = 32, P = 16)\n");
    s.line("| P0 | grid | tensor words | factor words | measured w/rank | Eq. (19) flops/rank |\n|---|---|---|---|---|---|");
    let (x, factors) = setup_problem(&[8, 8, 8], 32, 2);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let p = Problem::new(&[8, 8, 8], 32);
    // Per P0: modeled tensor and factor words, measured words.
    let (mut tensor, mut factor, mut measured, mut eq19_is_eq15) = (vec![], vec![], vec![], true);
    for (p0, grid) in [
        (1u64, [4u64, 2, 2]),
        (2, [2, 2, 2]),
        (4, [2, 2, 1]),
        (8, [2, 1, 1]),
        (16, [1, 1, 1]),
    ] {
        let run = par::mttkrp_general(&x, &refs, 0, p0 as usize, &grid.map(|g| g as usize));
        let (words, got) = ((p0 as f64 - 1.0) * 512.0 / 16.0, run.max_recv_words());
        let rest = model::alg4_cost(&p, p0, &grid) - words;
        let flops = arith::alg4_arith(&p, 0, p0, &grid);
        eq19_is_eq15 &= p0 > 1 || flops == arith::alg3_arith(&p, 0, &grid);
        s.line(format!(
            "| {p0} | {grid:?} | {words:.0} | {rest:.0} | {got} | {flops:.0} |"
        ));
        tensor.push(words);
        factor.push(rest);
        measured.push(got as f64);
    }
    let rises = |v: &[f64]| v.windows(2).all(|w| w[1] > w[0]);
    let falls = |v: &[f64]| v.windows(2).all(|w| w[1] < w[0]);
    s.claim(
        "P0 trades tensor words, which grow with P0, against factor words, which shrink",
        rises(&tensor) && falls(&factor),
    );
    s.pin(
        "measured words per rank for P0 = 1 .. 16: the optimum is interior",
        &measured,
        &[320.0, 176.0, 176.0, 256.0, 480.0],
    );
    s.claim(
        "measured words equal Eq. (18) for P0 >= 2; at P0 = 1 the grid [4, 2, 2] deals 2-row factor blocks to 4 ranks unevenly, past the even-split 272",
        (1..5).all(|i| measured[i] == tensor[i] + factor[i]) && tensor[0] + factor[0] == 272.0,
    );
    s.claim(
        "Eq. (19) with P0 = 1 equals Eq. (15) on the same grid",
        eq19_is_eq15,
    );

    s.line("\n## 4. Kernel atomicity: atomic vs two-step local kernel, P = 1\n");
    s.line("| N | I | R | atomic muls | two-step muls | ratio | atomic flops | Eq. (15) | two-step flops | Eq. (17) |\n|---|---|---|---|---|---|---|---|---|---|");
    let (mut eq_counts, mut formula) = (true, true);
    for (n, dim, r) in [(3u64, 16u64, 8u64), (4, 8, 8), (5, 6, 4)] {
        let (i, p) = (dim.pow(n as u32), Problem::cubical(n as usize, dim, r));
        let grid = vec![1; n as usize];
        let (am, aa) = arith::atomic_kernel_flops(i, r, n);
        let (tm, ta) = arith::twostep_kernel_flops(i, dim, r, n);
        let eq15 = arith::alg3_arith(&p, 0, &grid);
        let eq17 = arith::alg3_arith_twostep_local(&p, 0, &grid);
        let (ratio, atomic, twostep) = (am as f64 / tm as f64, am + aa, tm + ta);
        s.line(format!("| {n} | {dim}^{n} | {r} | {am} | {tm} | {ratio:.2}x | {atomic} | {eq15:.0} | {twostep} | {eq17:.0} |"));
        // The counted kernel forms each Khatri-Rao row with N - 2
        // multiplies; Eq. (17) charges one, as partial-product reuse does.
        eq_counts &=
            atomic as f64 == eq15 && twostep as f64 - eq17 == (i / dim * r * (n - 3)) as f64;
        formula &= (ratio - (n - 1) as f64 / (1.0 + (n - 2) as f64 / dim as f64)).abs() < 1e-12;
    }
    s.claim(
        "at P = 1 Eq. (15) equals the atomic kernel's multiplies + adds, and Eq. (17) the two-step kernel's less (I/I_n) R (N - 3)",
        eq_counts,
    );
    s.claim("the two-step kernel needs (N-1)/(1 + (N-2)/I_n) times fewer multiplies than the atomic one", formula);

    s.line("\n## 5. Loop order, Algorithm 2: rank loop inside vs outside\n");
    s.line("| R | b | r-inner (Alg 2) words | r-outer words | penalty |\n|---|---|---|---|---|");
    let mut reloads = true;
    for r in [1usize, 4, 16] {
        let (x, factors) = setup_problem(&[12, 12, 12], r, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let good = seq::mttkrp_blocked(&x, &refs, 0, 80, 4).stats.total();
        let bad = seq::mttkrp_blocked_r_outer(&x, &refs, 0, 80, 4)
            .stats
            .total();
        s.line(format!(
            "| {r} | 4 | {good} | {bad} | {:.2}x |",
            bad as f64 / good as f64
        ));
        reloads &= bad - good == (r as u64 - 1) * 12 * 12 * 12;
    }
    s.claim("the r-outer order moves (R - 1) I more words: it loads the tensor R times, Algorithm 2 once", reloads);
    s
}
