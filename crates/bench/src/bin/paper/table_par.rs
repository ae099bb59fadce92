//! **TAB-PAR**: the parallel optimality table implied by Theorem 6.2 —
//! Algorithm 4's best-grid words (Eq. (18)) over the memory-independent
//! lower bounds (Theorems 4.2/4.3) in both Corollary 4.2 regimes, with
//! Section V-D3's real-valued `P_0` beside the searched one. `W_alg4`
//! charges each bucket collective once, `(q-1)w`, as the paper does; the
//! bounds count sends plus receives, so a ratio below 1 contradicts no bound.

use super::Section;
use mttkrp_bench::{eng, setup_problem};
use mttkrp_core::{bounds, grid_opt, model, par, Problem};
use mttkrp_tensor::Matrix;

pub fn section() -> Section {
    let mut s = Section::default();
    s.line("# TAB-PAR: Algorithm 4 vs parallel lower bounds (Theorem 6.2)\n");
    let regimes = [
        (
            "Small-P regime (NR << (I/P)^(1-1/N)): I_k = 2^12, R = 16",
            Problem::cubical(3, 1 << 12, 16),
            &[3u32, 6, 9, 12, 15, 18][..],
        ),
        (
            "Large-P regime (NR >> (I/P)^(1-1/N)): I_k = 2^8, R = 2^12",
            Problem::cubical(3, 1 << 8, 1 << 12),
            &[4, 8, 12, 16, 20],
        ),
    ];
    let (mut ratios, mut large_p0s) = (vec![], vec![]);
    let (mut two_way, mut regimes_hold, mut small_p0_one, mut real_within_2x) =
        (true, true, true, true);
    for (large_p, (title, problem, log_ps)) in regimes.iter().enumerate() {
        s.line(format!("## {title}\n"));
        s.line("| log2 P | best P0 | P0 real | W_alg4 | W_lb | ratio | regime |\n|---|---|---|---|---|---|---|");
        for &log_p in *log_ps {
            let procs = 1u64 << log_p;
            let (p0, _, cost) = grid_opt::optimize_alg4_grid(problem, procs);
            let p0_real = model::alg4_optimal_p0_real(problem, procs);
            let lb = bounds::par_best_mi(problem, procs).max(1.0);
            let in_large = bounds::cor42_large_p_regime(problem, procs);
            two_way &= 2.0 * cost >= lb;
            regimes_hold &= in_large == (large_p == 1);
            if in_large {
                real_within_2x &= (1.0..2.0).contains(&(p0_real / p0 as f64));
                large_p0s.push(p0 as f64);
            } else {
                small_p0_one &= p0 == 1 && p0_real == 1.0;
            }
            let regime = if in_large { "large-P" } else { "small-P" };
            let (w, b, ratio) = (eng(cost), eng(lb), cost / lb);
            s.line(format!(
                "| {log_p} | {p0} | {p0_real:.2} | {w} | {b} | {ratio:.2} | {regime} |"
            ));
            ratios.push(ratio);
        }
        s.line("");
    }
    // An executed run against the bound; measured words equal
    // Eqs. (14)/(18) in `validate`.
    let (x, factors) = setup_problem(&[8, 8, 8], 4, 23);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let run = par::mttkrp_stationary(&x, &refs, 0, &[2, 2, 2]);
    let words = run.summary.max_words as f64;
    let lb = bounds::par_best_mi(&Problem::new(&[8, 8, 8], 4), 8);
    let extremes = [
        ratios.iter().copied().fold(f64::INFINITY, f64::min),
        ratios.iter().copied().fold(0.0, f64::max),
    ];
    s.claim(
        format!("executed, alg3 on 8x8x8, R = 4, P = 8 moves {words} words (sent + received) on its busiest rank, at least the memory-independent bound {lb:.1}"),
        words >= lb,
    );
    s.claim(
        "Corollary 4.2 puts each table's rows in the regime its title names",
        regimes_hold,
    );
    s.pin(
        "the least and the most Eq. (18) / bound ratio over both regimes",
        &extremes,
        &[0.98, 1.32],
    );
    s.claim(
        "twice Eq. (18), the sends + receives figure, meets the bound in every row",
        two_way,
    );
    s.claim(
        "the searched and the real-valued P0 are both 1 throughout the small-P regime",
        small_p0_one,
    );
    s.pin(
        "large-P, the searched P0 is 1 at log2 P = 4 and first exceeds 1 at 2^8 (paper: P0 > 1 once NR >> (I/P)^(1-1/N))",
        &large_p0s,
        &[1.0, 2.0, 8.0, 16.0, 64.0],
    );
    s.claim(
        "large-P, the real-valued P0 exceeds the searched one, by less than 2x, in every row",
        real_within_2x,
    );
    s
}
