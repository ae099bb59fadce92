//! **TAB-SEQ**: the sequential optimality table implied by Theorem 6.1 —
//! Algorithm 2's words (exact model, cross-checked by execution at small
//! sizes) over the best lower bound `max(Thm 4.1, Fact 4.1)`, swept over
//! fast-memory sizes, tensor orders and ranks. Theorem 6.1 bounds the ratio
//! by a constant when `M` is large relative to `N` and small relative to the
//! `I_k`; the claims pin where this reproduction's ratios sit.

use super::Section;
use mttkrp_bench::{eng, setup_problem};
use mttkrp_core::{bounds, model, seq, Problem};
use mttkrp_tensor::Matrix;

/// Algorithm 2's block size at `m`, its words over the best lower bound,
/// and the table cells `W_alg2 | W_lb | ratio`.
fn ratio_row(p: &Problem, m: u64) -> (u64, f64, String) {
    let b = seq::choose_block_size(m as usize, p.order()) as u64;
    let w = model::alg2_cost_exact(p, 0, b) as f64;
    let lb = bounds::seq_best(p, m).max(1.0);
    let cells = format!("{} | {} | {:.2}", eng(w), eng(lb), w / lb);
    (b, w / lb, cells)
}

pub fn section() -> Section {
    let mut s = Section::default();
    s.line("# TAB-SEQ: Algorithm 2 vs sequential lower bounds (Theorem 6.1)\n");
    s.line("## Model-scale sweep (cubical, N = 3, I_k = 2^12, R = 64)\n");
    s.line("| M | b | W_alg2 | W_lb | ratio |\n|---|---|---|---|---|");
    let p = Problem::cubical(3, 1 << 12, 64);
    let (mut m_ratios, mut thm41_binds) = (vec![], vec![]);
    for log_m in [6u32, 8, 10, 12, 14, 16, 18] {
        let (b, ratio, cells) = ratio_row(&p, 1 << log_m);
        s.line(format!("| 2^{log_m} | {b} | {cells} |"));
        m_ratios.push(ratio);
        thm41_binds.push(
            bounds::seq_memory_dependent(&p, 1 << log_m) > bounds::seq_trivial(&p, 1 << log_m),
        );
    }
    s.line("\n## Order sweep (I = 2^24 total, R = 32, M = 2^12)\n");
    s.line("| N | I_k | b | W_alg2 | W_lb | ratio |\n|---|---|---|---|---|---|");
    let mut other_ratios = Vec::new();
    for order in [2usize, 3, 4, 6] {
        let log_dim = 24 / order;
        let (b, ratio, cells) = ratio_row(&Problem::cubical(order, 1 << log_dim, 32), 1 << 12);
        s.line(format!("| {order} | 2^{log_dim} | {b} | {cells} |"));
        other_ratios.push(ratio);
    }
    s.line("\n## Rank sweep (N = 3, I_k = 2^10, M = 2^10)\n");
    s.line("| R | W_alg2 | W_lb | ratio |\n|---|---|---|---|");
    for r in [1u64, 4, 16, 64, 256, 1024] {
        let (_, ratio, cells) = ratio_row(&Problem::cubical(3, 1 << 10, r), 1 << 10);
        s.line(format!("| {r} | {cells} |"));
        other_ratios.push(ratio);
    }
    let runs: [(&[usize], usize, usize); 3] = [
        (&[8, 8, 8], 4, 64),
        (&[12, 8, 10], 3, 100),
        (&[6, 6, 6, 6], 2, 96),
    ];
    for (dims, r, m) in runs {
        let (x, factors) = setup_problem(dims, r, 11);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let b = seq::choose_block_size(m, dims.len());
        let measured = seq::mttkrp_blocked(&x, &refs, 0, m, b).stats.total() as u128;
        let modeled = model::alg2_cost_exact(&Problem::from_shape(x.shape(), r), 0, b as u64);
        s.claim(
            format!("executed, {dims:?}, R = {r}, M = {m}, b = {b}: measured words, {measured}, equal the exact model"),
            measured == modeled,
        );
    }

    s.pin(
        "the M sweep's ratio, largest at the smallest M and falling as M grows from 2^6 to 2^18",
        &m_ratios,
        &[15.33, 8.12, 4.17, 2.15, 1.41, 1.16, 1.07],
    );
    s.claim(
        "Theorem 4.1 binds only at M = 2^6; from M = 2^8 Fact 4.1's I + sum_k I_k R - 2M does",
        thm41_binds == [true, false, false, false, false, false, false],
    );
    s.pin(
        "the ratio for N = 2, 3, 4, 6, then for R = 1 .. 1024, largest at R = 256",
        &other_ratios,
        &[2.51, 1.63, 1.61, 2.66, 1.05, 1.20, 1.79, 4.17, 11.30, 10.68],
    );
    s
}
