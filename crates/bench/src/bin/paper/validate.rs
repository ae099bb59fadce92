//! **VAL**: runs every executed algorithm over a matrix of configurations
//! and checks measured words against the closed-form models, exactly, in
//! every mode: the evidence that the simulators measure what the paper's
//! formulas describe. The claims are the section: each covers one
//! configuration's modes, and names the measured words it compared.

use super::Section;
use mttkrp_bench::setup_problem;
use mttkrp_core::{model, par, seq, Problem};
use mttkrp_tensor::{mttkrp_reference, Matrix};

pub fn section() -> Section {
    let mut s = Section::default();
    s.line("# VAL: measured vs modeled communication\n");
    s.line("Sequential Algorithms 1 and 2 (b = 1 .. 3) in every mode; Algorithms 3 and 4 on");
    s.line("even grids, where q_k divides the block rows, in every mode and on every rank.");
    let seq_configs: [(&[usize], usize); 3] =
        [(&[4, 5, 6], 2), (&[8, 8, 8], 3), (&[3, 7, 5, 2], 2)];
    for (dims, r) in seq_configs {
        let (x, factors) = setup_problem(dims, r, 31);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let (p, order) = (Problem::from_shape(x.shape(), r), dims.len());
        let (mut alg1, mut alg2) = (true, true);
        let (mut alg1_words, mut alg2_words) = (0, 0);
        for n in 0..order {
            let run = seq::mttkrp_unblocked(&x, &refs, n, order + 1);
            alg1_words = run.stats.total();
            alg1 &= alg1_words as u128 == model::alg1_cost(&p);
            if n == 0 {
                alg1 &= run.output.max_abs_diff(&mttkrp_reference(&x, &refs, 0)) < 1e-10;
            }
            for b in 1..=3usize {
                let m = b.pow(order as u32) + order * b + 2;
                let words = seq::mttkrp_blocked(&x, &refs, n, m, b).stats.total();
                alg2 &= words as u128 == model::alg2_cost_exact(&p, n, b as u64);
                alg2_words += words;
            }
        }
        let name = format!("{dims:?}, R = {r}");
        s.claim(
            format!("alg1 {name}: measured words equal I + I R (N+1) = {alg1_words} in every mode, and the mode-0 output matches the oracle within 1e-10"),
            alg1,
        );
        s.claim(
            format!("alg2 {name}: measured words ({alg2_words} over all modes and b <= 3) equal the exact model's"),
            alg2,
        );
    }

    // P0 = 1 rows run Algorithm 3.
    let even: [(&[usize], usize, usize, &[usize]); 7] = [
        (&[8, 8, 8], 4, 1, &[2, 2, 2]),
        (&[8, 8, 16], 2, 1, &[2, 1, 4]),
        (&[16, 16, 16], 2, 1, &[2, 2, 2]),
        (&[4, 4, 4], 2, 1, &[1, 1, 1]),
        (&[8, 8, 8], 8, 2, &[2, 2, 2]),
        (&[8, 8, 8], 4, 4, &[2, 2, 2]),
        (&[4, 4, 4], 8, 2, &[2, 2, 1]),
    ];
    for (dims, r, p0, grid) in even {
        let (x, factors) = setup_problem(dims, r, if p0 == 1 { 37 } else { 41 });
        let refs: Vec<&Matrix> = factors.iter().collect();
        let p = Problem::from_shape(x.shape(), r);
        let g64: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
        let (mut exact, mut words) = (true, vec![]);
        for n in 0..dims.len() {
            let (run, modeled) = match p0 {
                1 => (
                    par::mttkrp_stationary(&x, &refs, n, grid),
                    model::alg3_cost(&p, &g64),
                ),
                _ => (
                    par::mttkrp_general(&x, &refs, n, p0, grid),
                    model::alg4_cost(&p, p0 as u64, &g64),
                ),
            };
            let oracle = run.output.max_abs_diff(&mttkrp_reference(&x, &refs, n)) < 1e-9;
            let received = run.stats.iter().all(|t| t.words_received as f64 == modeled);
            exact &= oracle && received;
            words.push(run.max_recv_words());
        }
        let name = match p0 {
            1 => format!("alg3 {dims:?}, R = {r}, {grid:?}"),
            _ => format!("alg4 {dims:?}, R = {r}, P0={p0},{grid:?}"),
        };
        s.claim(
            format!("{name}: every rank receives exactly the modeled words in every mode, {words:?}, and every mode's output matches the oracle within 1e-9"),
            exact,
        );
    }
    s
}
