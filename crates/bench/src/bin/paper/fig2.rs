//! **Figure 2**: the sequential blocked algorithm's data access pattern
//! (`N = 3`, mode `n = 2` in the paper's 1-based numbering) and the
//! measured I/O of the real blocked run it illustrates, held against
//! Eqs. (11)/(12) and Theorem 4.1's segment argument.

use super::Section;
use mttkrp_bench::setup_problem;
use mttkrp_core::{hbl, model, seq, Problem};
use mttkrp_tensor::Matrix;

pub fn section() -> Section {
    let mut s = Section::default();
    s.line("# Figure 2: sequential blocked algorithm (N = 3, n = 2, b = 3)\n");
    // One iteration: block (j1, j2, j3) = (1, 1, 1) touching the X block and
    // the three subvectors; `#` marks what this step loads.
    s.line("One step of Algorithm 2 (block at j = (1,1,1), extent b = 3):\n");
    s.line("        A^(1)(j1:J1, r)        X(j1:J1, j2:J2, j3:J3)      A^(3)(j3:J3, r)");
    for i in 0..9 {
        let (a, x) = [("|#|", "[###......]"), ("| |", "[.........]")][usize::from(i >= 3)];
        let label = if i == 0 { "B^(2)(j2:J2, r) = ===" } else { "" };
        s.line(format!(
            "    {a}                   {x}                  {a}   {label}"
        ));
    }

    let (x, factors) = setup_problem(&[9, 9, 9], 2, 2);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let run = seq::mttkrp_blocked(&x, &refs, 1, 64, 3);
    let (words, peak) = (run.stats.total(), run.peak_fast);
    let problem = Problem::new(&[9, 9, 9], 2);
    let exact = model::alg2_cost_exact(&problem, 1, 3);
    let upper = model::alg2_cost_upper(&problem, 3);
    let cap = hbl::segment_iteration_bound(3, 64);
    let busiest = run.segments.iter().copied().max().unwrap_or(0);
    s.line("\nmeasured on the strict memory simulator (M = 64 words):");
    s.line(format!("  {words} loads + stores, peak fast usage {peak}, at most {busiest} iterations in one 64-operation segment"));

    s.claim(
        format!("loads + stores equal the exact model, {exact}: X once, each factor subvector once per block and column, B's in and out"),
        words as u128 == exact,
    );
    s.claim(
        format!("Eq. (12)'s {upper:.0} is met with equality, as b = 3 divides I_k = 9"),
        exact as f64 == upper,
    );
    s.claim(
        "fast memory never holds more than Eq. (11)'s b^N + N b = 36 words",
        peak <= 36,
    );
    s.claim(
        format!("no M-operation segment passes Theorem 4.1's Lemma 4.3 cap, {cap:.1}"),
        busiest as f64 <= cap,
    );
    s
}
