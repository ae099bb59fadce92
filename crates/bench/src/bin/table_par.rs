//! **TAB-PAR**: the parallel optimality table implied by Theorem 6.2 —
//! Algorithm 4's best-grid communication (Eq. (18)) over the
//! memory-independent lower bounds (Theorems 4.2/4.3), swept over processor
//! counts in both Corollary 4.2 regimes, plus executed small-P rows where
//! the simulator's measured words are checked against the model.
//!
//! Run with: `cargo run --release -p mttkrp-bench --bin table_par`

use mttkrp_bench::{eng, setup_problem};
use mttkrp_core::{bounds, grid_opt, model, par, Problem};
use mttkrp_tensor::Matrix;

fn main() {
    println!("# TAB-PAR: Algorithm 4 vs parallel lower bounds (Theorem 6.2)\n");

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
    for (title, problem, log_ps) in regimes {
        println!("## {title}\n");
        println!(
            "| log2 P | best P0 | W_alg4 | W_lb | ratio | regime |\n|---|---|---|---|---|---|"
        );
        for &log_p in log_ps {
            let procs = 1u64 << log_p;
            let (p0, _, cost) = grid_opt::optimize_alg4_grid(&problem, procs);
            let lb = bounds::par_best_mi(&problem, procs).max(1.0);
            let large = bounds::cor42_large_p_regime(&problem, procs);
            let (w, lb_text, ratio) = (eng(cost), eng(lb), cost / lb);
            let regime = if large { "large-P" } else { "small-P" };
            println!("| {log_p} | {p0} | {w} | {lb_text} | {ratio:.2} | {regime} |");
        }
        println!();
    }

    println!("## Executed cross-check (measured == Eq. (14)/(18) model, even cases)\n");
    println!("| algorithm | dims | R | grid | measured w/rank | model | match |\n|---|---|---|---|---|---|---|");

    // Algorithm 3, even case.
    {
        let dims = [8usize, 8, 8];
        let (x, factors) = setup_problem(&dims, 4, 21);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_stationary(&x, &refs, 0, &[2, 2, 2]);
        let p = Problem::new(&[8, 8, 8], 4);
        let modeled = model::alg3_cost(&p, &[2, 2, 2]);
        let ok = run.max_recv_words() as f64 == modeled;
        println!(
            "| alg3 | 8x8x8 | 4 | 2x2x2 | {} | {} | {ok} |",
            run.max_recv_words(),
            eng(modeled)
        );
        assert!(ok);
    }
    // Algorithm 4, even case.
    {
        let dims = [8usize, 8, 8];
        let (x, factors) = setup_problem(&dims, 8, 22);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_general(&x, &refs, 0, 2, &[2, 2, 2]);
        let p = Problem::new(&[8, 8, 8], 8);
        let modeled = model::alg4_cost(&p, 2, &[2, 2, 2]);
        let ok = run.max_recv_words() as f64 == modeled;
        println!(
            "| alg4 | 8x8x8 | 8 | P0=2, 2x2x2 | {} | {} | {ok} |",
            run.max_recv_words(),
            eng(modeled)
        );
        assert!(ok);
    }
    // Measured lower-bound sanity: no executed run beats the LP bound.
    {
        let dims = [8usize, 8, 8];
        let (x, factors) = setup_problem(&dims, 4, 23);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let run = par::mttkrp_stationary(&x, &refs, 0, &[2, 2, 2]);
        let p = Problem::new(&[8, 8, 8], 4);
        let lb = bounds::par_best_mi(&p, 8);
        println!(
            "\nmeasured max words/rank {} >= memory-independent bound {:.1}: {}",
            run.summary.max_words,
            lb,
            run.summary.max_words as f64 >= lb
        );
        assert!(run.summary.max_words as f64 >= lb);
    }

    println!("\nTheorem 6.2: the Eq.(18)/lower-bound ratio stays O(1) in both");
    println!("regimes; the optimal P0 switches from 1 to >1 exactly when the");
    println!("large-P regime begins. (W_alg4 follows the paper's convention of");
    println!("charging each bucket collective once, (q-1)w; the lower bounds");
    println!("count sends+receives, so a ratio slightly below 1 is consistent —");
    println!("doubling W_alg4 gives the sends+receives figure.)");
}
