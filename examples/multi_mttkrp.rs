//! Multi-mode MTTKRP with intermediate reuse (Section VII of the paper):
//! a CP-ALS sweep needs MTTKRP in *every* mode; a dimension tree shares
//! partial contractions across modes.
//!
//! This example measures the arithmetic savings (counted multiplies) of
//! the tree over N independent MTTKRPs, across tensor orders, then prints
//! the sweep plan the planner makes of the same tree — the form the CP-ALS
//! engine executes — with its predicted flops and words against N per-mode
//! plans.
//!
//! Run with: `cargo run --release --example multi_mttkrp`

use mttkrp_core::multi::{mttkrp_all_modes_naive, mttkrp_all_modes_tree};
use mttkrp_core::Problem;
use mttkrp_exec::{MachineSpec, Planner};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};

fn main() {
    println!("multi-mode MTTKRP: dimension-tree reuse vs N independent runs\n");
    println!(
        "{:>3} {:>12} {:>6} {:>14} {:>14} {:>8}",
        "N", "dims", "R", "naive muls", "tree muls", "speedup"
    );

    for order in 3..=6usize {
        // Keep |X| roughly constant (~4096) as the order grows.
        let dim = (4096f64.powf(1.0 / order as f64)).round() as usize;
        let dims = vec![dim; order];
        let r = 8;
        let shape = Shape::new(&dims);
        let x = DenseTensor::random(shape.clone(), 1);
        let factors: Vec<Matrix> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, 50 + k as u64))
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();

        let (tree_out, tree_flops) = mttkrp_all_modes_tree(&x, &refs);
        let (naive_out, naive_flops) = mttkrp_all_modes_naive(&x, &refs);

        // Verify both against the oracle for every mode.
        for n in 0..order {
            let oracle = mttkrp_reference(&x, &refs, n);
            assert!(tree_out[n].max_abs_diff(&oracle) < 1e-9);
            assert!(naive_out[n].max_abs_diff(&oracle) < 1e-9);
        }

        println!(
            "{:>3} {:>12} {:>6} {:>14} {:>14} {:>7.2}x",
            order,
            format!("{dim}^{order}"),
            r,
            naive_flops.muls,
            tree_flops.muls,
            naive_flops.muls as f64 / tree_flops.muls as f64
        );
    }

    println!("\nthe naive cost grows ~N^2*I*R while the tree stays ~O(N*I*R):");
    println!("exactly the cross-mode reuse Section VII says saves computation.");
    println!("(naive counts Definition 2.1's atomic multiplies, the tree the loops it runs;");
    println!("the sweep plan below compares like with like.)");

    // The same tree as the planner sees it, over the caller's mode plans:
    // tensor passes are ordinary plans, the rest contractions of partials.
    let planner = Planner::new(MachineSpec::shared(1, 1 << 14));
    let sweep = |p: &Problem| {
        let plan = |n| std::sync::Arc::new(planner.plan(p, n));
        planner.plan_sweep(p, &(0..p.order()).map(plan).collect::<Vec<_>>())
    };
    println!("\n{}", sweep(&Problem::cubical(4, 20, 16)));
    // A rank past the dropped extents on one side: that side runs per mode.
    println!("\n{}", sweep(&Problem::new(&[3, 4, 2, 3], 7)));

    // And the communication half of the claim, on the simulated machine:
    // an all-modes sweep gathers each factor once instead of N-1 times.
    println!("\ndistributed sweep on a 2x2x2 machine (16^3 tensor, R = 8):");
    let dims = [16usize, 16, 16];
    let x = DenseTensor::random(Shape::new(&dims), 9);
    let factors: Vec<Matrix> = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, 8, 70 + k as u64))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let all = mttkrp_core::par::mttkrp_all_modes_stationary(&x, &refs, &[2, 2, 2]);
    let per_mode: u64 = (0..3)
        .map(|n| {
            mttkrp_core::par::mttkrp_stationary(&x, &refs, n, &[2, 2, 2])
                .summary
                .max_words
        })
        .sum();
    for n in 0..3 {
        let oracle = mttkrp_reference(&x, &refs, n);
        assert!(all.outputs[n].max_abs_diff(&oracle) < 1e-9);
    }
    println!(
        "  per-mode sweep (3x Algorithm 3): {per_mode} words/rank\n  \
         all-modes sweep (shared gathers): {} words/rank ({:.2}x less)",
        all.summary.max_words,
        per_mode as f64 / all.summary.max_words as f64
    );
}
