//! Regenerates **Figure 3** of the paper: the phase-by-phase data motion of
//! the Parallel Stationary Tensor Algorithm (Algorithm 3) for `N = 3`,
//! mode `n = 1` (paper numbering; `n = 0` here), on a `2 x 3 x 2` grid —
//! (a) initial distribution, (b)/(c) All-Gathers, (d) local compute,
//! (e) Reduce-Scatter — with *measured* per-phase words for every rank,
//! read from the ledgers of the one Algorithm 3 rank body
//! (`par::stationary_rank`, run on every rank by `par::mttkrp_stationary`).
//!
//! Run with: `cargo run --release -p mttkrp-bench --bin fig3`

use mttkrp_bench::setup_problem;
use mttkrp_core::par;
use mttkrp_netsim::ProcessorGrid;
use mttkrp_tensor::Matrix;

fn main() {
    let dims = [4usize, 6, 4];
    let grid_dims = [2usize, 3, 2];
    let (r, n) = (2usize, 0usize);
    let (x, factors) = setup_problem(&dims, r, 3);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let oracle = mttkrp_tensor::mttkrp_reference(&x, &refs, n);

    println!("# Figure 3: Algorithm 3 phases on a 2x3x2 grid (P = 12), n = 1 (paper numbering)\n");
    println!("(a) start: each processor owns its subtensor and a 1/|hyperslice|");
    println!("    part of each mode's factor block row");
    println!("(b,c) All-Gather factor rows within hyperslices (modes k != n)");
    println!("(d) local MTTKRP contribution");
    println!("(e) Reduce-Scatter within the mode-n hyperslice\n");

    let pgrid = ProcessorGrid::new(&grid_dims);
    let run = par::mttkrp_stationary(&x, &refs, n, &grid_dims);

    println!("measured words received per rank and phase:\n");
    println!(
        "{:>5} {:>8} {:>14} {:>14} {:>9} {:>16}",
        "rank", "coords", "AG A^(2) (b)", "AG A^(3) (c)", "comp (d)", "Red-Scat (e)"
    );
    for (rank, ledger) in run.ledgers.iter().enumerate() {
        let c = pgrid.coords(rank);
        // (b), (c), (e): the two factor all-gathers and the reduce-scatter;
        // the local compute (d) moves nothing.
        let recv: Vec<u64> = ledger.phases().iter().map(|t| t.words_received).collect();
        println!(
            "{:>5} {:>8} {:>14} {:>14} {:>9} {:>16}",
            rank,
            format!("({},{},{})", c[0] + 1, c[1] + 1, c[2] + 1),
            recv[0],
            recv[1],
            0,
            recv[2]
        );
    }

    // Verify the assembled result.
    let err = run.output.max_abs_diff(&oracle);
    println!("\nassembled B^(1) vs oracle: max |diff| = {err:.2e}");
    assert!(err < 1e-10);
    println!("the tensor itself was never communicated (stationary): only factor rows moved");
}
