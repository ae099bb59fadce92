//! The same planned MTTKRP on both execution backends.
//!
//! The planner chooses one algorithm from the paper's cost models; the
//! simulator backend then reports what the plan *costs in words* (the
//! quantity the paper's lower bounds govern), while the native backend
//! reports what it *costs in time* at hardware speed — single-threaded and
//! with all cores.
//!
//! Run with: `cargo run --release --example native_vs_sim`

use mttkrp_core::{bounds, Problem};
use mttkrp_exec::{Backend, ExecCost, MachineSpec, NativeBackend, Planner, SimBackend};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};

fn main() {
    let dims = [32usize, 32, 32];
    let rank = 16;
    let mode = 0;
    let m = 2048; // planner's fast-memory budget (words)

    let shape = Shape::new(&dims);
    let x = DenseTensor::random(shape.clone(), 7);
    let factors: Vec<Matrix> = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, rank, 100 + k as u64))
        .collect();
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(&shape, rank);

    let cores = MachineSpec::detect_threads();
    let machine = MachineSpec::shared(cores, m);
    let plan = Planner::new(machine).plan(&problem, mode);
    println!("{plan}\n");

    // --- simulator: exact word counts --------------------------------------
    let sim_report = SimBackend::new().execute(&plan, &x, &refs);
    if let ExecCost::SeqIo { loads, stores, .. } = sim_report.cost {
        let measured = loads + stores;
        println!(
            "simulator:   {measured} words moved (model predicted {:.0})",
            plan.predicted_cost
        );
        println!(
            "lower bound: {:.0} words (best sequential bound at M = {m})",
            bounds::seq_best(&problem, m as u64)
        );
    }

    // --- native: wall-clock, 1 thread vs all cores -------------------------
    let single = NativeBackend::new(1, m);
    let multi = NativeBackend::new(cores, m);
    let r1 = single.execute(&plan, &x, &refs);
    let rn = multi.execute(&plan, &x, &refs);
    let (t1, tn) = (r1.elapsed.as_secs_f64(), rn.elapsed.as_secs_f64());
    println!("\nnative, 1 thread:    {:.3} ms", t1 * 1e3);
    println!("native, {cores} thread(s): {:.3} ms", tn * 1e3);
    if cores > 1 {
        println!("speedup: {:.2}x", t1 / tn);
    }

    // --- everyone agrees with the oracle -----------------------------------
    let oracle = mttkrp_reference(&x, &refs, mode);
    for (name, out) in [
        ("sim", &sim_report.output),
        ("native x1", &r1.output),
        ("native xN", &rn.output),
    ] {
        let diff = out.max_abs_diff(&oracle);
        assert!(diff < 1e-10, "{name} diverged from the oracle: {diff}");
        println!("{name:<10} matches oracle (max |diff| = {diff:.2e})");
    }
}
