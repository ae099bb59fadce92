//! Property tests for the execution subsystem.
//!
//! 1. The native backend is numerically interchangeable with the oracle
//!    ([`mttkrp_reference`]) across random 3-way/4-way shapes, all modes,
//!    thread counts, and cache sizes (hence tile sizes).
//! 2. The planner never selects a plan whose modeled cost is worse than any
//!    alternative it was offered.
//! 3. On the paper's Figure 4 configurations (`I = 2^45`, `R = 2^15`), the
//!    planner's grid choices agree exactly with the `grid_opt`
//!    prescriptions.

use mttkrp_core::{grid_opt, Problem};
use mttkrp_exec::{
    Algorithm, Backend, MachineSpec, NativeBackend, Planner, SimBackend, DEFAULT_CACHE_WORDS,
};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};
use proptest::prelude::*;

fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed ^ ((k as u64 + 1) * 6151)))
        .collect();
    (x, factors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn native_backend_matches_oracle_all_modes(
        dims in prop::collection::vec(2usize..7, 3..=4),
        r in 1usize..6,
        seed in 0u64..1000,
        threads in 1usize..5,
        cache_exp in 4u32..16,
    ) {
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let backend = NativeBackend::new(threads, 1usize << cache_exp);
        for n in 0..dims.len() {
            let got = backend.run(&x, &refs, n);
            let want = mttkrp_reference(&x, &refs, n);
            prop_assert!(
                got.max_abs_diff(&want) < 1e-10,
                "mode {n}, threads {threads}, cache 2^{cache_exp}: diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn planned_native_execution_matches_oracle(
        dims in prop::collection::vec(2usize..7, 3..=3),
        r in 1usize..5,
        seed in 0u64..1000,
        mem_exp in 4u32..20,
    ) {
        // Whole pipeline: plan for a sequential machine, execute natively.
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(x.shape(), r);
        let machine = MachineSpec::shared(2, 1usize << mem_exp);
        let plan = Planner::new(machine).plan(&problem, 0);
        let report = NativeBackend::new(2, 1usize << mem_exp).execute(&plan, &x, &refs);
        let want = mttkrp_reference(&x, &refs, 0);
        prop_assert!(report.output.max_abs_diff(&want) < 1e-10);
    }

    #[test]
    fn planner_never_dominated(
        dims in prop::collection::vec(2u64..40, 3..=4),
        rank in 1u64..40,
        mode_frac in 0.0f64..1.0,
        mem_exp in 3u32..24,
        ranks_exp in 0u32..7,
    ) {
        let p = Problem::new(&dims, rank);
        let mode = ((dims.len() - 1) as f64 * mode_frac) as usize;
        let machines = [
            MachineSpec::shared(1, 1usize << mem_exp),
            MachineSpec::cluster(1usize << ranks_exp, 1, DEFAULT_CACHE_WORDS),
        ];
        for machine in machines {
            let plan = Planner::new(machine).plan(&p, mode);
            for c in &plan.candidates {
                prop_assert!(
                    plan.predicted_cost <= c.modeled_cost + 1e-9,
                    "{} (cost {}) dominated by {} (cost {})",
                    plan.algorithm, plan.predicted_cost, c.algorithm, c.modeled_cost
                );
            }
        }
    }

    #[test]
    fn sim_and_native_backends_agree(
        dims in prop::collection::vec(2usize..6, 3..=3),
        r in 1usize..4,
        seed in 0u64..500,
    ) {
        // Same plan, both backends: identical mathematics, different cost
        // observations.
        let (x, factors) = build(&dims, r, seed);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(x.shape(), r);
        let plan = Planner::new(MachineSpec::shared(1, 256)).plan(&problem, 1);
        let native = NativeBackend::new(2, 256).execute(&plan, &x, &refs);
        let sim = SimBackend::new().execute(&plan, &x, &refs);
        prop_assert!(native.output.max_abs_diff(&sim.output) < 1e-10);
    }
}

/// The paper's Figure 4 instance: cubical 3-way, `I = 2^45`, `R = 2^15`.
/// The planner's parallel choices must agree with the `grid_opt`
/// prescriptions at every plotted processor count we spot-check.
#[test]
fn fig4_plans_agree_with_grid_opt() {
    let p = Problem::cubical(3, 1 << 15, 1 << 15);
    for procs_log2 in [5u32, 10, 17, 20, 25, 30] {
        let procs = 1u64 << procs_log2;
        let plan =
            Planner::new(MachineSpec::cluster(procs as usize, 1, DEFAULT_CACHE_WORDS)).plan(&p, 0);

        let (grid3, cost3) = grid_opt::optimize_alg3_grid(&p, procs);
        let (p0, grid4, cost4) = grid_opt::optimize_alg4_grid(&p, procs);
        let best = cost3.min(cost4);
        assert!(
            (plan.predicted_cost - best).abs() <= 1e-9 * best,
            "P=2^{procs_log2}: predicted {} != grid_opt best {best}",
            plan.predicted_cost
        );

        match &plan.algorithm {
            Algorithm::ParStationary { grid } => {
                assert!(cost3 <= cost4 + 1e-9 * cost3, "P=2^{procs_log2}");
                let got: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
                assert_eq!(got, grid3, "P=2^{procs_log2}: alg3 grid mismatch");
            }
            Algorithm::ParGeneral { p0: got_p0, grid } => {
                assert!(
                    cost4 < cost3,
                    "P=2^{procs_log2}: alg4 chosen but not cheaper"
                );
                assert_eq!(*got_p0 as u64, p0, "P=2^{procs_log2}: P0 mismatch");
                let got: Vec<u64> = grid.iter().map(|&g| g as u64).collect();
                assert_eq!(got, grid4, "P=2^{procs_log2}: alg4 grid mismatch");
            }
            other => panic!("P=2^{procs_log2}: tensor-aware algorithm expected, got {other}"),
        }

        // Figure 4's headline: the tensor-aware choice beats the matmul
        // baseline model throughout.
        let mm = plan
            .candidates
            .iter()
            .find(|c| matches!(c.algorithm, Algorithm::ParMatmul { .. }))
            .expect("matmul baseline must be offered");
        assert!(
            plan.predicted_cost < mm.modeled_cost,
            "P=2^{procs_log2}: tensor-aware {} !< matmul {}",
            plan.predicted_cost,
            mm.modeled_cost
        );
    }
}

/// At Figure 4 scale the rank-partitioned Algorithm 4 must take over for
/// huge P (its `P_0 > 1` regime), and reduce to Algorithm 3 for small P.
#[test]
fn fig4_p0_regime_transition() {
    let p = Problem::cubical(3, 1 << 15, 1 << 15);
    let small = Planner::new(MachineSpec::cluster(1 << 10, 1, DEFAULT_CACHE_WORDS)).plan(&p, 0);
    match &small.algorithm {
        Algorithm::ParStationary { .. } => {}
        Algorithm::ParGeneral { p0, .. } => assert_eq!(*p0, 1),
        other => panic!("unexpected {other}"),
    }
    let huge = Planner::new(MachineSpec::cluster(1 << 30, 1, DEFAULT_CACHE_WORDS)).plan(&p, 0);
    match &huge.algorithm {
        Algorithm::ParGeneral { p0, .. } => assert!(*p0 > 1, "expected P0 > 1, got {p0}"),
        other => panic!("expected Algorithm 4 at P = 2^30, got {other}"),
    }
}
