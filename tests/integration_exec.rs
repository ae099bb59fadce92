//! Cross-crate integration tests for the execution subsystem: the planner's
//! model predictions, the simulator's measured word counts, and the native
//! backend's outputs must all tell one consistent story.

use mttkrp_core::Problem;
use mttkrp_exec::{
    execute, plan_and_execute, Algorithm, Backend, ExecCost, MachineSpec, NativeBackend, Planner,
    SimBackend, DEFAULT_CACHE_WORDS,
};
use mttkrp_tensor::{mttkrp_reference, DenseTensor, Matrix, Shape};

fn build(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    let shape = Shape::new(dims);
    let x = DenseTensor::random(shape, seed);
    let factors = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| Matrix::random(d, r, seed + 400 + k as u64))
        .collect();
    (x, factors)
}

/// The load-bearing cross-layer identity: for a blocked sequential plan,
/// the planner's *predicted* cost (Eq. (12) exact form) equals the strict
/// memory simulator's *measured* loads + stores, word for word.
#[test]
fn planned_cost_equals_simulated_cost_for_blocked_plan() {
    let (x, factors) = build(&[8, 8, 8], 3, 11);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 3);
    for mode in 0..3 {
        let plan = Planner::new(MachineSpec::shared(1, 256)).plan(&problem, mode);
        assert!(
            matches!(plan.algorithm, Algorithm::SeqBlocked { .. }),
            "mode {mode}: expected a blocked plan, got {}",
            plan.algorithm
        );
        let report = SimBackend::new().execute(&plan, &x, &refs);
        match report.cost {
            ExecCost::SeqIo { loads, stores, .. } => {
                assert_eq!(
                    (loads + stores) as f64,
                    plan.predicted_cost,
                    "mode {mode}: model and simulator disagree"
                );
            }
            other => panic!("expected SeqIo, got {other:?}"),
        }
    }
}

#[test]
fn front_door_native_run_matches_oracle() {
    let (x, factors) = build(&[10, 6, 8], 4, 21);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let machine = MachineSpec::shared(2, 1 << 12);
    for mode in 0..3 {
        let (plan, report) = plan_and_execute(&machine, &x, &refs, mode);
        assert_eq!(report.backend, "native");
        assert!(plan.algorithm.is_sequential());
        let oracle = mttkrp_reference(&x, &refs, mode);
        assert!(
            report.output.max_abs_diff(&oracle) < 1e-10,
            "mode {mode}: diff {}",
            report.output.max_abs_diff(&oracle)
        );
    }
}

#[test]
fn front_door_distributed_run_matches_oracle_and_rank_count() {
    let (x, factors) = build(&[8, 8, 8], 4, 31);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let machine = MachineSpec::cluster(8, 1, DEFAULT_CACHE_WORDS);
    let (plan, report) = plan_and_execute(&machine, &x, &refs, 0);
    assert_eq!(report.backend, "sim");
    assert!(!plan.algorithm.is_sequential());
    match report.cost {
        ExecCost::ParComm { ranks, .. } => assert_eq!(ranks, 8),
        other => panic!("expected ParComm, got {other:?}"),
    }
    let oracle = mttkrp_reference(&x, &refs, 0);
    assert!(report.output.max_abs_diff(&oracle) < 1e-10);
}

#[test]
fn explicit_stationary_plan_matches_eq14_on_simulator() {
    // Hand-build an Algorithm 3 plan (even distributions) and check the
    // simulator's per-rank received words equal the Eq. (14) model.
    let (x, factors) = build(&[8, 8, 8], 4, 41);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 4);
    let planner = Planner::new(MachineSpec::cluster(8, 1, DEFAULT_CACHE_WORDS));
    let mut plan = planner.plan(&problem, 0);
    plan.algorithm = Algorithm::ParStationary {
        grid: vec![2, 2, 2],
    };
    plan.predicted_cost = mttkrp_core::model::alg3_cost(&problem, &[2, 2, 2]);
    let report = SimBackend::new().execute(&plan, &x, &refs);
    match report.cost {
        ExecCost::ParComm { max_recv_words, .. } => {
            assert_eq!(max_recv_words as f64, plan.predicted_cost);
        }
        other => panic!("expected ParComm, got {other:?}"),
    }
    let oracle = mttkrp_reference(&x, &refs, 0);
    assert!(report.output.max_abs_diff(&oracle) < 1e-10);
}

#[test]
fn execute_front_door_picks_backend_by_plan() {
    let (x, factors) = build(&[6, 6, 6], 2, 51);
    let refs: Vec<&Matrix> = factors.iter().collect();
    let problem = Problem::from_shape(x.shape(), 2);

    let seq_plan = Planner::new(MachineSpec::shared(1, 128)).plan(&problem, 0);
    assert_eq!(execute(&seq_plan, &x, &refs, 0).backend, "native");

    let par_plan =
        Planner::new(MachineSpec::cluster(4, 1, DEFAULT_CACHE_WORDS)).plan_executable(&problem, 0);
    assert_eq!(execute(&par_plan, &x, &refs, 0).backend, "sim");
}

#[test]
fn native_backend_handles_skewed_and_4way_problems() {
    for (dims, r) in [
        (vec![2usize, 31, 5], 7usize),
        (vec![17, 2, 3, 5], 3),
        (vec![1, 9, 4], 2),
    ] {
        let (x, factors) = build(&dims, r, 61);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let backend = NativeBackend::new(3, 1 << 10);
        for mode in 0..dims.len() {
            let got = backend.run(&x, &refs, mode);
            let want = mttkrp_reference(&x, &refs, mode);
            assert!(
                got.max_abs_diff(&want) < 1e-10,
                "dims {dims:?}, mode {mode}"
            );
        }
    }
}
