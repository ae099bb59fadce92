//! Integration tests for the plan cache: the purity contract and the
//! concurrency discipline.
//!
//! 1. Same key, same plan: however many lookups and executions of a key
//!    interleave, `plan_cached` keeps returning the first call's `Arc`,
//!    and that plan is what a fresh `plan_executable` computes.
//! 2. Two racing planners converge on one shared resident `Arc`, and one of
//!    them planned it: one miss and one hit.

use mttkrp_core::Problem;
use mttkrp_exec::{execute, Algorithm, MachineSpec, Plan, PlanCache, Planner};
use mttkrp_tensor::{DenseTensor, Matrix, Shape};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn same_key_same_plan(
        halves in prop::collection::vec(1usize..5, 3..=4),
        r in 1usize..6,
        mem_exp in 5u32..16,
        machine_idx in 0usize..3,
        ops in prop::collection::vec(any::<bool>(), 0..20),
        seed in 0u64..1000,
    ) {
        // P = 4 and P = 8 always get a parallel plan, P = 1 a sequential one.
        let dims: Vec<usize> = halves.iter().map(|h| 2 * h).collect();
        let machine = match [1, 4, 8][machine_idx] {
            1 => MachineSpec::shared(2, 1usize << mem_exp),
            p => MachineSpec::cluster(p, 1, 1usize << mem_exp),
        };
        let shape = Shape::new(&dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors: Vec<Matrix> = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed ^ ((k as u64 + 1) * 6151)))
            .collect();
        let refs: Vec<&Matrix> = factors.iter().collect();
        let problem = Problem::from_shape(&shape, r);
        let mode = seed as usize % dims.len();

        let planner = Planner::new(machine);
        let cache = PlanCache::new(4);
        let (first, hit) = planner.plan_cached_with_status(&problem, mode, &cache);
        prop_assert!(!hit, "a fresh cache plans");
        for &run in &ops {
            let (plan, hit) = planner.plan_cached_with_status(&problem, mode, &cache);
            prop_assert!(hit && Arc::ptr_eq(&plan, &first), "a lookup changed the resident plan");
            if run {
                execute(&plan, &x, &refs, mode);
            }
        }
        let last = planner.plan_cached(&problem, mode, &cache);
        prop_assert!(Arc::ptr_eq(&last, &first), "an execution changed the resident plan");

        let fresh = planner.plan_executable(&problem, mode);
        let table = |plan: &Plan| -> Vec<(Algorithm, u64)> {
            (plan.candidates.iter())
                .map(|c| (c.algorithm.clone(), c.modeled_cost.to_bits()))
                .collect()
        };
        prop_assert_eq!(&last.algorithm, &fresh.algorithm);
        prop_assert_eq!(last.predicted_cost.to_bits(), fresh.predicted_cost.to_bits());
        prop_assert_eq!(table(&last), table(&fresh));
    }
}

#[test]
fn racing_planners_share_one_resident_plan_and_one_miss() {
    // The race window is tiny, so run it many times: any schedule must
    // end with both threads holding the same Arc, planned by one of them.
    for round in 0..64u64 {
        let cache = Arc::new(PlanCache::new(8));
        let problem = Problem::new(&[16 + round % 3, 16, 16], 4);
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                let problem = problem.clone();
                thread::spawn(move || {
                    let planner = Planner::new(MachineSpec::shared(2, 1 << 12));
                    barrier.wait();
                    planner.plan_cached_with_status(&problem, 0, &cache)
                })
            })
            .collect();
        let plans: Vec<(Arc<Plan>, bool)> = handles
            .into_iter()
            .map(|h| h.join().expect("planner thread panicked"))
            .collect();
        assert!(
            Arc::ptr_eq(&plans[0].0, &plans[1].0),
            "racing planners must converge on the one resident plan"
        );
        assert_ne!(plans[0].1, plans[1].1, "round {round}: one miss, one hit");
    }
}
