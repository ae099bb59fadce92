//! Integration tests for the plan cache: the purity contract, the LRU
//! eviction order, and the concurrency discipline.
//!
//! 1. Same key, same plan: however many lookups and executions of a key
//!    interleave, `plan_cached` keeps returning the first call's `Arc`,
//!    and that plan is what a fresh `plan_executable` computes.
//! 2. The cache's eviction order agrees op-for-op with a naive Vec-based
//!    reference LRU across random interleavings of `get` and the planner's
//!    `plan_cached` (the one way a plan enters the cache).
//! 3. Two racing planners converge on one shared resident `Arc` and the
//!    ledger books exactly one hit and one miss — the loser's miss is
//!    reclassified, never double-counted.

use mttkrp_core::Problem;
use mttkrp_exec::{execute, Algorithm, MachineSpec, Plan, PlanCache, PlanKey, Planner};
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
        let first = planner.plan_cached(&problem, mode, &cache);
        for &run in &ops {
            let plan = planner.plan_cached(&problem, mode, &cache);
            prop_assert!(Arc::ptr_eq(&plan, &first), "a lookup changed the resident plan");
            if run {
                execute(&plan, &x, &refs, mode);
            }
        }
        let last = planner.plan_cached(&problem, mode, &cache);
        prop_assert!(Arc::ptr_eq(&last, &first), "an execution changed the resident plan");
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (ops.len() as u64 + 1, 1));

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

    #[test]
    fn eviction_order_matches_a_reference_lru(
        cap in 1usize..6,
        ops in prop::collection::vec((0usize..8, any::<bool>()), 1..80),
    ) {
        // Plans enter the way production's do: `plan_cached` looks the key
        // up and, on a miss, plans it and files it first-wins. A plain `get`
        // only looks up. Every op's hit or miss, the `Arc` it hands back, the
        // ledger, the size and the evictions must agree with the model.
        let machine = MachineSpec::shared(2, 1usize << 12);
        let planner = Planner::new(machine.clone());
        let problems: Vec<Problem> = (0..8u64).map(|i| Problem::new(&[8 + i, 8, 8], 4)).collect();
        let keys: Vec<PlanKey> = problems
            .iter()
            .map(|problem| PlanKey::new(problem, 0, &machine))
            .collect();
        let cache = PlanCache::new(cap);
        // Reference model: most-recently-used at the back of the Vec, and
        // the plan each resident key holds.
        let mut model: Vec<usize> = Vec::new();
        let mut resident: Vec<Option<Arc<Plan>>> = vec![None; keys.len()];
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for &(i, is_get) in &ops {
            let model_hit = model.contains(&i);
            if model_hit {
                model.retain(|&k| k != i);
                model.push(i);
                hits += 1;
            } else {
                misses += 1;
            }
            if is_get {
                let got = cache.get(&keys[i]);
                prop_assert_eq!(got.is_some(), model_hit, "get({}) hit/miss diverged", i);
                if let (Some(got), Some(want)) = (&got, &resident[i]) {
                    prop_assert!(Arc::ptr_eq(got, want), "get({}) changed the resident plan", i);
                }
            } else {
                let plan = planner.plan_cached(&problems[i], 0, &cache);
                if let Some(want) = &resident[i] {
                    prop_assert!(Arc::ptr_eq(&plan, want), "plan_cached({}) planned again", i);
                } else {
                    if model.len() == cap {
                        let victim = model.remove(0);
                        resident[victim] = None;
                        evictions += 1;
                    }
                    model.push(i);
                    resident[i] = Some(plan);
                }
            }
            let stats = cache.stats();
            prop_assert_eq!((stats.hits, stats.misses), (hits, misses));
            prop_assert_eq!((stats.evictions, stats.len), (evictions, model.len()));
        }
    }
}

#[test]
fn racing_planners_share_one_resident_plan_and_one_miss() {
    // The race window is tiny, so run it many times: any schedule must
    // end with both threads holding the same Arc and a (1 hit, 1 miss)
    // ledger — whether the loser lost at lookup or at insert.
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
                    planner.plan_cached(&problem, 0, &cache)
                })
            })
            .collect();
        let plans: Vec<Arc<Plan>> = handles
            .into_iter()
            .map(|h| h.join().expect("planner thread panicked"))
            .collect();
        assert!(
            Arc::ptr_eq(&plans[0], &plans[1]),
            "racing planners must converge on the one resident plan"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "round {round}: the losing racer's miss must be reclassified as a hit, \
             never double-counted"
        );
        assert_eq!(stats.len, 1);
    }
}
