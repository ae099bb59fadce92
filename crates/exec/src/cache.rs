//! A bounded store of plans shared across runs.
//!
//! A plan is a pure function of `(dims, R, mode, MachineSpec)` — the planner
//! ranks candidates by modeled words and nothing a run measures feeds back —
//! so a stored plan is exactly what planning again would compute. Each plan
//! has one store, whoever holds it: an ALS run keeps its `N` mode plans, a
//! server's key map keeps one per key. A [`PlanCache`] is that store for a
//! caller that wants the plans of one run to outlive it, passed to
//! [`crate::Planner::plan_cached`].

use crate::machine::MachineSpec;
use crate::plan::Plan;
use mttkrp_core::Problem;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// What a plan is found by: dims, rank, output mode, and the machine it
/// was planned for (the same shape on another machine is another plan).
type Key = (Vec<u64>, u64, usize, MachineSpec);

/// A bounded map of [`Plan`]s: a new plan that finds the map full clears it
/// first. Plans are stored as `Arc<Plan>`, so a hit is a clone of a pointer,
/// not of the plan's candidate table.
///
/// ```
/// use mttkrp_core::Problem;
/// use mttkrp_exec::{MachineSpec, PlanCache, Planner};
///
/// let cache = PlanCache::new(64);
/// let planner = Planner::new(MachineSpec::shared(1, 512));
/// let problem = Problem::cubical(3, 64, 16);
///
/// let (first, hit) = planner.plan_cached_with_status(&problem, 0, &cache);
/// assert!(!hit); // planned
/// let (again, hit) = planner.plan_cached_with_status(&problem, 0, &cache);
/// assert!(hit); // the stored plan
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// ```
pub struct PlanCache {
    plans: Mutex<HashMap<Key, Arc<Plan>>>,
    capacity: usize,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        PlanCache {
            plans: Mutex::new(HashMap::new()),
            capacity,
        }
    }

    /// The plan stored for `problem` at `mode` on `machine` — or the one
    /// `plan` makes, stored — and whether it was stored before. The map is
    /// held while `plan` runs, so a key is planned once however many
    /// threads ask for it at once.
    pub(crate) fn get_or_plan(
        &self,
        problem: &Problem,
        mode: usize,
        machine: &MachineSpec,
        plan: impl FnOnce() -> Plan,
    ) -> (Arc<Plan>, bool) {
        let key = (problem.dims.clone(), problem.rank, mode, machine.clone());
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(stored) = plans.get(&key) {
            return (Arc::clone(stored), true);
        }
        if plans.len() >= self.capacity {
            plans.clear();
        }
        let planned = Arc::new(plan());
        plans.insert(key, Arc::clone(&planned));
        (planned, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;

    fn machine() -> MachineSpec {
        MachineSpec::shared(1, 256)
    }

    /// Asks `cache` for mode `mode` of an `n^3`, `R = 4` problem; whether
    /// it was a hit.
    fn ask(cache: &PlanCache, n: u64, mode: usize) -> bool {
        let planner = Planner::new(machine());
        planner
            .plan_cached_with_status(&Problem::cubical(3, n, 4), mode, cache)
            .1
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PlanCache::new(4);
        let hits: Vec<bool> = (0..3).map(|_| ask(&cache, 8, 0)).collect();
        assert_eq!(hits, [false, true, true]);
        assert!(!ask(&cache, 8, 1), "another mode is another plan");
    }

    #[test]
    fn a_full_cache_is_cleared_before_it_stores() {
        let cache = PlanCache::new(2);
        assert!(!ask(&cache, 8, 0));
        assert!(!ask(&cache, 8, 1));
        assert!(!ask(&cache, 8, 2), "a third key clears both");
        assert!(ask(&cache, 8, 2));
        assert!(!ask(&cache, 8, 0));
    }

    #[test]
    fn reinsert_does_not_evict_and_first_wins() {
        let cache = PlanCache::new(2);
        let problem = Problem::cubical(3, 8, 4);
        let planner = Planner::new(machine());
        let original = planner.plan_cached(&problem, 0, &cache);
        assert!(!ask(&cache, 8, 1));
        // Asking for a resident key at capacity keeps the first plan and
        // clears nothing.
        let again = planner.plan_cached(&problem, 0, &cache);
        assert!(Arc::ptr_eq(&again, &original));
        assert!(ask(&cache, 8, 1));
    }

    #[test]
    fn machine_is_part_of_the_key() {
        let p = Problem::cubical(3, 8, 4);
        let cache = PlanCache::new(4);
        let small = Planner::new(MachineSpec::shared(1, 64));
        let large = Planner::new(MachineSpec::shared(1, 128));
        assert!(!small.plan_cached_with_status(&p, 0, &cache).1);
        assert!(
            !large.plan_cached_with_status(&p, 0, &cache).1,
            "different machine, different plan"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }
}
