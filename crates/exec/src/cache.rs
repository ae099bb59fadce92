//! The plan cache: amortizing the planner's candidate sweep across
//! repeated problem shapes.
//!
//! Planning is pure model evaluation, but it is not free — the `grid_opt`
//! searches enumerate processor-count factorizations — and a serving
//! workload asks for the *same* handful of shapes over and over. The cache
//! maps `(`[`ProblemKey`]`, `[`MachineSpec`]`)` (bundled as a [`PlanKey`])
//! to a shared, immutable [`Plan`], evicts least-recently-used entries
//! beyond a fixed capacity, and counts hits and misses so a server can
//! report its cache hit rate. Eviction order is maintained in a
//! `BTreeMap<stamp, key>` side index, so finding the LRU victim is a
//! `pop_first`, not a full scan of the map.
//!
//! A plan is a pure function of its key — the planner ranks candidates by
//! modeled words and nothing a run measures feeds back — so a resident
//! entry never changes, a hit in one process returns the plan a miss in
//! any other would compute, and the cache holds nothing worth persisting:
//! a front door that wants zero misses on known shapes plans them at
//! start-up, for microseconds per key.
//!
//! All methods take `&self` (a mutex guards the map internally), so one
//! cache can be shared across threads behind an `Arc`.

use crate::machine::MachineSpec;
use crate::plan::Plan;
use mttkrp_core::Problem;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// The shape-level identity of an MTTKRP request: tensor dimensions, CP
/// rank, and output mode. Two requests with equal keys are the *same
/// planning problem* (their data may differ), so they can share a plan and
/// be batched together.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProblemKey {
    /// Tensor dimensions `I_1, ..., I_N`.
    dims: Vec<u64>,
    /// CP rank `R`.
    rank: u64,
    /// Output mode `n`.
    mode: usize,
}

impl ProblemKey {
    /// The key of `problem` at output mode `mode`.
    pub(crate) fn new(problem: &Problem, mode: usize) -> ProblemKey {
        assert!(mode < problem.order(), "mode out of range");
        ProblemKey {
            dims: problem.dims.clone(),
            rank: problem.rank,
            mode,
        }
    }
}

/// A full plan-cache key: the problem shape *and* the machine it was
/// planned for. The same shape planned for a different machine is a
/// different plan (different `M`, different `P`, different winner).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// What is being computed.
    pub(crate) problem: ProblemKey,
    /// Where it will run.
    pub(crate) machine: MachineSpec,
}

impl PlanKey {
    /// Builds the cache key for `problem` at `mode` on `machine`.
    pub fn new(problem: &Problem, mode: usize, machine: &MachineSpec) -> PlanKey {
        PlanKey {
            problem: ProblemKey::new(problem, mode),
            machine: machine.clone(),
        }
    }
}

/// A point-in-time snapshot of a [`PlanCache`]'s accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups (hits plus misses).
    fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits as a fraction of all lookups, or `None` when there were no
    /// lookups at all — so an *idle* cache (`None`) is distinguishable
    /// from a *cold* one (`Some(0.0)`).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.lookups();
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

struct Entry {
    plan: Arc<Plan>,
    /// Logical timestamp of the last hit or insertion; the entry with the
    /// smallest stamp is the least recently used. Mirrored in
    /// `Inner::by_stamp` (the invariant: `by_stamp[stamp] == key` exactly
    /// for resident entries).
    stamp: u64,
}

struct Inner {
    map: HashMap<PlanKey, Entry>,
    /// LRU side index: stamp -> key, kept exactly in sync with `map`.
    /// Stamps come from the strictly increasing `clock`, so they are
    /// unique and the first (smallest) entry is the eviction victim —
    /// `O(log n)` instead of the full `min_by_key` scan this cache used
    /// to do under the mutex.
    by_stamp: BTreeMap<u64, PlanKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Refreshes `key`'s LRU position to "most recently used".
    fn touch(&mut self, key: &PlanKey) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.map.get_mut(key) {
            self.by_stamp.remove(&entry.stamp);
            entry.stamp = clock;
            self.by_stamp.insert(clock, key.clone());
        }
    }

    /// Evicts the least-recently-used entry (no-op when empty).
    fn evict_lru(&mut self) {
        if let Some((_, victim)) = self.by_stamp.pop_first() {
            self.map.remove(&victim);
            self.evictions += 1;
            mttkrp_obs::counter_add("exec.plan_cache.evictions", 1);
        }
    }

    /// Inserts a brand-new entry (caller has checked the key is absent),
    /// evicting first if at `capacity`.
    fn insert_new(&mut self, key: PlanKey, plan: Arc<Plan>, capacity: usize) {
        if self.map.len() >= capacity {
            self.evict_lru();
        }
        self.clock += 1;
        let clock = self.clock;
        self.by_stamp.insert(clock, key.clone());
        self.map.insert(key, Entry { plan, stamp: clock });
    }
}

/// A thread-safe LRU cache of [`Plan`]s keyed by [`PlanKey`].
///
/// Plans are stored as `Arc<Plan>`, so a hit is a clone of a pointer, not
/// of the plan's candidate table. Plans enter through
/// [`crate::Planner::plan_cached`], which does the lookup-or-plan-and-insert
/// dance in one call; [`PlanCache::get`] only looks up.
///
/// ```
/// use mttkrp_core::Problem;
/// use mttkrp_exec::{MachineSpec, PlanCache, Planner};
///
/// let cache = PlanCache::new(64);
/// let planner = Planner::new(MachineSpec::shared(1, 512));
/// let problem = Problem::cubical(3, 64, 16);
///
/// let first = planner.plan_cached(&problem, 0, &cache); // miss: plans
/// let again = planner.plan_cached(&problem, 0, &cache); // hit: shared Arc
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
///
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// assert_eq!(stats.hit_rate(), Some(0.5));
/// ```
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// The hits [`PlanCache::record_hit`] files, kept apart from the map's
    /// lock in a counter's per-thread cells.
    kept_hits: mttkrp_obs::Counter,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least one).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity,
            kept_hits: mttkrp_obs::MetricsRegistry::new().counter_handle("kept_hits"),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache mutex poisoned")
    }

    /// Looks up `key`, counting a hit (and refreshing the entry's LRU
    /// position) or a miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let mut inner = self.lock();
        if inner.map.contains_key(key) {
            inner.touch(key);
            inner.hits += 1;
            mttkrp_obs::counter_add("exec.plan_cache.hits", 1);
            Some(Arc::clone(&inner.map[key].plan))
        } else {
            inner.misses += 1;
            mttkrp_obs::counter_add("exec.plan_cache.misses", 1);
            None
        }
    }

    /// The planner's miss path: insert `planned` — **first wins**: if some
    /// other thread planned the same key in the window since this caller's
    /// losing [`PlanCache::get`], the resident plan is kept (its LRU position
    /// refreshed) and returned, and that miss is *reclassified as a hit*
    /// (both threads walked away with the one shared plan; counting two
    /// misses would double-book the race). On a fresh insert the
    /// least-recently-used entry is evicted if the cache is full. Returns the
    /// resident plan and whether this caller lost the race.
    pub(crate) fn resolve_miss(&self, key: PlanKey, planned: Arc<Plan>) -> (Arc<Plan>, bool) {
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            inner.touch(&key);
            inner.misses = inner.misses.saturating_sub(1);
            inner.hits += 1;
            mttkrp_obs::counter_add("exec.plan_cache.hits", 1);
            return (Arc::clone(&inner.map[&key].plan), true);
        }
        inner.insert_new(key, Arc::clone(&planned), self.capacity);
        (planned, false)
    }

    /// Counts a hit for a plan the caller already holds from an earlier
    /// lookup in this cache, without looking it up again: a serving worker
    /// that keeps its own copy of each plan files every reuse here, so the
    /// hit/miss ledger reads as if each reuse had asked. The entry's LRU
    /// position is left alone, and the cache's lock is not taken: the hit
    /// is a relaxed load and a store on the calling thread's cell of a
    /// counter that [`PlanCache::stats`] adds in.
    pub fn record_hit(&self) {
        self.kept_hits.add(1);
        mttkrp_obs::counter_add("exec.plan_cache.hits", 1);
    }

    /// Maximum number of resident plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits + self.kept_hits.value(),
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &stats.len)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;

    fn key(dim: u64, mode: usize) -> PlanKey {
        PlanKey::new(
            &Problem::cubical(3, dim, 4),
            mode,
            &MachineSpec::shared(1, 256),
        )
    }

    fn plan_for(k: &PlanKey) -> Arc<Plan> {
        let problem = Problem::new(&k.problem.dims, k.problem.rank);
        Arc::new(Planner::new(k.machine.clone()).plan(&problem, k.problem.mode))
    }

    /// Files a freshly planned `k` the way the planner's miss path does.
    fn insert(cache: &PlanCache, k: &PlanKey) -> Arc<Plan> {
        cache.resolve_miss(k.clone(), plan_for(k)).0
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PlanCache::new(4);
        let k = key(8, 0);
        assert!(cache.get(&k).is_none());
        insert(&cache, &k);
        assert!(cache.get(&k).is_some());
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
        let rate = s.hit_rate().expect("there were lookups");
        assert!((rate - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn hit_rate_distinguishes_idle_from_cold() {
        let cache = PlanCache::new(2);
        assert_eq!(cache.stats().hit_rate(), None, "idle: no lookups yet");
        let k = key(8, 0);
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.stats().hit_rate(), Some(0.0), "cold: all misses");
    }

    #[test]
    fn lru_eviction_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (key(8, 0), key(8, 1), key(8, 2));
        insert(&cache, &a);
        insert(&cache, &b);
        // Touch `a`, making `b` the LRU entry.
        assert!(cache.get(&a).is_some());
        insert(&cache, &c);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
        assert!(cache.get(&a).is_some(), "recently used entry must survive");
        assert!(cache.get(&b).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn reinsert_does_not_evict_and_first_wins() {
        let cache = PlanCache::new(2);
        let (a, b) = (key(8, 0), key(8, 1));
        let original = insert(&cache, &a);
        insert(&cache, &b);
        // Re-inserting a resident key must not evict anything, and must
        // keep (and hand back) the first plan: insert is first-wins.
        let (winner, lost_race) = cache.resolve_miss(a.clone(), plan_for(&a));
        assert!(lost_race);
        assert!(Arc::ptr_eq(&winner, &original));
        assert!(Arc::ptr_eq(&cache.get(&a).unwrap(), &original));
        assert_eq!(cache.stats().len, 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn machine_is_part_of_the_key() {
        let p = Problem::cubical(3, 8, 4);
        let k1 = PlanKey::new(&p, 0, &MachineSpec::shared(1, 64));
        let k2 = PlanKey::new(&p, 0, &MachineSpec::shared(1, 128));
        assert_ne!(k1, k2);
        let cache = PlanCache::new(4);
        insert(&cache, &k1);
        assert!(
            cache.get(&k2).is_none(),
            "different machine, different plan"
        );
    }

    #[test]
    fn record_hit_counts_without_a_lookup() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (key(8, 0), key(8, 1), key(8, 2));
        insert(&cache, &a);
        insert(&cache, &b);
        cache.record_hit();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        // No LRU refresh: `a` is still the victim.
        insert(&cache, &c);
        assert!(cache.get(&a).is_none());
    }

    #[test]
    fn problem_key_roundtrip() {
        let p = Problem::new(&[4, 6, 8], 3);
        let k = ProblemKey::new(&p, 1);
        assert_eq!((&k.dims[..], k.rank, k.mode), (&p.dims[..], p.rank, 1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }
}
