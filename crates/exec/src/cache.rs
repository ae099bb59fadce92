//! The plan cache: amortizing the planner's candidate sweep across
//! repeated problem shapes — and, since the self-tuning planner landed,
//! the home of the *measured evidence* that refines the analytic model.
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
//! Each resident entry additionally carries a set of [`MeasuredProfile`]s —
//! small online records (count / mean / min / EWMA of wall-seconds) keyed
//! by candidate label — fed by [`PlanCache::record_measurement`] from
//! whoever actually ran the plan (the serving worker pool, the CP-ALS
//! engine, or `mttkrp_cli autotune`). The planner consults them on cache
//! hits to re-rank near-tie candidates; see
//! [`crate::Planner::plan_cached`].
//!
//! A cache can be persisted with [`PlanCache::save`] and re-absorbed with
//! [`PlanCache::load_from`]: a versioned JSONL file (header line
//! `{"format":"mttkrp-plan-cache","version":1,...}`, one entry per
//! following line) carrying the full plan — algorithm, candidate table,
//! note — plus the measured profiles, so a warm-started server replays
//! known shapes without a single planner sweep.
//!
//! All methods take `&self` (a mutex guards the map internally), so one
//! cache can be shared across threads behind an `Arc`.

use crate::machine::{MachineSpec, TransportSpec};
use crate::plan::{Algorithm, Candidate, Plan};
use mttkrp_core::Problem;
use mttkrp_obs::json::{self, JsonValue};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The shape-level identity of an MTTKRP request: tensor dimensions, CP
/// rank, and output mode. Two requests with equal keys are the *same
/// planning problem* (their data may differ), so they can share a plan and
/// be batched together.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProblemKey {
    /// Tensor dimensions `I_1, ..., I_N`.
    pub dims: Vec<u64>,
    /// CP rank `R`.
    pub rank: u64,
    /// Output mode `n`.
    pub mode: usize,
}

impl ProblemKey {
    /// The key of `problem` at output mode `mode`.
    pub fn new(problem: &Problem, mode: usize) -> ProblemKey {
        assert!(mode < problem.order(), "mode out of range");
        ProblemKey {
            dims: problem.dims.clone(),
            rank: problem.rank,
            mode,
        }
    }

    /// Reconstructs the [`Problem`] descriptor this key identifies.
    pub fn problem(&self) -> Problem {
        Problem::new(&self.dims, self.rank)
    }
}

/// A full plan-cache key: the problem shape *and* the machine it was
/// planned for. The same shape planned for a different machine is a
/// different plan (different `M`, different `P`, different winner).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// What is being computed.
    pub problem: ProblemKey,
    /// Where it will run.
    pub machine: MachineSpec,
}

impl PlanKey {
    /// Builds the cache key for `problem` at `mode` on `machine`.
    pub fn new(problem: &Problem, mode: usize, machine: &MachineSpec) -> PlanKey {
        PlanKey {
            problem: ProblemKey::new(problem, mode),
            machine: machine.clone(),
        }
    }

    /// The cache key `plan` was (or would be) stored under — the seam a
    /// measurement source uses to report wall-time for a plan it just ran.
    pub fn for_plan(plan: &Plan) -> PlanKey {
        PlanKey::new(&plan.problem, plan.mode, &plan.machine)
    }
}

/// A small online record of the measured wall-time of one candidate plan:
/// how often it ran, its running mean and minimum, and an exponentially
/// weighted moving average (weight [`MeasuredProfile::EWMA_ALPHA`] on the
/// newest sample) that tracks drift without storing history.
///
/// Profiles live inside the [`PlanCache`], one map of
/// `candidate label -> MeasuredProfile` per resident entry, and are the
/// *measured evidence* the planner weighs against its analytic prior when
/// two candidates model within the near-tie band.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeasuredProfile {
    /// Number of recorded runs.
    pub count: u64,
    /// Running mean of the recorded wall-seconds.
    pub mean_secs: f64,
    /// Fastest recorded run.
    pub min_secs: f64,
    /// Exponentially weighted moving average of the recorded wall-seconds.
    pub ewma_secs: f64,
}

impl MeasuredProfile {
    /// Weight of the newest sample in [`MeasuredProfile::ewma_secs`].
    pub const EWMA_ALPHA: f64 = 0.25;

    /// Folds one measured run of `secs` wall-seconds into the record.
    pub fn record(&mut self, secs: f64) {
        self.count += 1;
        if self.count == 1 {
            self.mean_secs = secs;
            self.min_secs = secs;
            self.ewma_secs = secs;
        } else {
            self.mean_secs += (secs - self.mean_secs) / self.count as f64;
            self.min_secs = self.min_secs.min(secs);
            self.ewma_secs += Self::EWMA_ALPHA * (secs - self.ewma_secs);
        }
    }

    /// The ranking score the planner compares: the EWMA, which follows
    /// machine drift, falling back to the mean before any EWMA exists.
    pub fn score(&self) -> f64 {
        if self.count == 0 {
            f64::INFINITY
        } else {
            self.ewma_secs
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
    /// Wall-time measurements folded in via
    /// [`PlanCache::record_measurement`].
    pub measurements: u64,
    /// Resident plans replaced because measured evidence re-ranked a
    /// near-tie candidate past the analytic winner.
    pub reranks: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups (hits plus misses).
    pub fn lookups(&self) -> u64 {
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
    /// Measured wall-time evidence, keyed by candidate label
    /// ([`Algorithm::label`]).
    profiles: BTreeMap<String, MeasuredProfile>,
    /// Set by [`PlanCache::record_measurement`], cleared when the planner
    /// next weighs the evidence — so re-rank checks run only when
    /// something new was measured.
    stale: bool,
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
    measurements: u64,
    reranks: u64,
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
        self.map.insert(
            key,
            Entry {
                plan,
                stamp: clock,
                profiles: BTreeMap::new(),
                stale: false,
            },
        );
    }
}

/// What [`PlanCache::lookup`] hands the planner on a hit: the resident
/// plan, whether new measurements arrived since the evidence was last
/// weighed, and a snapshot of the entry's measured profiles.
pub(crate) struct PlannerHit {
    pub(crate) plan: Arc<Plan>,
    pub(crate) stale: bool,
    pub(crate) profiles: BTreeMap<String, MeasuredProfile>,
}

/// A thread-safe LRU cache of [`Plan`]s keyed by [`PlanKey`], carrying the
/// measured evidence that makes the planner self-tuning.
///
/// Plans are stored as `Arc<Plan>`, so a hit is a clone of a pointer, not
/// of the plan's candidate table. Use [`PlanCache::get`] / `insert`
/// directly, or go through [`crate::Planner::plan_cached`] which does the
/// lookup-or-plan-and-insert dance (plus evidence re-ranking) in one call.
///
/// ```
/// use mttkrp_core::Problem;
/// use mttkrp_exec::{MachineSpec, PlanCache, Planner};
///
/// let cache = PlanCache::new(64);
/// let planner = Planner::new(MachineSpec::sequential(512));
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
}

/// Version of the JSONL persistence format written by [`PlanCache::save`].
pub const CACHE_FILE_VERSION: u64 = 1;

/// The `format` tag in the persistence header line.
pub const CACHE_FILE_FORMAT: &str = "mttkrp-plan-cache";

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
                measurements: 0,
                reranks: 0,
            }),
            capacity,
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

    /// Planner-side lookup: like [`PlanCache::get`], but also reports
    /// whether measurements arrived since the evidence was last weighed
    /// (clearing that flag) and snapshots the entry's profiles, so the
    /// planner can run its re-rank check outside the lock.
    pub(crate) fn lookup(&self, key: &PlanKey) -> Option<PlannerHit> {
        let mut inner = self.lock();
        if inner.map.contains_key(key) {
            inner.touch(key);
            inner.hits += 1;
            mttkrp_obs::counter_add("exec.plan_cache.hits", 1);
            let entry = inner.map.get_mut(key).expect("checked resident above");
            let stale = std::mem::take(&mut entry.stale);
            Some(PlannerHit {
                plan: Arc::clone(&entry.plan),
                stale,
                profiles: entry.profiles.clone(),
            })
        } else {
            inner.misses += 1;
            mttkrp_obs::counter_add("exec.plan_cache.misses", 1);
            None
        }
    }

    /// Inserts the plan for `key` — **first wins**: if `key` is already
    /// resident, the resident plan is kept (its LRU position refreshed)
    /// and returned, so every caller ends up sharing one `Arc` even when
    /// two threads raced to plan the same shape. On a fresh insert the
    /// least-recently-used entry is evicted if the cache is full, and the
    /// given `plan` is returned back.
    pub fn insert(&self, key: PlanKey, plan: Arc<Plan>) -> Arc<Plan> {
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            inner.touch(&key);
            return Arc::clone(&inner.map[&key].plan);
        }
        inner.insert_new(key, Arc::clone(&plan), self.capacity);
        plan
    }

    /// The planner's miss path: insert `planned` first-wins, and if some
    /// other thread planned the same key in the window since this caller's
    /// losing [`PlanCache::get`], *reclassify that miss as a hit* (both
    /// threads walked away with the one shared plan; counting two misses
    /// would double-book the race). Returns the resident plan and whether
    /// this caller lost the race.
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

    /// Folds one measured run of `key`'s candidate `plan_id`
    /// ([`Algorithm::label`]) into the entry's [`MeasuredProfile`],
    /// marking the entry for a re-rank check on its next planner lookup.
    /// Returns `false` (measurement dropped) when `key` is not resident —
    /// evidence has nowhere to live once the plan is evicted.
    ///
    /// Recording never touches the hit/miss ledger or the LRU order: a
    /// measurement is not a lookup.
    pub fn record_measurement(&self, key: &PlanKey, plan_id: &str, secs: f64) -> bool {
        if !secs.is_finite() || secs < 0.0 {
            return false;
        }
        let mut inner = self.lock();
        let Some(entry) = inner.map.get_mut(key) else {
            return false;
        };
        entry
            .profiles
            .entry(plan_id.to_string())
            .or_default()
            .record(secs);
        entry.stale = true;
        inner.measurements += 1;
        mttkrp_obs::counter_add("exec.plan_cache.measurements", 1);
        true
    }

    /// The measured profiles currently attached to `key` (empty when the
    /// key is absent or nothing was recorded). A pure observation: no
    /// counters, no LRU refresh.
    pub fn profiles(&self, key: &PlanKey) -> BTreeMap<String, MeasuredProfile> {
        self.lock()
            .map
            .get(key)
            .map(|e| e.profiles.clone())
            .unwrap_or_default()
    }

    /// Swaps in a re-ranked plan for a resident `key` without touching the
    /// hit/miss ledger or the LRU order, counting one re-rank. No-op
    /// (returning `false`) if the key was evicted in the meantime.
    pub(crate) fn install_reranked(&self, key: &PlanKey, plan: Arc<Plan>) -> bool {
        let mut inner = self.lock();
        let Some(entry) = inner.map.get_mut(key) else {
            return false;
        };
        entry.plan = plan;
        inner.reranks += 1;
        mttkrp_obs::counter_add("exec.plan_cache.reranks", 1);
        true
    }

    /// Whether `key` is resident, *without* touching the hit/miss counters
    /// or the LRU order (a pure observation, for callers that want to know
    /// whether an upcoming [`PlanCache::get`] will hit).
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of resident plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            measurements: inner.measurements,
            reranks: inner.reranks,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }

    // ------------------------------------------------------------------
    // Persistence: versioned JSONL, one resident entry per line.
    // ------------------------------------------------------------------

    /// Serializes every resident entry (plan, candidate table, measured
    /// profiles) as versioned JSONL: a header line
    /// `{"format":"mttkrp-plan-cache","version":1,"entries":N}` followed
    /// by one entry per line, least-recently-used first (so re-absorbing
    /// the text reproduces the eviction order).
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = format!(
            "{{\"format\":\"{}\",\"version\":{},\"entries\":{}}}\n",
            CACHE_FILE_FORMAT,
            CACHE_FILE_VERSION,
            inner.map.len()
        );
        for key in inner.by_stamp.values() {
            let entry = &inner.map[key];
            out.push_str(&persist::encode_entry(
                key,
                entry.plan.as_ref(),
                &entry.profiles,
            ));
            out.push('\n');
        }
        out
    }

    /// Absorbs every entry of a [`PlanCache::to_jsonl`] document into this
    /// cache: plans are inserted first-wins in the order written (evicting
    /// LRU entries if this cache is smaller than the document), measured
    /// profiles are attached, and each loaded entry is marked for a
    /// re-rank check on first use — so the *receiving* planner's near-tie
    /// band decides, not the band of whoever wrote the file. The hit/miss
    /// ledger is untouched. Returns the number of entries absorbed.
    ///
    /// Errors name the offending line. A version newer than
    /// [`CACHE_FILE_VERSION`] is rejected rather than half-read.
    pub fn load_jsonl(&self, text: &str) -> Result<usize, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty cache file")?;
        let header = json::parse(header).map_err(|e| format!("header: {e}"))?;
        let format = header
            .get("format")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        if format != CACHE_FILE_FORMAT {
            return Err(format!("not a plan-cache file (format {format:?})"));
        }
        let version = header
            .get("version")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if version == 0 || version > CACHE_FILE_VERSION {
            return Err(format!(
                "unsupported plan-cache file version {version} (this build reads <= {CACHE_FILE_VERSION})"
            ));
        }
        let mut loaded = 0usize;
        for (idx, line) in lines {
            let (key, plan, profiles) =
                persist::decode_entry(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            let mut inner = self.lock();
            if !inner.map.contains_key(&key) {
                inner.insert_new(key.clone(), Arc::new(plan), self.capacity);
            }
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.profiles = profiles;
                entry.stale = true;
            }
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Writes [`PlanCache::to_jsonl`] to `path`. Returns the number of
    /// entries written.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let text = self.to_jsonl();
        let entries = text.lines().count().saturating_sub(1);
        std::fs::write(path, text)?;
        Ok(entries)
    }

    /// Reads a [`PlanCache::save`] file at `path` into this cache (see
    /// [`PlanCache::load_jsonl`]). Returns the number of entries absorbed.
    pub fn load_from(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        self.load_jsonl(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
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
            .field("measurements", &stats.measurements)
            .field("reranks", &stats.reranks)
            .finish()
    }
}

/// JSONL encoding/decoding of cache entries. Numbers ride as JSON numbers
/// (`f64` — exact for the integers involved, all far below 2^53); floats
/// and strings go through the obs crate's `json::number` and `json::escape`.
mod persist {
    use super::*;

    fn algorithm_to_json(alg: &Algorithm) -> String {
        match alg {
            Algorithm::SeqUnblocked { memory } => {
                format!("{{\"kind\":\"alg1\",\"memory\":{memory}}}")
            }
            Algorithm::SeqBlocked { memory, block } => {
                format!("{{\"kind\":\"alg2\",\"memory\":{memory},\"block\":{block}}}")
            }
            Algorithm::SeqMatmul { memory } => {
                format!("{{\"kind\":\"seq-matmul\",\"memory\":{memory}}}")
            }
            Algorithm::ParStationary { grid } => {
                format!("{{\"kind\":\"alg3\",\"grid\":{}}}", grid_json(grid))
            }
            Algorithm::ParGeneral { p0, grid } => {
                format!(
                    "{{\"kind\":\"alg4\",\"p0\":{p0},\"grid\":{}}}",
                    grid_json(grid)
                )
            }
            Algorithm::ParMatmul { procs } => {
                format!("{{\"kind\":\"par-matmul\",\"procs\":{procs}}}")
            }
        }
    }

    fn grid_json(grid: &[usize]) -> String {
        let inner: Vec<String> = grid.iter().map(|g| g.to_string()).collect();
        format!("[{}]", inner.join(","))
    }

    fn algorithm_from_json(v: &JsonValue) -> Result<Algorithm, String> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("algorithm.kind missing")?;
        let usize_field = |name: &str| -> Result<usize, String> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("algorithm.{name} missing"))
        };
        let grid_field = || -> Result<Vec<usize>, String> {
            v.get("grid")
                .and_then(JsonValue::as_array)
                .ok_or("algorithm.grid missing")?
                .iter()
                .map(|g| {
                    g.as_u64()
                        .map(|n| n as usize)
                        .ok_or_else(|| "bad grid entry".to_string())
                })
                .collect()
        };
        match kind {
            "alg1" => Ok(Algorithm::SeqUnblocked {
                memory: usize_field("memory")?,
            }),
            "alg2" => Ok(Algorithm::SeqBlocked {
                memory: usize_field("memory")?,
                block: usize_field("block")?,
            }),
            "seq-matmul" => Ok(Algorithm::SeqMatmul {
                memory: usize_field("memory")?,
            }),
            "alg3" => Ok(Algorithm::ParStationary {
                grid: grid_field()?,
            }),
            "alg4" => Ok(Algorithm::ParGeneral {
                p0: usize_field("p0")?,
                grid: grid_field()?,
            }),
            "par-matmul" => Ok(Algorithm::ParMatmul {
                procs: usize_field("procs")?,
            }),
            other => Err(format!("unknown algorithm kind {other:?}")),
        }
    }

    fn transport_name(t: TransportSpec) -> &'static str {
        match t {
            TransportSpec::InProcess => "in-process",
            TransportSpec::Tcp => "tcp",
        }
    }

    fn transport_from_name(s: &str) -> Result<TransportSpec, String> {
        match s {
            "in-process" => Ok(TransportSpec::InProcess),
            "tcp" => Ok(TransportSpec::Tcp),
            other => Err(format!("unknown transport {other:?}")),
        }
    }

    pub(super) fn encode_entry(
        key: &PlanKey,
        plan: &Plan,
        profiles: &BTreeMap<String, MeasuredProfile>,
    ) -> String {
        let dims: Vec<String> = key.problem.dims.iter().map(|d| d.to_string()).collect();
        let m = &key.machine;
        let candidates: Vec<String> = plan
            .candidates
            .iter()
            .map(|c| {
                format!(
                    "{{\"algorithm\":{},\"modeled_cost\":{}}}",
                    algorithm_to_json(&c.algorithm),
                    json::number(c.modeled_cost)
                )
            })
            .collect();
        let profiles: Vec<String> = profiles
            .iter()
            .map(|(id, p)| {
                format!(
                    "{{\"plan_id\":\"{}\",\"count\":{},\"mean_secs\":{},\"min_secs\":{},\"ewma_secs\":{}}}",
                    json::escape(id),
                    p.count,
                    json::number(p.mean_secs),
                    json::number(p.min_secs),
                    json::number(p.ewma_secs)
                )
            })
            .collect();
        let note = match &plan.note {
            Some(n) => format!("\"{}\"", json::escape(n)),
            None => "null".to_string(),
        };
        let analytic = match &plan.analytic_algorithm {
            Some(a) => algorithm_to_json(a),
            None => "null".to_string(),
        };
        format!(
            "{{\"dims\":[{}],\"rank\":{},\"mode\":{},\
             \"machine\":{{\"threads\":{},\"memory\":{},\"ranks\":{},\"transport\":\"{}\"}},\
             \"algorithm\":{},\"predicted_cost\":{},\"analytic_algorithm\":{},\"note\":{},\
             \"candidates\":[{}],\"profiles\":[{}]}}",
            dims.join(","),
            key.problem.rank,
            key.problem.mode,
            m.threads,
            m.fast_memory_words,
            m.ranks,
            transport_name(m.transport),
            algorithm_to_json(&plan.algorithm),
            json::number(plan.predicted_cost),
            analytic,
            note,
            candidates.join(","),
            profiles.join(",")
        )
    }

    pub(super) fn decode_entry(
        line: &str,
    ) -> Result<(PlanKey, Plan, BTreeMap<String, MeasuredProfile>), String> {
        let v = json::parse(line)?;
        let dims: Vec<u64> = v
            .get("dims")
            .and_then(JsonValue::as_array)
            .ok_or("dims missing")?
            .iter()
            .map(|d| d.as_u64().ok_or_else(|| "bad dim".to_string()))
            .collect::<Result<_, _>>()?;
        let rank = v
            .get("rank")
            .and_then(JsonValue::as_u64)
            .ok_or("rank missing")?;
        let mode = v
            .get("mode")
            .and_then(JsonValue::as_u64)
            .ok_or("mode missing")? as usize;
        if dims.is_empty() || dims.contains(&0) || rank == 0 || mode >= dims.len() {
            return Err("malformed problem shape".to_string());
        }
        let mv = v.get("machine").ok_or("machine missing")?;
        let machine = MachineSpec {
            threads: mv
                .get("threads")
                .and_then(JsonValue::as_u64)
                .ok_or("machine.threads")? as usize,
            fast_memory_words: mv
                .get("memory")
                .and_then(JsonValue::as_u64)
                .ok_or("machine.memory")? as usize,
            ranks: mv
                .get("ranks")
                .and_then(JsonValue::as_u64)
                .ok_or("machine.ranks")? as usize,
            transport: transport_from_name(
                mv.get("transport")
                    .and_then(JsonValue::as_str)
                    .ok_or("machine.transport")?,
            )?,
        };
        let algorithm = algorithm_from_json(v.get("algorithm").ok_or("algorithm missing")?)?;
        let predicted_cost = v
            .get("predicted_cost")
            .and_then(JsonValue::as_f64)
            .ok_or("predicted_cost missing")?;
        let analytic_algorithm = match v.get("analytic_algorithm") {
            None | Some(JsonValue::Null) => None,
            Some(a) => Some(algorithm_from_json(a)?),
        };
        let note = match v.get("note") {
            None | Some(JsonValue::Null) => None,
            Some(n) => Some(n.as_str().ok_or("note must be a string")?.to_string()),
        };
        let candidates: Vec<Candidate> = v
            .get("candidates")
            .and_then(JsonValue::as_array)
            .ok_or("candidates missing")?
            .iter()
            .map(|c| {
                Ok(Candidate {
                    algorithm: algorithm_from_json(
                        c.get("algorithm").ok_or("candidate.algorithm")?,
                    )?,
                    modeled_cost: c
                        .get("modeled_cost")
                        .and_then(JsonValue::as_f64)
                        .ok_or("candidate.modeled_cost")?,
                })
            })
            .collect::<Result<_, String>>()?;
        if candidates.is_empty() {
            return Err("entry has no candidates".to_string());
        }
        let mut profiles = BTreeMap::new();
        for p in v
            .get("profiles")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let id = p
                .get("plan_id")
                .and_then(JsonValue::as_str)
                .ok_or("profile.plan_id")?;
            profiles.insert(
                id.to_string(),
                MeasuredProfile {
                    count: p
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or("profile.count")?,
                    mean_secs: p
                        .get("mean_secs")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                    min_secs: p.get("min_secs").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    ewma_secs: p
                        .get("ewma_secs")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(0.0),
                },
            );
        }
        let problem = Problem::new(&dims, rank);
        let measured = candidates
            .iter()
            .map(|c| profiles.get(&c.algorithm.label()).copied())
            .collect();
        let key = PlanKey::new(&problem, mode, &machine);
        let plan = Plan {
            problem,
            mode,
            machine,
            algorithm,
            predicted_cost,
            candidates,
            measured,
            analytic_algorithm,
            note,
        };
        Ok((key, plan, profiles))
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
            &MachineSpec::sequential(256),
        )
    }

    fn plan_for(k: &PlanKey) -> Arc<Plan> {
        Arc::new(Planner::new(k.machine.clone()).plan(&k.problem.problem(), k.problem.mode))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PlanCache::new(4);
        let k = key(8, 0);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), plan_for(&k));
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
        cache.insert(a.clone(), plan_for(&a));
        cache.insert(b.clone(), plan_for(&b));
        // Touch `a`, making `b` the LRU entry.
        assert!(cache.get(&a).is_some());
        cache.insert(c.clone(), plan_for(&c));
        assert!(cache.contains(&a), "recently used entry must survive");
        assert!(!cache.contains(&b), "LRU entry must be evicted");
        assert!(cache.contains(&c));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_does_not_evict_and_first_wins() {
        let cache = PlanCache::new(2);
        let (a, b) = (key(8, 0), key(8, 1));
        let original = plan_for(&a);
        cache.insert(a.clone(), Arc::clone(&original));
        cache.insert(b.clone(), plan_for(&b));
        // Re-inserting a resident key must not evict anything, and must
        // keep (and hand back) the first plan: insert is first-wins.
        let winner = cache.insert(a.clone(), plan_for(&a));
        assert!(Arc::ptr_eq(&winner, &original));
        assert!(Arc::ptr_eq(&cache.get(&a).unwrap(), &original));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn machine_is_part_of_the_key() {
        let p = Problem::cubical(3, 8, 4);
        let k1 = PlanKey::new(&p, 0, &MachineSpec::sequential(64));
        let k2 = PlanKey::new(&p, 0, &MachineSpec::sequential(128));
        assert_ne!(k1, k2);
        let cache = PlanCache::new(4);
        cache.insert(k1.clone(), plan_for(&k1));
        assert!(
            cache.get(&k2).is_none(),
            "different machine, different plan"
        );
    }

    #[test]
    fn contains_does_not_touch_counters_or_order() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (key(8, 0), key(8, 1), key(8, 2));
        cache.insert(a.clone(), plan_for(&a));
        cache.insert(b.clone(), plan_for(&b));
        // `contains(a)` must NOT refresh `a`: `a` stays LRU and is evicted.
        assert!(cache.contains(&a));
        cache.insert(c.clone(), plan_for(&c));
        assert!(!cache.contains(&a));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn measurements_do_not_touch_lookup_ledger_or_lru() {
        let cache = PlanCache::new(2);
        let (a, b, c) = (key(8, 0), key(8, 1), key(8, 2));
        cache.insert(a.clone(), plan_for(&a));
        cache.insert(b.clone(), plan_for(&b));
        // Recording against `a` is not a use: `a` stays LRU.
        assert!(cache.record_measurement(&a, "alg1", 1e-3));
        cache.insert(c.clone(), plan_for(&c));
        assert!(!cache.contains(&a), "measurement must not refresh LRU");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(s.measurements, 1);
        // Dropped when the key is gone (or never was), and on junk input.
        assert!(!cache.record_measurement(&a, "alg1", 1e-3));
        assert!(!cache.record_measurement(&b, "alg1", f64::NAN));
        assert!(!cache.record_measurement(&b, "alg1", -1.0));
    }

    #[test]
    fn measured_profile_online_stats() {
        let mut p = MeasuredProfile::default();
        assert_eq!(p.score(), f64::INFINITY, "no evidence, worst score");
        p.record(4.0);
        assert_eq!(
            (p.count, p.mean_secs, p.min_secs, p.ewma_secs),
            (1, 4.0, 4.0, 4.0)
        );
        p.record(2.0);
        assert_eq!(p.count, 2);
        assert!((p.mean_secs - 3.0).abs() < 1e-15);
        assert_eq!(p.min_secs, 2.0);
        // ewma = 4 + 0.25 * (2 - 4) = 3.5
        assert!((p.ewma_secs - 3.5).abs() < 1e-15);
        assert_eq!(p.score(), p.ewma_secs);
    }

    #[test]
    fn problem_key_roundtrip() {
        let p = Problem::new(&[4, 6, 8], 3);
        let k = ProblemKey::new(&p, 1);
        assert_eq!(k.problem(), p);
        assert_eq!(k.mode, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }

    #[test]
    fn jsonl_roundtrip_preserves_plans_profiles_and_order() {
        let cache = PlanCache::new(8);
        let keys: Vec<PlanKey> = (0..3).map(|m| key(8, m)).collect();
        for k in &keys {
            cache.insert(k.clone(), plan_for(k));
        }
        // Touch key 0 so the persisted LRU order is 1, 2, 0.
        let _ = cache.get(&keys[0]);
        cache.record_measurement(&keys[1], "alg1", 2.5e-4);
        cache.record_measurement(&keys[1], "alg2(b=6)", 1.5e-4);
        cache.record_measurement(&keys[1], "alg1", 3.5e-4);

        let text = cache.to_jsonl();
        assert!(text.starts_with("{\"format\":\"mttkrp-plan-cache\",\"version\":1"));

        let restored = PlanCache::new(8);
        assert_eq!(restored.load_jsonl(&text).unwrap(), 3);
        assert_eq!(restored.len(), 3);
        for k in &keys {
            let orig = cache.profiles(k);
            assert_eq!(restored.profiles(k), orig);
            let a = cache.get(k).unwrap();
            let b = restored.get(k).unwrap();
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.predicted_cost, b.predicted_cost);
            assert_eq!(a.candidates.len(), b.candidates.len());
        }
        // Ledger untouched by loading; the round-trip text is stable.
        assert_eq!(restored.stats().misses, 0);
        let p = restored.profiles(&keys[1]);
        assert_eq!(p["alg1"].count, 2);
        assert!((p["alg1"].mean_secs - 3.0e-4).abs() < 1e-18);
    }

    #[test]
    fn jsonl_rejects_garbage_and_future_versions() {
        let cache = PlanCache::new(2);
        assert!(cache.load_jsonl("").is_err());
        assert!(cache
            .load_jsonl("{\"format\":\"other\",\"version\":1}")
            .is_err());
        assert!(cache
            .load_jsonl("{\"format\":\"mttkrp-plan-cache\",\"version\":999}")
            .is_err());
        let bad = "{\"format\":\"mttkrp-plan-cache\",\"version\":1,\"entries\":1}\nnot json";
        assert!(cache.load_jsonl(bad).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn loading_respects_capacity_via_lru_eviction() {
        let cache = PlanCache::new(8);
        let keys: Vec<PlanKey> = (0..3).map(|m| key(8, m)).collect();
        for k in &keys {
            cache.insert(k.clone(), plan_for(k));
        }
        let text = cache.to_jsonl();
        let small = PlanCache::new(2);
        assert_eq!(small.load_jsonl(&text).unwrap(), 3);
        assert_eq!(small.len(), 2);
        // Written LRU-first, so the first-written (oldest) entry is the
        // one evicted when capacity runs out.
        assert!(!small.contains(&keys[0]));
        assert!(small.contains(&keys[1]) && small.contains(&keys[2]));
    }
}
