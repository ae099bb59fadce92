//! Counters, gauges, and log2-bucket histograms on per-thread cells.
//!
//! A [`MetricsRegistry`] can be owned directly (the serve layer keeps one
//! per server and derives its public stats snapshot from it) or reached
//! through the global capture helpers ([`crate::counter_add`] and friends).
//!
//! There are two ways to update a metric. A *handle* ([`Counter`],
//! [`Gauge`], [`Histogram`], [`LabeledHistogram`]) is resolved once from a
//! name and then updates its metric directly, with no lock and no lookup.
//! A *by-name* update ([`MetricsRegistry::counter_add`] and friends)
//! resolves a handle first — a read lock on the registry map, a hash of the
//! name and an `Arc` clone — so code that updates the same metric
//! repeatedly should hold a handle.
//!
//! An update takes no atomic read-modify-write. Every metric keeps one cell
//! per *thread slot*, and a thread writes only the cells of its own slot: a
//! counter update is a relaxed load and a store, a histogram record a few
//! of them. A snapshot adds the cells up and takes min and max across them,
//! so it reads what one shared cell would have read. A thread claims its
//! slot, a small index, at its first update and gives it back when it
//! exits; the next thread to claim it takes the cells over with what they
//! hold and adds on. So a metric holds at most twice as many cells as the
//! process ever had threads alive at once, however many it started. The
//! cells belong to the metric: dropping a registry and its handles frees
//! them, whichever threads are still running.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Log2 bucket count: bucket 0 holds the value 0, bucket `k >= 1` holds
/// values in `[2^(k-1), 2^k - 1]`, up to `k = 64`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// Most distinct labels one histogram family
/// ([`MetricsRegistry::labeled_handle`]) will hold before new
/// labels collapse into the [`OVERFLOW_LABEL`] member. Generous for the
/// real label sources (shape families, plan algorithms) while keeping a
/// scrape's size — and the registry's memory — bounded.
pub const MAX_LABELS_PER_FAMILY: usize = 32;

/// The overflow member's label: values for labels past the
/// [`MAX_LABELS_PER_FAMILY`] bound land in `family{other}`.
pub const OVERFLOW_LABEL: &str = "other";

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Thread slots: the index of the cells a thread writes in every metric.
mod slot {
    use super::*;

    /// The slots handed out so far and the ones given back.
    struct Pool {
        /// Given back by exited threads; the next claim takes the last.
        free: Vec<usize>,
        /// Slots ever made: slots `0..made` exist.
        made: usize,
        /// Slots held right now, and the most ever held at once.
        held: usize,
        peak: usize,
    }

    static POOL: Mutex<Pool> = Mutex::new(Pool {
        free: Vec::new(),
        made: 0,
        held: 0,
        peak: 0,
    });

    fn pool() -> std::sync::MutexGuard<'static, Pool> {
        POOL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes a free slot, or makes one when none is free: a slot is made
    /// only while every slot made is held, so `made` never passes `peak`.
    /// The pool's lock orders a slot's last writes by the thread that gave
    /// it back before the first reads of the thread that takes it.
    fn claim() -> usize {
        let mut pool = pool();
        let slot = pool.free.pop().unwrap_or_else(|| {
            pool.made += 1;
            pool.made - 1
        });
        pool.held += 1;
        pool.peak = pool.peak.max(pool.held);
        slot
    }

    fn release(slot: usize) {
        let mut pool = pool();
        pool.held -= 1;
        pool.free.push(slot);
    }

    /// No slot: the thread has not updated a metric yet, or has given its
    /// slot back on the way out.
    const NONE: usize = usize::MAX;

    /// Gives the thread's slot back when the thread exits.
    struct Held(usize);

    impl Drop for Held {
        fn drop(&mut self) {
            MINE.set(NONE);
            release(self.0);
        }
    }

    thread_local! {
        /// This thread's slot: read on every update, so `const` and with no
        /// destructor of its own.
        static MINE: Cell<usize> = const { Cell::new(NONE) };
        static HELD: Held = {
            let slot = claim();
            MINE.set(slot);
            Held(slot)
        };
    }

    /// Runs `f` on the calling thread's slot. A thread that runs
    /// destructors after its slot was given back borrows a slot for the
    /// one update.
    #[inline]
    pub(super) fn with<R>(f: impl FnOnce(usize) -> R) -> R {
        let slot = MINE.get();
        if slot != NONE {
            return f(slot);
        }
        match HELD.try_with(|held| held.0) {
            Ok(slot) => f(slot),
            Err(_) => {
                let slot = claim();
                let out = f(slot);
                release(slot);
                out
            }
        }
    }

    /// Slots ever made and the most held at once.
    #[cfg(test)]
    pub(super) fn made_and_peak() -> (usize, usize) {
        let pool = pool();
        (pool.made, pool.peak)
    }
}

/// Chunks of a metric's cells: chunk `k` holds the `2^k` cells of slots
/// `2^k - 1 ..= 2^(k+1) - 2`, so 32 chunks cover more threads than a
/// process runs.
const CHUNKS: usize = 32;

/// Adds `v` to a cell only the calling thread writes: a load and a store.
#[inline]
fn bump(cell: &AtomicU64, v: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(v),
        Ordering::Relaxed,
    );
}

/// One metric's cells, one per thread slot, made a chunk at a time on the
/// first update of a slot in the chunk.
struct Cells<T> {
    chunks: [OnceLock<Box<[T]>>; CHUNKS],
}

impl<T: Default> Cells<T> {
    fn new() -> Cells<T> {
        Cells {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Runs `f` on the calling thread's cell.
    #[inline]
    fn with_mine<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        slot::with(|slot| {
            let k = (usize::BITS - 1 - (slot + 1).leading_zeros()) as usize;
            let chunk =
                self.chunks[k].get_or_init(|| (0..1usize << k).map(|_| T::default()).collect());
            f(&chunk[slot + 1 - (1 << k)])
        })
    }

    /// Every cell made so far.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|c| c.iter())
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.iter().count()
    }
}

// Each cell is a cache line or more of its own, so two threads updating
// one metric never write the same line.

#[derive(Default)]
#[repr(align(64))]
struct CounterCell(AtomicU64);

#[derive(Default)]
#[repr(align(64))]
struct GaugeCell(AtomicI64);

#[repr(align(64))]
struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> HistogramCell {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistogramCell {
    #[inline]
    fn record(&self, v: u64) {
        bump(&self.count, 1);
        bump(&self.sum, v);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
        bump(&self.buckets[bucket_of(v)], 1);
    }
}

/// The snapshot of a histogram's cells: counts, sums and buckets add, min
/// and max are taken across the cells that recorded anything.
fn fold_histogram(cells: &Cells<HistogramCell>) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::empty();
    out.min = u64::MAX;
    for cell in cells.iter() {
        let count = cell.count.load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        out.count += count;
        out.sum = out.sum.wrapping_add(cell.sum.load(Ordering::Relaxed));
        out.min = out.min.min(cell.min.load(Ordering::Relaxed));
        out.max = out.max.max(cell.max.load(Ordering::Relaxed));
        for (b, c) in out.buckets.iter_mut().zip(&cell.buckets) {
            *b += c.load(Ordering::Relaxed);
        }
    }
    if out.count == 0 {
        out.min = 0;
    }
    out
}

enum Metric {
    Counter(Cells<CounterCell>),
    Gauge(Cells<GaugeCell>),
    Histogram(Cells<HistogramCell>),
}

/// One registry entry: the metric, and whether it was ever updated.
struct Slot {
    /// Set by the first update. Resolving a handle creates the entry, but
    /// only an update makes it part of [`MetricsRegistry::snapshot`]: a
    /// metric resolved ahead of use shows up when it is first touched,
    /// exactly as a by-name update would have created it.
    touched: AtomicBool,
    metric: Metric,
}

impl Slot {
    #[inline]
    fn touch(&self) {
        if !self.touched.load(Ordering::Relaxed) {
            self.touched.store(true, Ordering::Relaxed);
        }
    }

    fn counter(&self) -> Option<&Cells<CounterCell>> {
        match &self.metric {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }

    fn gauge(&self) -> Option<&Cells<GaugeCell>> {
        match &self.metric {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }

    fn histogram(&self) -> Option<&Cells<HistogramCell>> {
        match &self.metric {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

fn counter_value(cells: &Cells<CounterCell>) -> u64 {
    cells
        .iter()
        .fold(0u64, |sum, c| sum.wrapping_add(c.0.load(Ordering::Relaxed)))
}

fn gauge_value(cells: &Cells<GaugeCell>) -> i64 {
    cells
        .iter()
        .fold(0i64, |sum, c| sum.wrapping_add(c.0.load(Ordering::Relaxed)))
}

/// A resolved counter ([`MetricsRegistry::counter_handle`]). An update is a
/// relaxed load and a store on the calling thread's cell. A handle resolved
/// on a name of another kind ignores every update, as a by-name update of
/// the wrong kind would.
#[derive(Clone)]
pub struct Counter {
    name: Arc<str>,
    slot: Arc<Slot>,
}

impl Counter {
    /// The metric's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(cells) = self.slot.counter() {
            self.slot.touch();
            cells.with_mine(|c| bump(&c.0, v));
        }
    }

    /// The current value (`0` if the name is not a counter).
    pub fn value(&self) -> u64 {
        self.slot.counter().map_or(0, counter_value)
    }
}

/// A resolved gauge ([`MetricsRegistry::gauge_handle`]); see [`Counter`].
#[derive(Clone)]
pub struct Gauge {
    name: Arc<str>,
    slot: Arc<Slot>,
}

impl Gauge {
    /// The metric's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `delta` (possibly negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cells) = self.slot.gauge() {
            self.slot.touch();
            cells.with_mine(|c| {
                let v = c.0.load(Ordering::Relaxed).wrapping_add(delta);
                c.0.store(v, Ordering::Relaxed);
            });
        }
    }

    /// The current value (`0` if the name is not a gauge).
    pub fn value(&self) -> i64 {
        self.slot.gauge().map_or(0, gauge_value)
    }
}

/// A resolved histogram ([`MetricsRegistry::histogram_handle`]); a record
/// is a relaxed load and a store each for the count, the sum and the
/// bucket of the calling thread's cell, and a load (and, for a new
/// extreme, a store) each for its min and max. See [`Counter`].
#[derive(Clone)]
pub struct Histogram {
    name: Arc<str>,
    slot: Arc<Slot>,
}

impl Histogram {
    /// The metric's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cells) = self.slot.histogram() {
            self.slot.touch();
            cells.with_mine(|c| c.record(v));
        }
    }

    /// A snapshot (empty if the name is not a histogram).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.slot
            .histogram()
            .map_or_else(HistogramSnapshot::empty, fold_histogram)
    }
}

/// A resolved member of a labeled histogram family
/// ([`MetricsRegistry::labeled_handle`]): the family and label it was
/// asked for, and the histogram it files under — `family{label}`, or
/// `family{other}` when the label arrived past the family's
/// [`MAX_LABELS_PER_FAMILY`] bound. The bound is applied once, when the
/// handle is resolved.
#[derive(Clone)]
pub struct LabeledHistogram {
    family: Arc<str>,
    label: Arc<str>,
    histogram: Histogram,
}

impl LabeledHistogram {
    /// The family name, e.g. `serve.exec_us.shape`.
    pub fn family(&self) -> &str {
        &self.family
    }

    /// The label as asked for (even when it files under `other`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records `v` into the member this handle files under.
    #[inline]
    pub fn record(&self, v: u64) {
        self.histogram.record(v);
    }
}

/// A point-in-time copy of one histogram: totals plus the full log2 bucket
/// array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub(crate) sum: u64,
    /// Smallest recorded value (`0` when empty).
    pub min: u64,
    /// Largest recorded value (`0` when empty).
    pub max: u64,
    /// Log2 bucket counts (length [`HISTOGRAM_BUCKETS`]).
    pub(crate) buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, with linear interpolation
    /// *inside* the target bucket: the cumulative count locates the first
    /// bucket that reaches `q * count`, and the target's position among
    /// that bucket's members picks a proportional point in the bucket's
    /// `[2^(k-1), 2^k - 1]` value range, clamped to the observed
    /// `[min, max]`. A log2 bucket spans a factor of two, so its upper
    /// bound would overstate latency by up to 2x; interpolation assumes
    /// values are uniform within the bucket, which halves the worst-case
    /// error without any extra storage.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = bucket_bounds(idx);
                // The target is the `rank`-th of this bucket's `c` members
                // (1-based). Interpolate at the midpoint of its uniform
                // sub-interval so a single-member bucket answers the
                // bucket's middle, not its floor or ceiling.
                let rank = target - seen;
                let width = (hi - lo) as f64;
                let frac = (rank as f64 - 0.5) / c as f64;
                let v = lo + (width * frac).round() as u64;
                return v.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

/// The inclusive `[lo, hi]` value range of log2 bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx == 0 {
        (0, 0)
    } else if idx >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (idx - 1), (1u64 << idx) - 1)
    }
}

/// One named metric in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Dotted metric name, e.g. `serve.request_exec_us`.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// The value of one snapshot entry.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Up/down gauge.
    Gauge(i64),
    /// Distribution.
    Histogram(HistogramSnapshot),
}

/// A named collection of counters, gauges, and histograms.
///
/// Names are dotted strings; the first resolution of a name — by a handle
/// or a by-name update — fixes its kind, and later updates of a different
/// kind are ignored (observability must never panic the program it
/// observes).
///
/// ```
/// use mttkrp_obs::{MetricsRegistry, MetricValue};
///
/// let reg = MetricsRegistry::new();
/// reg.counter_add("serve.requests", 2);
/// reg.gauge_add("serve.queue_depth", 3);
/// reg.gauge_add("serve.queue_depth", -1);
/// reg.histogram_record("serve.exec_us", 120);
///
/// assert_eq!(reg.counter_value("serve.requests"), 2);
/// assert_eq!(reg.gauge_value("serve.queue_depth"), 2);
/// assert_eq!(reg.histogram("serve.exec_us").count, 1);
/// assert_eq!(reg.snapshot().len(), 3);
///
/// // A handle is resolved once; each update then skips the name lookup.
/// let served = reg.counter_handle("serve.requests");
/// served.add(1);
/// assert_eq!(reg.counter_value("serve.requests"), 3);
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<HashMap<Arc<str>, Arc<Slot>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: RwLock::new(HashMap::new()),
        }
    }

    fn lookup(&self, name: &str) -> Option<(Arc<str>, Arc<Slot>)> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get_key_value(name)
            .map(|(k, s)| (Arc::clone(k), Arc::clone(s)))
    }

    /// Get-or-create: the one place an entry is made.
    fn resolve(&self, name: &str, make: impl FnOnce() -> Metric) -> (Arc<str>, Arc<Slot>) {
        if let Some(found) = self.lookup(name) {
            return found;
        }
        let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
        Self::entry(&mut map, name, make)
    }

    fn entry(
        map: &mut HashMap<Arc<str>, Arc<Slot>>,
        name: &str,
        make: impl FnOnce() -> Metric,
    ) -> (Arc<str>, Arc<Slot>) {
        if let Some((k, s)) = map.get_key_value(name) {
            return (Arc::clone(k), Arc::clone(s));
        }
        let key: Arc<str> = name.into();
        let slot = Arc::new(Slot {
            touched: AtomicBool::new(false),
            metric: make(),
        });
        map.insert(Arc::clone(&key), Arc::clone(&slot));
        (key, slot)
    }

    /// Resolves counter `name`, creating it at zero if absent. Resolving
    /// alone does not make the counter appear in [`MetricsRegistry::snapshot`];
    /// its first update does.
    pub fn counter_handle(&self, name: &str) -> Counter {
        let (name, slot) = self.resolve(name, || Metric::Counter(Cells::new()));
        Counter { name, slot }
    }

    /// Resolves gauge `name`; see [`MetricsRegistry::counter_handle`].
    pub fn gauge_handle(&self, name: &str) -> Gauge {
        let (name, slot) = self.resolve(name, || Metric::Gauge(Cells::new()));
        Gauge { name, slot }
    }

    /// Resolves histogram `name`; see [`MetricsRegistry::counter_handle`].
    pub fn histogram_handle(&self, name: &str) -> Histogram {
        let (name, slot) = self.resolve(name, || Metric::Histogram(Cells::new()));
        Histogram { name, slot }
    }

    /// Resolves the member of labeled histogram family `family` that
    /// `label` files under. The composed metric name is `family{label}`
    /// (e.g. `serve.exec_us{16x16x16:r8:m0}`), so per-shape /
    /// per-algorithm latency breakdowns ride the existing snapshot, merge,
    /// and JSONL machinery unchanged.
    ///
    /// Cardinality is bounded: a family holds at most
    /// [`MAX_LABELS_PER_FAMILY`] distinct labels; a label first resolved
    /// past that files under the `family{other}` overflow member, so a
    /// hostile or high-entropy label stream cannot grow the registry
    /// without bound. A resolved label holds its place in the family even
    /// before its first record.
    pub fn labeled_handle(&self, family: &str, label: &str) -> LabeledHistogram {
        let make = || Metric::Histogram(Cells::new());
        let name = format!("{family}{{{label}}}");
        let (name, slot) = match self.lookup(&name) {
            Some(found) => found,
            None => {
                // First sighting of this label: admit it only while the
                // family is under its bound (counted under the write lock
                // so racing first sightings cannot both sneak past it).
                let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
                let prefix = format!("{family}{{");
                let members = map.keys().filter(|k| k.starts_with(&prefix)).count();
                if members < MAX_LABELS_PER_FAMILY || map.contains_key(name.as_str()) {
                    Self::entry(&mut map, &name, make)
                } else {
                    Self::entry(&mut map, &format!("{family}{{{OVERFLOW_LABEL}}}"), make)
                }
            }
        };
        LabeledHistogram {
            family: family.into(),
            label: label.into(),
            histogram: Histogram { name, slot },
        }
    }

    /// Adds `v` to counter `name` (created at zero on first touch).
    pub fn counter_add(&self, name: &str, v: u64) {
        self.counter_handle(name).add(v);
    }

    /// Adds `delta` (possibly negative) to gauge `name`.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        self.gauge_handle(name).add(delta);
    }

    /// Records `v` into histogram `name`.
    pub fn histogram_record(&self, name: &str, v: u64) {
        self.histogram_handle(name).record(v);
    }

    /// Records `v` into the labeled histogram family `family` under
    /// `label` ([`MetricsRegistry::labeled_handle`]).
    pub fn histogram_record_labeled(&self, family: &str, label: &str, v: u64) {
        self.labeled_handle(family, label).record(v);
    }

    /// Current value of counter `name` (`0` if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lookup(name)
            .map_or(0, |(name, slot)| Counter { name, slot }.value())
    }

    /// Current value of gauge `name` (`0` if absent or not a gauge).
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.lookup(name)
            .map_or(0, |(name, slot)| Gauge { name, slot }.value())
    }

    /// Snapshot of histogram `name` (empty if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.lookup(name)
            .map_or_else(HistogramSnapshot::empty, |(name, slot)| {
                Histogram { name, slot }.snapshot()
            })
    }

    /// A snapshot of every metric updated at least once, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<MetricSnapshot> = map
            .iter()
            .filter(|(_, slot)| slot.touched.load(Ordering::Relaxed))
            .map(|(name, slot)| MetricSnapshot {
                name: name.to_string(),
                value: match &slot.metric {
                    Metric::Counter(c) => MetricValue::Counter(counter_value(c)),
                    Metric::Gauge(g) => MetricValue::Gauge(gauge_value(g)),
                    Metric::Histogram(h) => MetricValue::Histogram(fold_histogram(h)),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.snapshot().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_gauges_histograms_coexist() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 5);
        reg.counter_add("c", 2);
        reg.gauge_add("g", -3);
        for v in [1u64, 2, 3, 1000] {
            reg.histogram_record("h", v);
        }
        assert_eq!(reg.counter_value("c"), 7);
        assert_eq!(reg.gauge_value("g"), -3);
        let h = reg.histogram("h");
        assert_eq!((h.count, h.sum, h.min, h.max), (4, 1006, 1, 1000));
        assert!((h.mean() - 251.5).abs() < 1e-12);
    }

    #[test]
    fn kind_mismatch_is_ignored_not_fatal() {
        let reg = MetricsRegistry::new();
        reg.counter_add("x", 1);
        reg.gauge_add("x", 5); // wrong kind: ignored
        reg.histogram_record("x", 9); // wrong kind: ignored
                                      // A handle of the wrong kind resolves, and ignores every update.
        let wrong = reg.gauge_handle("x");
        wrong.add(5);
        assert_eq!(wrong.value(), 0);
        reg.histogram_handle("x").record(9);
        assert_eq!(reg.counter_value("x"), 1);
        assert_eq!(reg.gauge_value("x"), 0);
        assert!(reg.histogram("x").is_empty());
        assert_eq!(reg.snapshot().len(), 1);
    }

    #[test]
    fn a_resolved_metric_appears_at_its_first_update() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_handle("c");
        let g = reg.gauge_handle("g");
        assert!(reg.snapshot().is_empty(), "resolving is not updating");
        c.add(0);
        g.add(1);
        g.add(-1);
        let names: Vec<_> = reg.snapshot().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["c", "g"]);
        assert_eq!((c.value(), g.value()), (0, 0));
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let reg = MetricsRegistry::new();
        for v in 1..=1000u64 {
            reg.histogram_record("h", v);
        }
        let h = reg.histogram("h");
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Log2 buckets: correct to within a factor of two.
        assert!((500..=1000).contains(&p50), "p50 = {p50}");
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
    }

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        // 1000 uniform values land p50 at ~500, deep inside the 512-wide
        // [512, 1023] bucket where the upper-bound answer said 1000.
        let reg = MetricsRegistry::new();
        for v in 1..=1000u64 {
            reg.histogram_record("h", v);
        }
        let h = reg.histogram("h");
        assert_eq!(h.quantile(0.5), 500);
        assert!(
            (995..=1000).contains(&h.quantile(0.99)),
            "{}",
            h.quantile(0.99)
        );
        // A single repeated value is answered exactly.
        let one = MetricsRegistry::new();
        for _ in 0..10 {
            one.histogram_record("h", 300);
        }
        assert_eq!(one.histogram("h").quantile(0.5), 300);
    }

    #[test]
    fn labeled_families_compose_names_and_bound_cardinality() {
        let reg = MetricsRegistry::new();
        reg.histogram_record_labeled("lat", "a:r8", 10);
        reg.histogram_record_labeled("lat", "a:r8", 20);
        reg.histogram_record_labeled("lat", "b:r4", 5);
        assert_eq!(reg.histogram("lat{a:r8}").count, 2);
        assert_eq!(reg.histogram("lat{b:r4}").count, 1);
        // Past the cardinality bound, new labels collapse into `other`.
        let reg = MetricsRegistry::new();
        for i in 0..MAX_LABELS_PER_FAMILY + 10 {
            reg.histogram_record_labeled("lat", &format!("shape{i}"), i as u64);
        }
        let labeled = reg
            .snapshot()
            .into_iter()
            .filter(|m| m.name.starts_with("lat{"))
            .count();
        assert_eq!(labeled, MAX_LABELS_PER_FAMILY + 1); // cap + overflow member
        assert_eq!(reg.histogram(&format!("lat{{{OVERFLOW_LABEL}}}")).count, 10);

        // Handles apply the same rule once, at resolution: the 33rd label
        // files under `other`, and keeps the label it was asked for.
        let reg = MetricsRegistry::new();
        for i in 0..MAX_LABELS_PER_FAMILY {
            reg.labeled_handle("lat", &format!("shape{i}")).record(1);
        }
        let late = reg.labeled_handle("lat", "shape32");
        assert_eq!((late.family(), late.label()), ("lat", "shape32"));
        late.record(7);
        assert_eq!(reg.histogram(&format!("lat{{{OVERFLOW_LABEL}}}")).count, 1);
        assert!(reg.histogram("lat{shape32}").is_empty());
        // A by-name record and a handle record of one label share a member.
        let early = reg.labeled_handle("lat", "shape3");
        early.record(5);
        reg.histogram_record_labeled("lat", "shape3", 6);
        let h = reg.histogram("lat{shape3}");
        assert_eq!((h.count, h.sum), (3, 12));
    }

    /// Threads that come and go one after another reuse one slot: the
    /// slots made never pass the most held at once, and a metric every
    /// thread updated holds at most twice that many cells, with every
    /// update folded into them.
    #[test]
    fn thread_slots_are_reused_not_made_per_thread() {
        const THREADS: u64 = 1000;
        let reg = MetricsRegistry::new();
        let (n, h) = (reg.counter_handle("n"), reg.histogram_handle("h"));
        let (made_before, _) = slot::made_and_peak();
        for t in 0..THREADS {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    n.add(1);
                    h.record(t);
                });
            });
        }
        let (made, peak) = slot::made_and_peak();
        assert!(
            made <= peak,
            "{made} slots made, at most {peak} held at once"
        );
        // Other tests of this binary run threads beside these; a slot per
        // thread would have made a thousand.
        assert!(
            made - made_before < 100,
            "{} slots made",
            made - made_before
        );
        let cells = |h: &Histogram| h.slot.histogram().map_or(0, Cells::len);
        assert!(cells(&h) < 2 * made, "{} cells for {made} slots", cells(&h));
        assert_eq!(n.value(), THREADS);
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.min, snap.max), (THREADS, 0, THREADS - 1));
        assert_eq!(snap.sum, THREADS * (THREADS - 1) / 2);
    }

    /// The cells belong to the metric: once the registry and its handles
    /// are dropped they are freed, while the thread that wrote them still
    /// runs.
    #[test]
    fn a_dropped_registry_frees_its_cells_while_its_threads_run() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_handle("h");
        let cells = Arc::downgrade(&h.slot);
        let (updated, wait_updated) = std::sync::mpsc::channel();
        let (finish, wait_finish) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                h.record(7);
                drop(h);
                updated.send(()).unwrap();
                wait_finish.recv().unwrap();
            });
            wait_updated.recv().unwrap();
            assert_eq!(reg.histogram("h").count, 1);
            drop(reg);
            assert!(cells.upgrade().is_none(), "the updating thread still runs");
            finish.send(()).unwrap();
        });
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    // Half the threads go by name, half through handles.
                    let (n, h) = (reg.counter_handle("n"), reg.histogram_handle("h"));
                    for i in 0..1000u64 {
                        if t % 2 == 0 {
                            reg.counter_add("n", 1);
                            reg.histogram_record("h", i);
                        } else {
                            n.add(1);
                            h.record(i);
                        }
                    }
                });
            }
        });
        assert_eq!(reg.counter_value("n"), 8000);
        assert_eq!(reg.histogram("h").count, 8000);
    }
}
