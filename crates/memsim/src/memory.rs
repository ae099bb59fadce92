//! The two-level sequential memory model of Hong–Kung (paper Section II-C).
//!
//! A single processor is attached to a *fast* memory of capacity `M` words
//! and an unbounded *slow* memory. Arithmetic may only touch values resident
//! in fast memory; data moves via explicit `load` and `store` instructions,
//! each of which moves one word and is counted.
//!
//! The simulator is *strict*: reading a value that is not resident in fast
//! memory, or loading into a full fast memory, panics. This machine-checks
//! the residency discipline of the algorithms (e.g. Algorithm 2's block-size
//! constraint `b^N + N*b <= M`, Eq. (11) of the paper).

use crate::stats::IoStats;
use std::collections::HashMap;

/// Handle to an array allocated in slow memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArrayId(u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Loc {
    array: u32,
    offset: usize,
}

/// The two-level memory machine.
pub struct TwoLevelMemory {
    capacity: usize,
    slow: Vec<Vec<f64>>,
    fast: HashMap<Loc, f64>,
    stats: IoStats,
    peak_fast: usize,
    /// Iterations completed per `M`-operation *segment* (the proof device
    /// of Hong-Kung-style lower bounds): `segments[s]` counts the
    /// iterations the client reported while total ops were in
    /// `[s*M, (s+1)*M)`.
    segments: Vec<u64>,
}

impl TwoLevelMemory {
    /// Creates a machine with fast-memory capacity `m` words.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "fast memory must have positive capacity");
        TwoLevelMemory {
            capacity: m,
            slow: Vec::new(),
            fast: HashMap::new(),
            stats: IoStats::default(),
            peak_fast: 0,
            segments: Vec::new(),
        }
    }

    /// Reports one completed loop iteration (one atomic `N`-ary
    /// multiply-accumulate). The iteration is attributed to the current
    /// `M`-operation segment; [`TwoLevelMemory::segments`] then exposes the
    /// per-segment counts that Theorem 4.1's proof bounds by
    /// `(3M)^{2-1/N}/N`.
    pub fn note_iteration(&mut self) {
        let seg = (self.stats.total() / self.capacity as u64) as usize;
        if self.segments.len() <= seg {
            self.segments.resize(seg + 1, 0);
        }
        self.segments[seg] += 1;
    }

    /// Iterations completed in each `M`-operation segment (see
    /// [`TwoLevelMemory::note_iteration`]).
    pub fn segments(&self) -> &[u64] {
        &self.segments
    }

    /// Fast-memory capacity `M`.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Words currently resident in fast memory.
    pub fn fast_used(&self) -> usize {
        self.fast.len()
    }

    /// High-water mark of fast-memory residency.
    pub fn peak_fast(&self) -> usize {
        self.peak_fast
    }

    /// Cumulative load/store counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the load/store counters (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Allocates an array in slow memory initialized from `data`.
    pub fn alloc(&mut self, data: Vec<f64>) -> ArrayId {
        let id = ArrayId(self.slow.len() as u32);
        self.slow.push(data);
        id
    }

    /// Allocates a zero-initialized array of length `len` in slow memory.
    pub fn alloc_zeros(&mut self, len: usize) -> ArrayId {
        self.alloc(vec![0.0; len])
    }

    /// Direct (cost-free) view of an array's slow-memory contents. Only the
    /// test/measurement harness should use this, after the algorithm has
    /// stored its results.
    pub fn slow_data(&self, a: ArrayId) -> &[f64] {
        &self.slow[a.0 as usize]
    }

    #[inline]
    fn loc(&self, a: ArrayId, offset: usize) -> Loc {
        debug_assert!(
            offset < self.slow[a.0 as usize].len(),
            "offset {offset} out of bounds for array {:?}",
            a
        );
        Loc { array: a.0, offset }
    }

    /// Loads one word from slow to fast memory (cost: 1 load).
    ///
    /// # Panics
    /// Panics if fast memory is full (a genuine residency bug in the
    /// algorithm under test). Re-loading an already-resident word is allowed
    /// (it still costs a load and refreshes the fast copy from slow memory).
    pub fn load(&mut self, a: ArrayId, offset: usize) {
        let loc = self.loc(a, offset);
        let value = self.slow[a.0 as usize][offset];
        if !self.fast.contains_key(&loc) {
            assert!(
                self.fast.len() < self.capacity,
                "fast memory overflow: capacity {} exceeded (algorithm violates its working-set bound)",
                self.capacity
            );
        }
        self.fast.insert(loc, value);
        self.peak_fast = self.peak_fast.max(self.fast.len());
        self.stats.loads += 1;
    }

    /// Stores one resident word from fast back to slow memory (cost: 1
    /// store). The word stays resident.
    ///
    /// # Panics
    /// Panics if the word is not resident in fast memory.
    pub fn store(&mut self, a: ArrayId, offset: usize) {
        let loc = self.loc(a, offset);
        let value = *self
            .fast
            .get(&loc)
            .expect("store of a non-resident word (algorithm bug)");
        self.slow[a.0 as usize][offset] = value;
        self.stats.stores += 1;
    }

    /// Drops a resident word from fast memory without writing it back
    /// (cost-free; discarding data is not communication).
    ///
    /// # Panics
    /// Panics if the word is not resident.
    pub fn evict(&mut self, a: ArrayId, offset: usize) {
        let loc = self.loc(a, offset);
        assert!(
            self.fast.remove(&loc).is_some(),
            "evict of a non-resident word (algorithm bug)"
        );
    }

    /// Convenience: `store` followed by `evict`.
    pub fn store_evict(&mut self, a: ArrayId, offset: usize) {
        self.store(a, offset);
        self.evict(a, offset);
    }

    /// Creates a word directly in fast memory without a load (cost-free):
    /// this models the processor *computing* a fresh value. The slow copy is
    /// untouched until a `store`.
    ///
    /// # Panics
    /// Panics if fast memory is full and the word is not already resident.
    pub fn create(&mut self, a: ArrayId, offset: usize, value: f64) {
        let loc = self.loc(a, offset);
        if !self.fast.contains_key(&loc) {
            assert!(
                self.fast.len() < self.capacity,
                "fast memory overflow: capacity {} exceeded",
                self.capacity
            );
        }
        self.fast.insert(loc, value);
        self.peak_fast = self.peak_fast.max(self.fast.len());
    }

    /// Reads a resident word (cost-free arithmetic access).
    ///
    /// # Panics
    /// Panics if the word is not resident — the model forbids computing on
    /// slow-memory values.
    #[inline]
    pub fn get(&self, a: ArrayId, offset: usize) -> f64 {
        let loc = Loc { array: a.0, offset };
        *self
            .fast
            .get(&loc)
            .expect("arithmetic access to a non-resident word (algorithm bug)")
    }

    /// Overwrites a resident word (cost-free arithmetic access).
    ///
    /// # Panics
    /// Panics if the word is not resident.
    #[inline]
    pub fn set(&mut self, a: ArrayId, offset: usize, value: f64) {
        let loc = self.loc(a, offset);
        let slot = self
            .fast
            .get_mut(&loc)
            .expect("arithmetic write to a non-resident word (algorithm bug)");
        *slot = value;
    }

    /// Whether a word is resident in fast memory.
    pub(crate) fn is_resident(&self, a: ArrayId, offset: usize) -> bool {
        self.fast.contains_key(&Loc { array: a.0, offset })
    }

    /// Evicts everything from fast memory without write-back.
    pub(crate) fn clear_fast(&mut self) {
        self.fast.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_compute_store_roundtrip() {
        let mut mem = TwoLevelMemory::new(4);
        let a = mem.alloc(vec![1.0, 2.0, 3.0]);
        mem.load(a, 1);
        assert_eq!(mem.get(a, 1), 2.0);
        mem.set(a, 1, 5.0);
        // Slow copy unchanged until store.
        assert_eq!(mem.slow_data(a)[1], 2.0);
        mem.store(a, 1);
        assert_eq!(mem.slow_data(a)[1], 5.0);
        assert_eq!(
            mem.stats(),
            IoStats {
                loads: 1,
                stores: 1
            }
        );
    }

    #[test]
    fn capacity_enforced() {
        let mut mem = TwoLevelMemory::new(2);
        let a = mem.alloc(vec![0.0; 3]);
        mem.load(a, 0);
        mem.load(a, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mem.load(a, 2);
        }));
        assert!(r.is_err(), "third load must overflow capacity 2");
    }

    #[test]
    fn reload_resident_word_does_not_overflow() {
        let mut mem = TwoLevelMemory::new(1);
        let a = mem.alloc(vec![7.0]);
        mem.load(a, 0);
        mem.load(a, 0); // same word: no new slot needed
        assert_eq!(mem.stats().loads, 2);
        assert_eq!(mem.fast_used(), 1);
    }

    #[test]
    fn evict_frees_space() {
        let mut mem = TwoLevelMemory::new(1);
        let a = mem.alloc(vec![1.0, 2.0]);
        mem.load(a, 0);
        mem.evict(a, 0);
        mem.load(a, 1);
        assert_eq!(mem.get(a, 1), 2.0);
        assert_eq!(mem.fast_used(), 1);
    }

    #[test]
    fn create_is_free_but_capacity_checked() {
        let mut mem = TwoLevelMemory::new(1);
        let a = mem.alloc_zeros(2);
        mem.create(a, 0, 9.0);
        assert_eq!(mem.stats().total(), 0);
        mem.store_evict(a, 0);
        assert_eq!(mem.slow_data(a)[0], 9.0);
        assert_eq!(
            mem.stats(),
            IoStats {
                loads: 0,
                stores: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn get_nonresident_panics() {
        let mut mem = TwoLevelMemory::new(4);
        let a = mem.alloc(vec![1.0]);
        let _ = mem.get(a, 0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn store_nonresident_panics() {
        let mut mem = TwoLevelMemory::new(4);
        let a = mem.alloc(vec![1.0]);
        mem.store(a, 0);
    }

    #[test]
    fn reload_refreshes_from_slow() {
        let mut mem = TwoLevelMemory::new(4);
        let a = mem.alloc(vec![1.0]);
        mem.load(a, 0);
        mem.set(a, 0, 42.0);
        mem.load(a, 0); // dirty fast copy is overwritten from slow
        assert_eq!(mem.get(a, 0), 1.0);
    }

    #[test]
    fn peak_tracking() {
        let mut mem = TwoLevelMemory::new(3);
        let a = mem.alloc_zeros(3);
        mem.load(a, 0);
        mem.load(a, 1);
        mem.evict(a, 0);
        mem.load(a, 2);
        assert_eq!(mem.peak_fast(), 2);
        assert_eq!(mem.fast_used(), 2);
    }

    #[test]
    fn segments_attribute_iterations_to_op_windows() {
        let mut mem = TwoLevelMemory::new(2);
        let a = mem.alloc_zeros(6);
        // Segment 0: ops 0 and 1.
        mem.load(a, 0); // op 1
        mem.note_iteration();
        mem.evict(a, 0);
        mem.load(a, 1); // op 2 -> from now on segment 1
        mem.note_iteration();
        mem.note_iteration();
        mem.evict(a, 1);
        mem.load(a, 2); // op 3
        mem.load(a, 3); // op 4 -> segment 2
        mem.note_iteration();
        assert_eq!(mem.segments(), &[1, 2, 1]);
    }

    #[test]
    fn iterations_before_any_io_land_in_segment_zero() {
        let mut mem = TwoLevelMemory::new(4);
        let a = mem.alloc_zeros(1);
        mem.create(a, 0, 1.0);
        mem.note_iteration();
        assert_eq!(mem.segments(), &[1]);
    }

    #[test]
    fn reset_stats_between_phases() {
        let mut mem = TwoLevelMemory::new(2);
        let a = mem.alloc_zeros(1);
        mem.load(a, 0);
        mem.reset_stats();
        assert_eq!(mem.stats().total(), 0);
    }
}
