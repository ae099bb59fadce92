//! An automatic (LRU, write-back) cache layered over [`TwoLevelMemory`].
//!
//! The paper's algorithms manage fast memory explicitly, but for comparison
//! it is useful to run *cache-oblivious-style* code — plain loop nests with
//! no explicit data movement — against an automatically managed fast memory.
//! `LruMemory` does on-demand loads, LRU eviction, and write-back of dirty
//! words, while delegating all counting to the underlying strict machine.

use crate::memory::{ArrayId, TwoLevelMemory};
use crate::stats::IoStats;
use std::collections::{BTreeMap, HashMap};

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    array: ArrayId,
    offset: usize,
}

/// Write-back LRU cache over the strict two-level machine.
pub struct LruMemory {
    inner: TwoLevelMemory,
    /// last-use stamp per resident word
    stamps: HashMap<Key, u64>,
    /// stamp -> word, for O(log M) LRU eviction
    order: BTreeMap<u64, Key>,
    dirty: HashMap<Key, bool>,
    clock: u64,
}

impl LruMemory {
    /// Creates an LRU-managed machine with fast capacity `m`.
    pub fn new(m: usize) -> Self {
        LruMemory {
            inner: TwoLevelMemory::new(m),
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            dirty: HashMap::new(),
            clock: 0,
        }
    }

    /// Allocates an array in slow memory.
    pub fn alloc(&mut self, data: Vec<f64>) -> ArrayId {
        self.inner.alloc(data)
    }

    /// Allocates a zero-initialized array.
    pub fn alloc_zeros(&mut self, len: usize) -> ArrayId {
        self.inner.alloc_zeros(len)
    }

    /// Cumulative load/store counters.
    pub fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn touch(&mut self, key: Key) {
        self.clock += 1;
        if let Some(old) = self.stamps.insert(key, self.clock) {
            self.order.remove(&old);
        }
        self.order.insert(self.clock, key);
    }

    fn ensure_resident(&mut self, key: Key) {
        if self.inner.is_resident(key.array, key.offset) {
            self.touch(key);
            return;
        }
        if self.inner.fast_used() == self.inner.capacity() {
            // Evict the least-recently-used word, writing back if dirty.
            let (&stamp, &victim) = self
                .order
                .iter()
                .next()
                .expect("fast memory full but LRU order empty");
            self.order.remove(&stamp);
            self.stamps.remove(&victim);
            if self.dirty.remove(&victim).unwrap_or(false) {
                self.inner.store(victim.array, victim.offset);
            }
            self.inner.evict(victim.array, victim.offset);
        }
        self.inner.load(key.array, key.offset);
        self.touch(key);
    }

    /// Reads a word, loading (and possibly evicting) on demand.
    pub fn read(&mut self, a: ArrayId, offset: usize) -> f64 {
        let key = Key { array: a, offset };
        self.ensure_resident(key);
        self.inner.get(a, offset)
    }

    /// Writes a word, loading (write-allocate) on demand; marks it dirty.
    pub fn write(&mut self, a: ArrayId, offset: usize, value: f64) {
        let key = Key { array: a, offset };
        self.ensure_resident(key);
        self.inner.set(a, offset, value);
        self.dirty.insert(key, true);
    }

    /// Writes back all dirty words (counted as stores) and empties the cache.
    pub fn flush(&mut self) {
        let dirty: Vec<Key> = self
            .dirty
            .iter()
            .filter(|&(_, &d)| d)
            .map(|(&k, _)| k)
            .collect();
        for key in dirty {
            self.inner.store(key.array, key.offset);
        }
        self.dirty.clear();
        self.stamps.clear();
        self.order.clear();
        self.inner.clear_fast();
    }

    /// Direct slow-memory view for post-hoc verification (call `flush` first).
    pub fn slow_data(&self, a: ArrayId) -> &[f64] {
        self.inner.slow_data(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_hits_do_not_count() {
        let mut mem = LruMemory::new(2);
        let a = mem.alloc(vec![1.0, 2.0]);
        assert_eq!(mem.read(a, 0), 1.0);
        assert_eq!(mem.read(a, 0), 1.0);
        assert_eq!(mem.read(a, 0), 1.0);
        assert_eq!(mem.stats().loads, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut mem = LruMemory::new(2);
        let a = mem.alloc(vec![1.0, 2.0, 3.0]);
        mem.read(a, 0);
        mem.read(a, 1);
        mem.read(a, 0); // refresh 0; LRU victim is now 1
        mem.read(a, 2); // evicts 1
        assert_eq!(mem.stats().loads, 3);
        mem.read(a, 0); // still resident: no load
        assert_eq!(mem.stats().loads, 3);
        mem.read(a, 1); // was evicted: reload
        assert_eq!(mem.stats().loads, 4);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut mem = LruMemory::new(1);
        let a = mem.alloc(vec![1.0, 2.0]);
        mem.write(a, 0, 10.0);
        mem.read(a, 1); // evicts dirty word 0 -> store
        assert_eq!(mem.stats().stores, 1);
        assert_eq!(mem.slow_data(a)[0], 10.0);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut mem = LruMemory::new(1);
        let a = mem.alloc(vec![1.0, 2.0]);
        mem.read(a, 0);
        mem.read(a, 1); // evicts clean word 0: no store
        assert_eq!(mem.stats().stores, 0);
    }

    #[test]
    fn flush_persists_all_dirty_words() {
        let mut mem = LruMemory::new(4);
        let a = mem.alloc_zeros(3);
        mem.write(a, 0, 1.0);
        mem.write(a, 2, 3.0);
        mem.flush();
        assert_eq!(mem.slow_data(a), &[1.0, 0.0, 3.0]);
        assert_eq!(mem.stats().stores, 2);
    }

    #[test]
    fn streaming_through_tiny_cache_counts_every_access() {
        let n = 10;
        let mut mem = LruMemory::new(1);
        let a = mem.alloc((0..n).map(|i| i as f64).collect());
        let mut sum = 0.0;
        for i in 0..n {
            sum += mem.read(a, i);
        }
        assert_eq!(sum, 45.0);
        assert_eq!(mem.stats().loads, n as u64);
    }
}
