//! A capacity-bounded LRU map with hit/miss/eviction counters: the
//! storage behind the online feature snapshot cache (`domd-features`'
//! `FeatureCache`), which keys per-avail feature vectors on
//! `(avail, t*, epoch)` and invalidates by bumping the epoch or by
//! dropping the entries of the avails a delta touched
//! ([`LruCache::retain_rekey`]).

use crate::types::HeapSize;
use domd_data::hash::FxHashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

/// Hit/miss/eviction counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the cold path.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One slab entry of the LRU's intrusive recency list.
#[derive(Debug, Clone)]
struct LruSlot<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// A capacity-bounded least-recently-used map: O(1) lookup via a hash map
/// into a slab, O(1) recency updates via an intrusive doubly-linked list.
/// No interior mutability — callers that share one must do so explicitly.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, u32>,
    slots: Vec<LruSlot<K, V>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (eviction victim).
    tail: u32,
    free: Vec<u32>,
    capacity: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters accumulated since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters (entries are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Looks up `key`, counting a hit (moved to most-recent) or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.stats.hits += 1;
                if self.head != slot {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                Some(&self.slots[slot as usize].value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry
    /// when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot as usize].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache must have a tail");
            self.unlink(victim);
            let old_key = self.slots[victim as usize].key.clone();
            self.map.remove(&old_key);
            self.free.push(victim);
            self.stats.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].key = key.clone();
                self.slots[s as usize].value = value;
                s
            }
            None => {
                self.slots.push(LruSlot { key: key.clone(), value, prev: NIL, next: NIL });
                (self.slots.len() - 1) as u32
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Rebuilds the cache keeping only the entries `keep` accepts, mapping
    /// each survivor's key through `rekey`. Recency order is preserved:
    /// entries are re-inserted least-recent first, so each insert becomes
    /// the momentary head and the original head ends up the head again.
    /// Returns `(dropped, retained)`. Counters are kept; re-insertion
    /// cannot evict because at most `len()` entries come back.
    pub fn retain_rekey(
        &mut self,
        mut keep: impl FnMut(&K) -> bool,
        mut rekey: impl FnMut(&K) -> K,
    ) -> (usize, usize) {
        let mut live: Vec<(K, V)> = Vec::with_capacity(self.map.len());
        let mut slot = self.tail;
        while slot != NIL {
            let s = &self.slots[slot as usize];
            live.push((s.key.clone(), s.value.clone()));
            slot = s.prev;
        }
        self.clear();
        let (mut dropped, mut retained) = (0, 0);
        for (k, v) in live {
            if keep(&k) {
                retained += 1;
                self.insert(rekey(&k), v);
            } else {
                dropped += 1;
            }
        }
        (dropped, retained)
    }
}

impl<K, V> HeapSize for LruCache<K, V> {
    fn heap_bytes(&self) -> usize {
        // HashMap buckets store (K, u32) plus control bytes; the pair size
        // is the dominant, portable term.
        self.map.capacity() * std::mem::size_of::<(K, u32)>()
            + self.slots.capacity() * std::mem::size_of::<LruSlot<K, V>>()
            + self.free.heap_bytes()
    }
}

/// Default snapshot-cache capacity (entries, not bytes): enough for every
/// (avail × grid anchor) feature snapshot of a full online sweep with room
/// to spare.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(&10)); // 2 is now the LRU entry
        lru.insert(3, 30);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None, "LRU victim must be 2");
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        let s = lru.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn lru_replace_updates_value_without_eviction() {
        let mut lru: LruCache<u32, u32> = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(1, 11);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.stats().evictions, 0);
    }

    #[test]
    fn lru_slot_reuse_after_eviction() {
        let mut lru: LruCache<u32, u32> = LruCache::new(3);
        for i in 0..100 {
            lru.insert(i, i);
        }
        assert_eq!(lru.len(), 3);
        assert!(lru.slots.len() <= 4, "evicted slots must be reused");
        assert_eq!(lru.get(&99), Some(&99));
        assert_eq!(lru.get(&97), Some(&97));
        assert_eq!(lru.get(&0), None);
    }
}
