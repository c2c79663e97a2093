//! A real memcached-style keyed store with LRU eviction.
//!
//! Unlike the rest of the web model — which is a timing simulation — the
//! cache is an actual data structure: `get` walks a hash map, promotes the
//! entry in an intrusive LRU list, and the *measured hit ratio emerges from
//! what was inserted during warm-up*, exactly as on the paper's testbed
//! ("we control the cache hit ratio by adjusting the warm-up time").
//!
//! Implementation: slab of entries with prev/next indices + a hash map from
//! key to slot — O(1) get/insert/evict, no per-operation allocation once
//! the slab is warm.

use crate::idmap::IdMap;
use crate::scenario::ROWS_PER_TABLE;
use std::hash::{Hash, Hasher};

/// A cache key: (table, row) — the paper's PHP picks a random table and row
/// per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub table: u8,
    pub row: u32,
}

impl Key {
    /// The key's position in the table-major row space,
    /// `table * ROWS_PER_TABLE + row`: dense and distinct for every
    /// in-range key.
    pub fn dense_id(self) -> u64 {
        u64::from(self.table) * u64::from(ROWS_PER_TABLE) + u64::from(self.row)
    }
}

impl Hash for Key {
    /// One word, the [`dense_id`](Key::dense_id): sequential ids land in
    /// distinct buckets of the multiplicative id hasher.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.dense_id());
    }
}

#[derive(Debug, Clone)]
struct Entry {
    key: Key,
    bytes: u32,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Byte-capacity-bounded LRU store. See module docs.
#[derive(Debug, Clone)]
pub struct LruStore {
    /// Keyed lookup only; LRU order lives in the slab links.
    map: IdMap<Key, u32>,
    slab: Vec<Entry>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    capacity_bytes: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruStore {
    /// Create a store bounded to `capacity_bytes` of values.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0);
        LruStore {
            map: IdMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Bytes of values stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Measured hit ratio (what the paper reads from memcached stats).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reset hit/miss counters (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Look up `key`, promoting it to most-recently-used on hit. Returns
    /// the stored value size.
    pub fn get(&mut self, key: Key) -> Option<u32> {
        match self.map.get(&key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                Some(self.slab[slot as usize].bytes)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without touching LRU order or stats.
    pub fn contains(&self, key: Key) -> bool {
        self.map.contains_key(&key)
    }

    /// Insert (or refresh) `key` with a value of `bytes`, evicting LRU
    /// entries as needed. Values larger than the whole store are rejected
    /// (memcached's behaviour for oversize items).
    pub fn set(&mut self, key: Key, bytes: u32) -> bool {
        if bytes as u64 > self.capacity_bytes {
            return false;
        }
        if let Some(&slot) = self.map.get(&key) {
            // refresh: adjust accounting and promote
            let old = self.slab[slot as usize].bytes;
            self.used_bytes = self.used_bytes - old as u64 + bytes as u64;
            self.slab[slot as usize].bytes = bytes;
            self.unlink(slot);
            self.push_front(slot);
        } else {
            let slot = self.alloc(Entry { key, bytes, prev: NIL, next: NIL });
            self.map.insert(key, slot);
            self.push_front(slot);
            self.used_bytes += bytes as u64;
        }
        while self.used_bytes > self.capacity_bytes {
            self.evict_lru();
        }
        true
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        debug_assert!(tail != NIL, "evicting from an empty store");
        let e = self.slab[tail as usize].clone();
        self.unlink(tail);
        self.map.remove(&e.key);
        self.free.push(tail);
        self.used_bytes -= e.bytes as u64;
        self.evictions += 1;
    }

    fn alloc(&mut self, e: Entry) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = e;
            slot
        } else {
            self.slab.push(e);
            (self.slab.len() - 1) as u32
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot as usize].prev = NIL;
        self.slab[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slab[slot as usize].prev = NIL;
        self.slab[slot as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(table: u8, row: u32) -> Key {
        Key { table, row }
    }

    #[test]
    fn real_key_set_fills_distinct_buckets() {
        use crate::db::TOTAL_TABLES;
        use crate::idmap::IdHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};
        // every (table, row) the workload can draw, over a power-of-two
        // bucket index at least as large as the key set: no two share one
        let keys = TOTAL_TABLES as u64 * u64::from(ROWS_PER_TABLE);
        let mask = keys.next_power_of_two() - 1;
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut buckets = std::collections::BTreeSet::new();
        for table in 0..TOTAL_TABLES as u8 {
            for row in 0..ROWS_PER_TABLE {
                buckets.insert(build.hash_one(k(table, row)) & mask);
            }
        }
        assert_eq!(buckets.len() as u64, keys);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut s = LruStore::new(10_000);
        assert!(s.set(k(0, 1), 1500));
        assert_eq!(s.get(k(0, 1)), Some(1500));
        assert_eq!(s.get(k(0, 2)), None);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut s = LruStore::new(3_000);
        s.set(k(0, 1), 1000);
        s.set(k(0, 2), 1000);
        s.set(k(0, 3), 1000);
        // touch 1 so 2 becomes LRU
        assert!(s.get(k(0, 1)).is_some());
        s.set(k(0, 4), 1000);
        assert!(s.contains(k(0, 1)));
        assert!(!s.contains(k(0, 2)), "2 was LRU and must be evicted");
        assert!(s.contains(k(0, 3)));
        assert!(s.contains(k(0, 4)));
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn refresh_updates_size_without_duplicate() {
        let mut s = LruStore::new(10_000);
        s.set(k(1, 1), 1000);
        s.set(k(1, 1), 4000);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 4000);
        assert_eq!(s.get(k(1, 1)), Some(4000));
    }

    #[test]
    fn oversize_value_rejected() {
        let mut s = LruStore::new(1_000);
        assert!(!s.set(k(0, 0), 2_000));
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut s = LruStore::new(50_000);
        for i in 0..1_000 {
            s.set(k((i % 4) as u8, i), 1500);
            assert!(s.used_bytes() <= 50_000);
        }
        assert!(s.len() <= 33);
        assert!(s.evictions() > 900);
    }

    #[test]
    fn warmup_fraction_produces_target_hit_ratio() {
        // Fill 93 % of a 1000-row table, then read uniformly: measured hit
        // ratio ≈ 93 % — the mechanism the §5.1.1 warm-up relies on.
        let mut s = LruStore::new(10_000_000);
        for row in 0..930 {
            s.set(k(0, row), 1500);
        }
        s.reset_stats();
        let mut hits = 0;
        for i in 0..10_000u32 {
            let row = (i * 7919) % 1000; // co-prime stride = uniform coverage
            if s.get(k(0, row)).is_some() {
                hits += 1;
            }
        }
        let ratio = hits as f64 / 10_000.0;
        assert!((ratio - 0.93).abs() < 0.01, "ratio {ratio}");
        assert!((s.hit_ratio() - ratio).abs() < 1e-9);
    }

    #[test]
    fn slab_reuse_after_eviction() {
        let mut s = LruStore::new(2_000);
        for i in 0..100 {
            s.set(k(0, i), 1000);
        }
        // slab should not grow unboundedly: at most capacity/size + 1 slots
        assert!(s.slab.len() <= 3, "slab {}", s.slab.len());
    }
}
