//! A real memcached-style keyed store with LRU eviction.
//!
//! Unlike the rest of the web model — which is a timing simulation — the
//! cache is an actual data structure: `get` finds the key's entry, promotes
//! it in an intrusive LRU list, and the *measured hit ratio emerges from
//! what was inserted during warm-up*, exactly as on the paper's testbed
//! ("we control the cache hit ratio by adjusting the warm-up time").
//!
//! Implementation: the workload's key space is small and dense
//! (`TOTAL_TABLES × ROWS_PER_TABLE` rows, see [`Key::dense_id`]), and the
//! web tier shards it over the cache servers by [`Key::shard`]. Each store
//! therefore owns one 12-byte entry per key of its shard, at slot
//! `dense_id / shards`: the value size (or an absence mark) and the
//! prev/next links of the LRU list. A lookup is one division and one
//! index — no hashing, no probing — and nothing allocates after
//! construction: a key's slot never moves, so an evicted key's entry is
//! marked absent and reused when the key returns.
//!
//! The warm-up needs no keyed operation at all: [`LruStore::warmed`]
//! builds the store that inserting rows `0..warm_rows` of every table
//! leaves behind directly, one run of consecutive slots per table.
//!
//! A dense index would silently alias a key outside the row space, or one
//! of another shard, onto some other key's slot, so every keyed operation
//! panics on such a key instead, and so does a warm-up past the last row.

use crate::db::TOTAL_TABLES;
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

    /// The cache server holding this key among `shards` (memcached client
    /// hashing): `dense_id % shards`.
    #[expect(clippy::cast_possible_truncation, reason = "the remainder is below `shards`, a usize")]
    pub fn shard(self, shards: usize) -> usize {
        (self.dense_id() % shards as u64) as usize
    }
}

impl Hash for Key {
    /// One word, the [`dense_id`](Key::dense_id).
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.dense_id());
    }
}

/// Every key the workload can draw.
const KEY_SPACE: u64 = TOTAL_TABLES as u64 * ROWS_PER_TABLE as u64;

/// One key's slot: its value size and its LRU links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Value size, or [`ABSENT`] when the key is not stored.
    bytes: u32,
    prev: u32,
    next: u32,
}

/// Link to no slot.
const NIL: u32 = u32::MAX;
/// `Entry::bytes` of a key that is not stored.
const ABSENT: u32 = u32::MAX;
const VACANT: Entry = Entry { bytes: ABSENT, prev: NIL, next: NIL };

/// Slab index of a link.
fn ix(slot: u32) -> usize {
    slot as usize
}

/// Byte-capacity-bounded LRU store for one shard of the key space. See
/// module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruStore {
    /// One entry per key of the shard, at slot `dense_id / shards`; LRU
    /// order lives in the links.
    slab: Vec<Entry>,
    shards: u64,
    /// `dense_id % shards` of every key this store holds.
    residue: u64,
    len: usize,
    head: u32, // most recent
    tail: u32, // least recent
    capacity_bytes: u64,
    used_bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruStore {
    /// Create the store of shard `residue` of `shards` — the keys whose
    /// [`Key::shard`] is `residue` — bounded to `capacity_bytes` of values.
    pub fn new(capacity_bytes: u64, shards: usize, residue: usize) -> Self {
        assert!(capacity_bytes > 0);
        assert!(residue < shards, "shard {residue} of {shards}");
        let (shards, residue) = (shards as u64, residue as u64);
        // dense ids residue, residue + shards, … below KEY_SPACE
        let keys = KEY_SPACE.saturating_sub(residue).div_ceil(shards);
        LruStore {
            slab: vec![VACANT; usize::try_from(keys).unwrap_or(0)],
            shards,
            residue,
            len: 0,
            head: NIL,
            tail: NIL,
            capacity_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The store that [`new`](Self::new) followed by the warm-up leaves:
    /// for each table in order, rows `0..warm_rows` [`set`](Self::set)
    /// with `bytes_of_table(table)` bytes each, keeping this shard's keys.
    ///
    /// Built without a keyed operation. Within a shard the warm-up inserts
    /// in ascending slot order, and each table's rows fill one run of
    /// consecutive slots, so the LRU list is those runs joined, newest
    /// (highest slot) at the head. The keys are distinct, so eviction is
    /// FIFO and keeps the newest suffix that fits the capacity; value
    /// sizes are fixed per table, so the cut is arithmetic. Oversize
    /// values are skipped, as `set` skips them. Panics when `warm_rows`
    /// exceeds `ROWS_PER_TABLE`, which would alias the next table's rows.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "TOTAL_TABLES fits a u8, and every slot is below the shard's key count, well below 2^32"
    )]
    pub fn warmed(
        capacity_bytes: u64,
        shards: usize,
        residue: usize,
        warm_rows: u32,
        bytes_of_table: impl Fn(u8) -> u32,
    ) -> Self {
        assert!(
            warm_rows <= ROWS_PER_TABLE,
            "a warm-up of {warm_rows} rows per table is outside the {TOTAL_TABLES}-table × {ROWS_PER_TABLE}-row key space"
        );
        let mut store = LruStore::new(capacity_bytes, shards, residue);
        let (shards, residue) = (store.shards, store.residue);
        // slot of this shard's first key at dense id `id` or above
        let first_slot = |id: u64| ((id + shards - 1 - residue) / shards) as u32;
        // Walk the tables newest first: each run keeps what the newer runs
        // leave of the budget, and joins the list behind them.
        let mut budget = capacity_bytes;
        let mut whole = true; // every newer run was kept whole
        let mut inserted = 0u64;
        for table in (0..TOTAL_TABLES).rev() {
            let bytes = bytes_of_table(table as u8);
            if bytes == ABSENT || u64::from(bytes) > capacity_bytes {
                continue;
            }
            let base = table as u64 * u64::from(ROWS_PER_TABLE);
            let end = first_slot(base + u64::from(warm_rows));
            let n = end - first_slot(base);
            inserted += u64::from(n);
            let fit = match (whole, bytes) {
                (false, _) => 0,
                (true, 0) => n,
                (true, b) => n.min(u32::try_from(budget / u64::from(b)).unwrap_or(u32::MAX)),
            };
            whole &= fit == n;
            if fit == 0 {
                continue;
            }
            budget -= u64::from(fit) * u64::from(bytes);
            let first = end - fit;
            // inside a run `prev` is the next slot and `next` the one before
            for (slot, e) in (first..).zip(&mut store.slab[ix(first)..ix(end)]) {
                *e = Entry { bytes, prev: slot + 1, next: slot.wrapping_sub(1) };
            }
            // the run's newest slot follows the newer run's oldest, the tail
            store.slab[ix(end - 1)].prev = store.tail;
            if store.tail == NIL {
                store.head = end - 1;
            } else {
                store.slab[ix(store.tail)].next = end - 1;
            }
            store.tail = first;
            store.len += ix(fit);
            store.used_bytes += u64::from(fit) * u64::from(bytes);
        }
        if store.tail != NIL {
            store.slab[ix(store.tail)].next = NIL;
        }
        store.evictions = inserted - store.len as u64;
        store
    }

    /// The slot of `key`. Panics on a key outside the row space or outside
    /// this store's shard, which would alias another key's slot.
    #[expect(clippy::cast_possible_truncation, reason = "the asserted key space has TOTAL_TABLES × ROWS_PER_TABLE ids, well below 2^32")]
    fn slot(&self, key: Key) -> u32 {
        assert!(
            usize::from(key.table) < TOTAL_TABLES && key.row < ROWS_PER_TABLE,
            "memcached key {key:?} is outside the {TOTAL_TABLES}-table × {ROWS_PER_TABLE}-row key space"
        );
        let id = key.dense_id();
        let (slot, residue) = (id / self.shards, id % self.shards);
        assert!(
            residue == self.residue,
            "memcached key {key:?} belongs to shard {residue} of {}, not to this store's shard {}",
            self.shards,
            self.residue
        );
        slot as u32
    }

    /// Bytes of values stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Look up `key`, promoting it to most-recently-used on hit. Returns
    /// the stored value size.
    pub fn get(&mut self, key: Key) -> Option<u32> {
        let slot = self.slot(key);
        let bytes = self.slab[ix(slot)].bytes;
        if bytes == ABSENT {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.unlink(slot);
        self.push_front(slot);
        Some(bytes)
    }

    /// Peek without touching LRU order or stats.
    pub fn contains(&self, key: Key) -> bool {
        self.slab[ix(self.slot(key))].bytes != ABSENT
    }

    /// Insert (or refresh) `key` with a value of `bytes`, evicting LRU
    /// entries as needed. Values larger than the whole store are rejected
    /// (memcached's behaviour for oversize items), as is a value of
    /// `u32::MAX` bytes, the absence mark.
    pub fn set(&mut self, key: Key, bytes: u32) -> bool {
        let slot = self.slot(key);
        if bytes == ABSENT || u64::from(bytes) > self.capacity_bytes {
            return false;
        }
        let old = self.slab[ix(slot)].bytes;
        if old == ABSENT {
            self.len += 1;
        } else {
            // refresh: adjust accounting and promote
            self.used_bytes -= u64::from(old);
            self.unlink(slot);
        }
        self.slab[ix(slot)].bytes = bytes;
        self.push_front(slot);
        self.used_bytes += u64::from(bytes);
        while self.used_bytes > self.capacity_bytes {
            self.evict_lru();
        }
        true
    }

    fn evict_lru(&mut self) {
        let tail = self.tail;
        debug_assert!(tail != NIL, "evicting from an empty store");
        let bytes = self.slab[ix(tail)].bytes;
        self.unlink(tail);
        self.slab[ix(tail)].bytes = ABSENT;
        self.len -= 1;
        self.used_bytes -= u64::from(bytes);
        self.evictions += 1;
    }

    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.slab[ix(slot)];
        if prev != NIL {
            self.slab[ix(prev)].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[ix(next)].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[ix(slot)].prev = NIL;
        self.slab[ix(slot)].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slab[ix(slot)].prev = NIL;
        self.slab[ix(slot)].next = self.head;
        if self.head != NIL {
            self.slab[ix(self.head)].prev = slot;
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

    /// A one-shard store: every in-range key is its own.
    fn store(capacity_bytes: u64) -> LruStore {
        LruStore::new(capacity_bytes, 1, 0)
    }

    #[test]
    fn every_shard_key_gets_a_distinct_slot_inside_the_slab() {
        let all = TOTAL_TABLES as u64 * u64::from(ROWS_PER_TABLE);
        for shards in [1usize, 2, 11] {
            let bound = all.div_ceil(shards as u64) as usize;
            for residue in 0..shards {
                let s = LruStore::new(1, shards, residue);
                assert!(s.slab.len() <= bound, "{} slots > {bound}", s.slab.len());
                let mut seen = vec![false; s.slab.len()];
                let mut keys = 0;
                for table in 0..TOTAL_TABLES as u8 {
                    for row in (0..ROWS_PER_TABLE).filter(|&r| k(table, r).shard(shards) == residue) {
                        let slot = ix(s.slot(k(table, row)));
                        assert!(!seen[slot], "slot {slot} of shard {residue}/{shards} taken twice");
                        seen[slot] = true;
                        keys += 1;
                    }
                }
                assert_eq!(keys, s.slab.len(), "shard {residue}/{shards}: every slot has its key");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn table_out_of_range_panics() {
        store(10_000).get(k(TOTAL_TABLES as u8, 0));
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn row_out_of_range_panics() {
        store(10_000).set(k(0, ROWS_PER_TABLE), 100);
    }

    #[test]
    #[should_panic(expected = "belongs to shard 1 of 3")]
    fn key_of_another_shard_panics() {
        // dense id 1 is shard 1 of 3, not shard 0
        LruStore::new(10_000, 3, 0).contains(k(0, 1));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut s = store(10_000);
        assert!(s.set(k(0, 1), 1500));
        assert_eq!(s.get(k(0, 1)), Some(1500));
        assert_eq!(s.get(k(0, 2)), None);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut s = store(3_000);
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
        let mut s = store(10_000);
        s.set(k(1, 1), 1000);
        s.set(k(1, 1), 4000);
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 4000);
        assert_eq!(s.get(k(1, 1)), Some(4000));
    }

    #[test]
    fn oversize_value_rejected() {
        let mut s = store(1_000);
        assert!(!s.set(k(0, 0), 2_000));
        assert!(s.is_empty());
        let mut big = store(u64::MAX);
        assert!(!big.set(k(0, 0), ABSENT), "the absence mark is never a size");
        assert!(big.is_empty());
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut s = store(50_000);
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
        let mut s = store(10_000_000);
        for row in 0..930 {
            s.set(k(0, row), 1500);
        }
        let mut hits = 0;
        for i in 0..10_000u32 {
            let row = (i * 7919) % 1000; // co-prime stride = uniform coverage
            if s.get(k(0, row)).is_some() {
                hits += 1;
            }
        }
        let ratio = hits as f64 / 10_000.0;
        assert!((ratio - 0.93).abs() < 0.01, "ratio {ratio}");
        assert_eq!(s.hits(), hits, "the warm-up sets count no hits");
    }

    #[test]
    fn warming_no_rows_is_the_empty_store() {
        for (shards, residue) in [(1, 0), (3, 2), (11, 5)] {
            let warmed = LruStore::warmed(10_000, shards, residue, 0, |_| 1_500);
            assert_eq!(warmed, LruStore::new(10_000, shards, residue), "shard {residue} of {shards}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn warming_past_the_last_row_panics() {
        LruStore::warmed(10_000, 1, 0, ROWS_PER_TABLE + 1, |_| 1_500);
    }

    #[test]
    fn evicted_key_returns_to_its_own_slot() {
        let shards = 3;
        let mut s = LruStore::new(2_000, shards, 2);
        let keys = s.slab.len();
        let shard_keys: Vec<Key> =
            (0..300).map(|r| k(1, r)).filter(|key| key.shard(shards) == 2).collect();
        for &key in &shard_keys {
            s.set(key, 1000);
            assert!(s.len() <= 2);
            assert_eq!(s.slab.len(), keys, "churn never grows the slab past the shard's keys");
        }
        assert!(s.evictions() > 90);
        let first = shard_keys[0];
        assert!(!s.contains(first), "the first key was evicted long ago");
        let slot = s.slot(first);
        s.set(first, 700);
        assert_eq!(s.head, slot, "the returning key is back in its own slot, at the front");
        assert_eq!(s.slab[ix(slot)].bytes, 700);
        assert_eq!(s.slab.len(), keys);
    }
}
