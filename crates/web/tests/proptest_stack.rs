//! Property tests over the web stack: conservation and sanity across
//! random load points, LRU-store laws under arbitrary operation
//! sequences and exact agreement with a reference LRU, the bulk-warmed
//! store against the per-key warm-up, and the slab of in-flight records
//! against a `BTreeMap`.

use edison_web::memcached::{Key, LruStore};
use edison_web::slab::{Handle, Slab};
use edison_web::stack::{run, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};
use edison_simcore::time::SimDuration;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// The obvious LRU: `(key, bytes)` in recency order, most recent first,
/// plus the set of stored keys, so that a miss or a first insert costs no
/// scan and a warm-up of 90,000 distinct keys stays linear.
#[derive(Default)]
struct RefLru {
    entries: VecDeque<(Key, u32)>,
    stored: HashSet<Key>,
    used: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RefLru {
    fn take(&mut self, key: Key) -> Option<u32> {
        if !self.stored.remove(&key) {
            return None;
        }
        let i = self.entries.iter().position(|e| e.0 == key).expect("a stored key is listed");
        let (_, bytes) = self.entries.remove(i).expect("the position is in range");
        self.used -= u64::from(bytes);
        Some(bytes)
    }

    fn put_front(&mut self, key: Key, bytes: u32) {
        self.stored.insert(key);
        self.entries.push_front((key, bytes));
        self.used += u64::from(bytes);
    }

    fn get(&mut self, key: Key) -> Option<u32> {
        let got = self.take(key);
        match got {
            Some(bytes) => {
                self.hits += 1;
                self.put_front(key, bytes);
            }
            None => self.misses += 1,
        }
        got
    }

    fn set(&mut self, key: Key, bytes: u32, cap: u64) -> bool {
        if u64::from(bytes) > cap {
            return false;
        }
        self.take(key);
        self.put_front(key, bytes);
        while self.used > cap {
            let (evicted, bytes) = self.entries.pop_back().expect("over capacity means non-empty");
            self.stored.remove(&evicted);
            self.used -= u64::from(bytes);
            self.evictions += 1;
        }
        true
    }
}

/// Run a random script of `(op, pick, bytes)` steps against `store` and
/// `reference`, checking after every step that their answers and counters
/// agree. `pick` names one of 40 keys of shard `residue` of `shards`,
/// spread over every table.
fn drive_against_reference(
    store: &mut LruStore,
    reference: &mut RefLru,
    (shards, residue, cap): (usize, usize, u64),
    ops: &[(u8, u32, u32)],
) {
    for &(op, pick, bytes) in ops {
        let id = u64::from(pick) * 197 * shards as u64 + residue as u64;
        let key = Key { table: (id / 6_000) as u8, row: (id % 6_000) as u32 };
        prop_assert_eq!(key.shard(shards), residue);
        match op {
            0 => prop_assert_eq!(store.set(key, bytes), reference.set(key, bytes, cap)),
            1 => prop_assert_eq!(store.get(key), reference.get(key)),
            _ => prop_assert_eq!(store.contains(key), reference.entries.iter().any(|e| e.0 == key)),
        }
        prop_assert_eq!(store.len(), reference.entries.len());
        prop_assert_eq!(store.used_bytes(), reference.used);
        prop_assert_eq!(store.hits(), reference.hits);
        prop_assert_eq!(store.misses(), reference.misses);
        prop_assert_eq!(store.evictions(), reference.evictions);
    }
}

fn cfg(conc: f64, seed: u64, hit: f64, img: f64) -> StackConfig {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let mut cfg = StackConfig::new(
        scenario,
        WorkloadMix { image_fraction: img, cache_hit_ratio: hit },
        GenMode::Httperf { connections_per_sec: conc, calls_per_conn: 6.6 },
        seed,
    );
    cfg.warmup = SimDuration::from_secs(1);
    cfg.measure = SimDuration::from_secs(4);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the load point, accounting must balance: completed requests
    /// never exceed offered, delays are positive, energy is positive and
    /// bounded by busy-power × window.
    #[test]
    fn accounting_is_sane(
        conc in 4.0f64..300.0,
        seed in 0u64..1_000,
        hit in 0.5f64..0.99,
        img in 0.0f64..0.25,
    ) {
        let world = run(cfg(conc, seed, hit, img));
        let m = &world.metrics;
        let offered = conc * 6.6 * 4.0 * 1.6; // generous upper bound
        prop_assert!((m.completed as f64) < offered, "completed {} vs offered {offered}", m.completed);
        if m.delays_ms.len() > 0 {
            prop_assert!(m.delays_ms.min() > 0.0);
            prop_assert!(m.delays_ms.mean() < 20_000.0);
        }
        // 5 nodes: busy bound 5 × 1.68 W × 4 s window
        prop_assert!(m.energy_j > 0.0);
        prop_assert!(m.energy_j < 5.0 * 1.68 * 4.0 * 1.05, "energy {}", m.energy_j);
        // measured hit ratio near the configured one (when there were hits)
        let hits = m.cache_delays_ms.len() as f64;
        let misses = m.db_delays_ms.len() as f64;
        if hits + misses > 300.0 {
            let measured = hits / (hits + misses);
            prop_assert!((measured - hit).abs() < 0.12, "hit {measured} vs {hit}");
        }
    }

    /// LRU store laws under arbitrary op sequences: size bound respected,
    /// gets never lie, eviction count consistent.
    #[test]
    fn lru_store_laws(
        cap_kb in 4u64..64,
        ops in proptest::collection::vec((0u8..3, 0u32..64, 1u32..4_000), 1..300),
    ) {
        let cap = cap_kb * 1024;
        let mut store = LruStore::new(cap, 1, 0);
        let mut shadow: std::collections::HashMap<Key, u32> = Default::default();
        for &(op, row, bytes) in &ops {
            let key = Key { table: (row % 5) as u8, row };
            match op {
                0 => {
                    let ok = store.set(key, bytes);
                    prop_assert_eq!(ok, bytes as u64 <= cap);
                    if ok { shadow.insert(key, bytes); }
                }
                1 => {
                    if let Some(got) = store.get(key) {
                        // a hit must return the last value written
                        prop_assert_eq!(Some(&got), shadow.get(&key));
                    }
                }
                _ => {
                    let _ = store.contains(key);
                }
            }
            prop_assert!(store.used_bytes() <= cap, "{} > {cap}", store.used_bytes());
        }
        prop_assert_eq!(store.hits() + store.misses(),
            ops.iter().filter(|o| o.0 == 1).count() as u64);
    }
}

proptest! {
    // cheap cases: enough of them to reach deep eviction chains
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense store is an exact LRU: after every step of a random
    /// script its answers and counters equal the reference list's, for
    /// every shard of 1, 3 and 11 (in-shard keys only).
    #[test]
    fn lru_store_matches_reference_lru(
        shards_at in 0usize..3,
        residue_seed in 0usize..11,
        cap_kb in 1u64..8,
        ops in proptest::collection::vec((0u8..3, 0u32..40, 1u32..3_000), 1..200),
    ) {
        let shards = [1usize, 3, 11][shards_at];
        let residue = residue_seed % shards;
        let cap = cap_kb * 1024;
        let mut store = LruStore::new(cap, shards, residue);
        drive_against_reference(&mut store, &mut RefLru::default(), (shards, residue, cap), &ops);
    }

    /// The slab agrees with a `BTreeMap` keyed by creation counter after
    /// every step of a random insert/get/remove script, stale handles
    /// included, and its bulk read lists the live handles in creation
    /// order.
    #[test]
    fn slab_matches_reference_map(
        ops in proptest::collection::vec((0u8..3, 0usize..64), 1..300),
    ) {
        let mut slab = Slab::default();
        let mut reference: BTreeMap<u64, (Handle, u64)> = BTreeMap::new();
        let mut issued: Vec<Handle> = Vec::new();
        for (seq, &(op, pick)) in (0u64..).zip(&ops) {
            let live = |h: Handle, r: &BTreeMap<u64, (Handle, u64)>| {
                r.get(&h.seq()).filter(|e| e.0 == h).map(|e| e.1)
            };
            match op {
                0 => {
                    let h = slab.insert(seq, seq * 3);
                    prop_assert_eq!(h.seq(), seq);
                    prop_assert!(issued.last().is_none_or(|&last| last < h));
                    reference.insert(seq, (h, seq * 3));
                    issued.push(h);
                }
                1 if !issued.is_empty() => {
                    let h = issued[pick % issued.len()];
                    prop_assert_eq!(slab.get(h).copied(), live(h, &reference));
                }
                2 if !issued.is_empty() => {
                    let h = issued[pick % issued.len()];
                    let want = live(h, &reference);
                    if want.is_some() {
                        reference.remove(&h.seq());
                    }
                    prop_assert_eq!(slab.remove(h), want);
                }
                _ => {}
            }
            prop_assert_eq!(slab.len(), reference.len());
            let want: Vec<Handle> = reference.values().map(|e| e.0).collect();
            prop_assert_eq!(slab.sorted_ids_where(|_| true), want);
        }
    }
}

proptest! {
    // each case replays 270,000 inserts: every residue of 1, 3 and 11 shards
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `LruStore::warmed` is the store the per-key warm-up leaves: equal,
    /// entry for entry and counter for counter, to `LruStore::new` after
    /// one `set` per warmed row (tables in order, rows ascending), and to
    /// the reference list after the same inserts, and it stays equal to
    /// the reference under a random script. Every residue of 1, 3 and 11
    /// shards is checked. The capacity either holds the warm set, cuts it
    /// inside some run of slots, or cuts it exactly where the newest whole
    /// runs start; one table may be oversize. Table sizes are scalar-like,
    /// image-sized or zero.
    #[test]
    fn warmed_store_equals_the_replayed_warm_up(
        warm in (0u8..4, 0u32..6_001),
        sizes in proptest::collection::vec((0u8..4, 0u32..3_000), 15..16),
        oversize in 0usize..20,
        cut in (0u8..3, 0usize..15, any::<u64>()),
        ops in proptest::collection::vec((0u8..3, 0u32..40, 1u32..3_000), 0..200),
    ) {
        let warm_rows = match warm { (0, _) => 0, (1, _) => 6_000, (_, rows) => rows };
        let mut sizes: Vec<u32> = sizes
            .iter()
            .map(|&s| match s { (0, _) => 0, (1, _) => 1_500, (2, _) => 43_000, (_, bytes) => bytes })
            .collect();
        let (cut_mode, join_at, pick) = cut;
        for (shards, residue) in [1usize, 3, 11].into_iter().flat_map(|n| (0..n).map(move |r| (n, r))) {
            let warm_keys = |table: usize| {
                (0..warm_rows)
                    .map(move |row| Key { table: table as u8, row })
                    .filter(move |k| k.shard(shards) == residue)
            };
            // bytes of table `t`'s warmed rows in this shard, 0 for the oversize table
            let run_bytes = |t: usize| if t == oversize { 0 } else { warm_keys(t).count() as u64 * u64::from(sizes[t]) };
            let total: u64 = (0..15).map(run_bytes).sum();
            let cap = match cut_mode {
                0 => total + pick % 10_000,
                1 => pick % total.max(1),
                _ => (join_at..15).map(run_bytes).sum(),
            }
            .max(1);
            if oversize < 15 {
                sizes[oversize] = u32::try_from(cap + 1).unwrap();
            }

            let warmed = LruStore::warmed(cap, shards, residue, warm_rows, |t| sizes[usize::from(t)]);
            let mut replayed = LruStore::new(cap, shards, residue);
            let mut reference = RefLru::default();
            for (table, &bytes) in sizes.iter().enumerate() {
                for key in warm_keys(table) {
                    prop_assert_eq!(replayed.set(key, bytes), reference.set(key, bytes, cap));
                }
            }
            prop_assert!(warmed == replayed, "shard {residue} of {shards}: warmed store differs from the replayed one (cap {cap})");
            prop_assert_eq!(warmed.len(), reference.entries.len());
            prop_assert_eq!(warmed.used_bytes(), reference.used);
            prop_assert_eq!(warmed.evictions(), reference.evictions);
            prop_assert_eq!(warmed.hits() + warmed.misses(), 0);
            let mut store = warmed;
            drive_against_reference(&mut store, &mut reference, (shards, residue, cap), &ops);
        }
    }
}
