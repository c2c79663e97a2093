//! A deterministic multiplicative hasher for the world's integer-keyed
//! maps (`reqs`, `conns`). The memcached store needs no map: it indexes
//! its entries by key position (see [`crate::memcached`]).
//!
//! `std`'s default hasher is SipHash with a per-process random key: strong
//! against adversarial keys, but several lookups per event on the request
//! path made it a measurable share of host time. The keys here are ids the
//! simulator hands out itself, so a single multiply suffices.
//!
//! Determinism: [`IdMap`] is keyed-only by type. It offers no iterator;
//! its one bulk read, [`IdMap::sorted_ids_where`], returns ids sorted, so
//! neither the hash function nor the map's internal order can reach any
//! output.
#![expect(clippy::disallowed_types, reason = "keyed-only map: no method yields hash order; see the module docs")]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;

/// ⌊2^64 / φ⌋, odd: multiplying by it is a bijection on `u64` whose low
/// bits (the bucket index) stay distinct for sequential ids and whose high
/// bits (the probe tag) are well spread.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher. A single written word `n` hashes to
/// `n * GOLDEN`, whose low `k` bits depend only on the low `k` bits of
/// `n`; keys should therefore be dense ids, not packed fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(GOLDEN);
    }
}

/// An integer-keyed map hashed by [`IdHasher`], with keyed operations
/// only.
pub struct IdMap<K, V>(HashMap<K, V, BuildHasherDefault<IdHasher>>);

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap(HashMap::default())
    }
}

impl<K: Copy + Ord + Hash, V> IdMap<K, V> {
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Ids of the entries whose value satisfies `pred`, ascending: the one
    /// bulk read, and it does not depend on the map's internal order.
    pub fn sorted_ids_where(&self, mut pred: impl FnMut(&V) -> bool) -> Vec<K> {
        let mut ids: Vec<K> = self.0.iter().filter(|(_, v)| pred(v)).map(|(&k, _)| k).collect();
        ids.sort_unstable();
        ids
    }
}

impl<K: Copy + Ord + Hash, V> Index<&K> for IdMap<K, V> {
    type Output = V;

    /// Panics when `key` is absent, like `HashMap`'s index.
    #[inline]
    fn index(&self, key: &K) -> &V {
        &self.0[key]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn sequential_ids_fill_distinct_buckets() {
        // the low bits pick the bucket: 1024 sequential ids over 1024
        // buckets collide nowhere
        let mut seen = vec![false; 1024];
        for id in 0..1024u64 {
            let b = usize::try_from(hash(id) & 1023).unwrap_or(0);
            assert!(!seen[b], "id {id} collides");
            seen[b] = true;
        }
    }

    #[test]
    fn map_round_trips() {
        let mut m: IdMap<u64, u32> = IdMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 3, u32::try_from(i).unwrap_or(u32::MAX));
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 3)).copied(), u32::try_from(i).ok());
        }
        assert!(m.get(&1).is_none());
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.remove(&3), Some(1));
        assert_eq!(m.sorted_ids_where(|&v| v < 4), [0, 6, 9]);
    }
}
