//! Slab storage for the world's in-flight records (`reqs`, `conns`).
//!
//! A record lives in one slot of a `Vec` and is addressed by a [`Handle`],
//! `seq << 24 | slot`: `seq` is the caller's creation counter
//! (`WebWorld::next_req`/`next_conn`), `slot` the record's index. A lookup
//! is one index plus a compare of the full handle, so a handle whose record
//! was removed reads `None` even after its slot holds a newer record. A
//! vacant slot holds the link to the next vacant one, so the free list
//! costs no memory of its own.
//!
//! Determinism: `seq` is unique and sits in the high bits, so handles sort
//! exactly as their creation order, whichever slots they got. The slab
//! offers no iterator; its one bulk read, [`Slab::sorted_ids_where`],
//! returns handles sorted, so slot reuse cannot reach any output.

/// Low bits of a handle that hold the slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Largest `seq` plus one: 40 bits above the slot.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);
/// The free-list link that ends the list.
const NO_SLOT: u64 = u64::MAX;

/// The address of one record: `seq << 24 | slot`. Handles order as their
/// `seq`s, i.e. in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Handle(u64);

impl Handle {
    /// Panics unless `seq < 2^40` and `slot < 2^24`.
    fn new(seq: u64, slot: usize) -> Handle {
        assert!(seq < SEQ_LIMIT, "slab seq {seq} needs more than 40 bits");
        let slot = u64::try_from(slot).unwrap_or(u64::MAX);
        assert!(slot <= SLOT_MASK, "slab slot {slot} needs more than 24 bits");
        Handle(seq << SLOT_BITS | slot)
    }

    /// The creation counter this handle was inserted under.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 >> SLOT_BITS
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0 & SLOT_MASK) as usize
    }

    /// The handle as a plain id (a fluid task or disk job id); it keeps
    /// the handle's order.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Back from [`Handle::raw`].
    #[inline]
    pub fn from_raw(raw: u64) -> Handle {
        Handle(raw)
    }
}

/// Records addressed by [`Handle`]s, with keyed operations only.
pub struct Slab<T> {
    /// Per slot, the occupant's raw handle and value; a vacant slot holds
    /// the next vacant slot (or [`NO_SLOT`]) and `None`.
    slots: Vec<(u64, Option<T>)>,
    /// The first vacant slot, or [`NO_SLOT`].
    free: u64,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: NO_SLOT, len: 0 }
    }
}

impl<T> Slab<T> {
    /// Store `value` under creation counter `seq` and return its handle.
    /// Callers pass strictly increasing `seq`s, so handles are unique and
    /// ascend in creation order. Panics past 2^40 `seq`s or 2^24 records.
    #[inline]
    pub fn insert(&mut self, seq: u64, value: T) -> Handle {
        let vacant = usize::try_from(self.free).ok().filter(|&s| s < self.slots.len());
        let h = Handle::new(seq, vacant.unwrap_or(self.slots.len()));
        match vacant {
            Some(s) => {
                self.free = self.slots[s].0;
                self.slots[s] = (h.0, Some(value));
            }
            None => self.slots.push((h.0, Some(value))),
        }
        self.len += 1;
        h
    }

    #[inline]
    pub fn get(&self, h: Handle) -> Option<&T> {
        match self.slots.get(h.slot()) {
            Some((k, v)) if *k == h.0 => v.as_ref(),
            _ => None,
        }
    }

    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        match self.slots.get_mut(h.slot()) {
            Some((k, v)) if *k == h.0 => v.as_mut(),
            _ => None,
        }
    }

    #[inline]
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let (k, v) = self.slots.get_mut(h.slot())?;
        if *k != h.0 {
            return None;
        }
        let value = v.take()?;
        *k = self.free;
        self.free = h.0 & SLOT_MASK;
        self.len -= 1;
        Some(value)
    }

    /// Records stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no record is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Handles of the records that satisfy `pred`, in creation order: the
    /// one bulk read, and it does not depend on which slot a record got.
    pub fn sorted_ids_where(&self, mut pred: impl FnMut(&T) -> bool) -> Vec<Handle> {
        let mut ids: Vec<Handle> = self
            .slots
            .iter()
            .filter(|(_, v)| v.as_ref().is_some_and(&mut pred))
            .map(|&(k, _)| Handle(k))
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_ascend_in_creation_order_while_slots_are_reused() {
        let mut s = Slab::default();
        let mut last = s.insert(0, 0u32);
        for seq in 1..1000u64 {
            // free the previous record first: the new one takes its slot
            s.remove(last);
            let h = s.insert(seq, 0);
            assert!(h.slot() == 0 && h > last, "seq {seq}: {h:?} after {last:?}");
            last = h;
        }
    }

    #[test]
    fn removed_handle_reads_none_after_its_slot_is_reused() {
        let mut s = Slab::default();
        let a = s.insert(0, "a");
        assert_eq!(s.remove(a), Some("a"));
        let b = s.insert(1, "b");
        assert_eq!(a.slot(), b.slot());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!((s.get(b), s.len()), (Some(&"b"), 1));
    }

    #[test]
    fn sorted_ids_where_returns_creation_order() {
        let mut s = Slab::default();
        let hs: Vec<Handle> = (0..8u64).map(|seq| s.insert(seq, seq)).collect();
        // free low slots so later records land in them
        for &h in &hs[..4] {
            s.remove(h);
        }
        assert!((8..12u64).all(|seq| s.insert(seq, seq).slot() < 4));
        let seqs: Vec<u64> = s.sorted_ids_where(|&v| v % 2 == 0).iter().map(|h| h.seq()).collect();
        assert_eq!(seqs, [4, 6, 8, 10]);
    }

    #[test]
    fn seq_slot_and_raw_round_trip_up_to_the_limits() {
        for (seq, slot) in [(0, 0), (12_345, 99), ((1 << 40) - 1, (1 << 24) - 1)] {
            let h = Handle::new(seq, slot);
            assert_eq!((h.seq(), h.slot(), Handle::from_raw(h.raw())), (seq, slot, h));
        }
    }

    #[test]
    #[should_panic(expected = "40 bits")]
    fn insert_panics_past_the_seq_limit() {
        Slab::default().insert(1 << 40, ());
    }

    /// `insert` takes its handle from `Handle::new`; the 2^24th slot is
    /// refused there, without allocating the slots before it.
    #[test]
    #[should_panic(expected = "24 bits")]
    fn handle_panics_past_the_slot_limit() {
        Handle::new(0, 1 << 24);
    }
}
