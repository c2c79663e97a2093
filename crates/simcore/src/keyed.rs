//! The engine's two event queues, both binary min-heaps over a `Vec`.
//!
//! * [`MinHeap`] holds plain events. Nothing is ever removed from it but
//!   its minimum, so it is the bare layout: push appends and sifts up, pop
//!   moves the last entry to the root and sifts down.
//! * [`KeyedQueue`] holds the events of
//!   [`Ctx::schedule_keyed`](crate::Ctx::schedule_keyed), at most one
//!   pending per small integer key, in an indexed min-heap: `pos[key]`
//!   locates a key's entry, so replacing it is a sift from its slot rather
//!   than a tombstone left for the plain heap to pop and discard.

/// A binary min-heap: the smallest entry is at index 0.
#[derive(Debug)]
pub(crate) struct MinHeap<T> {
    heap: Vec<T>,
}

impl<T: Ord> MinHeap<T> {
    pub(crate) fn new() -> Self {
        MinHeap { heap: Vec::new() }
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The smallest queued entry.
    pub(crate) fn peek(&self) -> Option<&T> {
        self.heap.first()
    }

    /// Queue `entry`.
    #[inline]
    pub(crate) fn push(&mut self, entry: T) {
        self.heap.push(entry);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Remove and return the smallest queued entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            // Branch-free pick of the smaller child; ties go left. Do not
            // bring back `if … { right } else { left }`: it is a branch on
            // the data at every level, and dropping it is most of the gain
            // measured in DESIGN §7, "Branch-free sift".
            let child = if left + 1 < len {
                left + usize::from(self.heap[left + 1] < self.heap[left])
            } else {
                left
            };
            if self.heap[child] >= self.heap[i] {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
        Some(top)
    }
}

/// `pos` value of a key with nothing pending.
const ABSENT: usize = usize::MAX;

/// An indexed min-heap holding at most one entry per key.
#[derive(Debug)]
pub(crate) struct KeyedQueue<T> {
    /// Heap-ordered `(entry, key)` pairs; the minimum is at index 0.
    heap: Vec<(T, usize)>,
    /// Per key: its index in `heap`, or [`ABSENT`].
    pos: Vec<usize>,
}

impl<T: Ord> KeyedQueue<T> {
    pub(crate) fn new() -> Self {
        KeyedQueue { heap: Vec::new(), pos: Vec::new() }
    }

    /// Number of pending entries.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The smallest pending entry.
    pub(crate) fn peek(&self) -> Option<&T> {
        self.heap.first().map(|(t, _)| t)
    }

    /// Make `entry` the pending entry of `key`. Returns `true` when it
    /// replaced (dropped) an entry already pending for that key.
    pub(crate) fn insert(&mut self, key: usize, entry: T) -> bool {
        if key >= self.pos.len() {
            self.pos.resize(key + 1, ABSENT);
        }
        let i = self.pos[key];
        if i == ABSENT {
            self.heap.push((entry, key));
            let last = self.heap.len() - 1;
            self.pos[key] = last;
            self.sift_up(last);
            false
        } else {
            self.heap[i].0 = entry;
            let i = self.sift_up(i);
            self.sift_down(i);
            true
        }
    }

    /// Remove and return the smallest pending entry.
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.heap.is_empty() {
            return None;
        }
        let (entry, key) = self.heap.swap_remove(0);
        self.pos[key] = ABSENT;
        if let Some(&(_, moved)) = self.heap.first() {
            self.pos[moved] = 0;
            self.sift_down(0);
        }
        Some(entry)
    }

    /// Swap heap slots `a` and `b`, keeping `pos` in step.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1] = a;
        self.pos[self.heap[b].1] = b;
    }

    /// Move the entry at `i` towards the root while it is smaller than its
    /// parent; returns its final index.
    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 >= self.heap[parent].0 {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    /// Move the entry at `i` towards the leaves while a child is smaller.
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                return;
            }
            // Branch-free pick of the smaller child, ties left, as in
            // `MinHeap::pop`; keep it branch-free for the same reason.
            let child = if left + 1 < self.heap.len() {
                left + usize::from(self.heap[left + 1].0 < self.heap[left].0)
            } else {
                left
            };
            if self.heap[child].0 >= self.heap[i].0 {
                return;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_heap_pops_ascending_over_interleaved_push_and_pop() {
        let mut h = MinHeap::new();
        // the model: a sorted Vec, popped from the front
        let mut model: Vec<u32> = Vec::new();
        let mut x: u32 = 1;
        for step in 0..2_000u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // about two pushes per pop, with many duplicate values
            if x % 3 == 0 {
                let expect = (!model.is_empty()).then(|| model.remove(0));
                assert_eq!(h.pop(), expect, "step {step}");
            } else {
                let v = (x >> 16) % 97;
                let at = model.partition_point(|&m| m <= v);
                model.insert(at, v);
                h.push(v);
            }
            assert_eq!(h.len(), model.len());
            assert_eq!(h.peek(), model.first());
        }
        let rest: Vec<u32> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(rest, model);
        assert_eq!(h.pop(), None);
    }

    fn drain(q: &mut KeyedQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_ascending_order() {
        let mut q = KeyedQueue::new();
        for (key, v) in [(3, 30), (0, 5), (7, 12), (1, 40), (2, 1)] {
            assert!(!q.insert(key, v));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek(), Some(&1));
        assert_eq!(drain(&mut q), vec![1, 5, 12, 30, 40]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn insert_replaces_the_key_entry_in_either_direction() {
        let mut q = KeyedQueue::new();
        for key in 0..6 {
            q.insert(key, 10 * key as u32 + 10);
        }
        assert!(q.insert(5, 1), "key 5 was pending: replaced");
        assert!(q.insert(0, 100), "key 0 was pending: replaced");
        assert_eq!(q.len(), 6);
        assert_eq!(drain(&mut q), vec![1, 20, 30, 40, 50, 100]);
    }

    #[test]
    fn a_popped_key_can_be_inserted_again() {
        let mut q = KeyedQueue::new();
        q.insert(4, 9);
        assert_eq!(q.pop(), Some(9));
        assert!(!q.insert(4, 2), "nothing pending after the pop");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    /// Pins the exact array layout, not only the pop order: a sift that
    /// sent ties to the right child would pop the same values but leave
    /// `heap` and `pos` in another shape. The vectors are those of the
    /// branching child pick the branch-free one replaced.
    #[test]
    fn sifts_keep_the_tie_left_layout() {
        let mut h = MinHeap::new();
        let mut q = KeyedQueue::new();
        let mut replaced = 0;
        let mut x: u32 = 7;
        for _ in 0..200 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            // six values over up to 43 entries: ties at every level
            let v = (x >> 16) % 6;
            if (x >> 24) % 5 < 2 {
                h.pop();
                q.pop();
            } else {
                h.push(v);
                replaced += usize::from(q.insert(((x >> 8) % 40) as usize, v));
            }
        }
        assert_eq!(
            h.heap,
            [
                1, 1, 4, 2, 1, 4, 4, 3, 2, 2, 4, 4, 4, 4, 4, 4, 3, 4, 3, 4, 2, 5, 4, 5, 5, 4, 4, 5,
                4, 4, 4, 4, 4, 5, 4, 5, 5, 5, 5, 5, 4, 4, 4,
            ]
        );
        assert_eq!(
            q.heap,
            [
                (1, 25), (2, 33), (1, 8), (2, 15), (4, 39), (2, 0), (3, 13), (2, 9), (5, 38),
                (5, 28), (5, 23), (4, 32), (4, 29), (4, 17), (5, 18), (4, 20), (4, 24),
            ]
        );
        const A: usize = ABSENT;
        assert_eq!(
            q.pos,
            [
                5, A, A, A, A, A, A, A, 2, 7, A, A, A, 6, A, 3, A, 13, 14, A, 15, A, A, 10, 16, 0,
                A, A, 9, 12, A, A, 11, 1, A, A, A, A, 8, 4,
            ]
        );
        assert_eq!(replaced, 27, "the script re-inserts pending keys");
    }
}
