//! Span tracing: complete events on named (process, thread) tracks.
//!
//! A *track* is a (process, thread) name pair — e.g. `("web", "node-3")` or
//! `("mr", "edison-1")`. Tracks are interned in first-use order, which gives
//! every track a stable small id and makes the exported pid/tid assignment a
//! pure function of the event sequence (byte-identical across same-seed
//! runs).
//!
//! Name strings are interned as `Arc<str>`: each distinct process or thread
//! name is allocated **once** and shared by every track that uses it, and a
//! repeat [`Tracer::track`] lookup with already-known names allocates
//! nothing. Hot paths should go one step further and cache the returned
//! track id (worlds hold a `Vec<usize>` of per-node ids), so per-event span
//! recording does no string work at all — previously every span re-built its
//! thread name with `format!` and the tracer compared `String`s linearly,
//! which was the profiler's largest self-induced distortion.

use edison_simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::sync::Arc;

/// One completed span on a track.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into [`Tracer::tracks`].
    pub track: usize,
    /// Perfetto category (used for filtering in the UI).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start instant.
    pub start: SimTime,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Span arguments, shown in the Perfetto detail pane.
    pub args: Vec<(&'static str, String)>,
}

/// Collects spans and interns tracks.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    /// Every distinct name, allocated exactly once.
    names: BTreeSet<Arc<str>>,
    /// `(process, thread)` → track id, for O(log n) repeat lookup.
    by_name: BTreeMap<(Arc<str>, Arc<str>), usize>,
    /// Track names in first-use order (the id space).
    tracks: Vec<(Arc<str>, Arc<str>)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// Empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Intern one name: clone the shared `Arc` if seen before, allocate once
    /// if not. (`BTreeSet<Arc<str>>` can be probed with a plain `&str`
    /// because `Arc<str>: Borrow<str>`.)
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(a) = self.names.get(name) {
            return Arc::clone(a);
        }
        let a: Arc<str> = Arc::from(name);
        self.names.insert(Arc::clone(&a));
        a
    }

    /// Intern the `(process, thread)` track, returning its id. Repeat calls
    /// with known names are two map probes and zero allocations.
    pub fn track(&mut self, process: &str, thread: &str) -> usize {
        if let (Some(p), Some(t)) = (self.names.get(process), self.names.get(thread)) {
            let key = (Arc::clone(p), Arc::clone(t));
            if let Some(&i) = self.by_name.get(&key) {
                return i;
            }
        }
        let p = self.intern(process);
        let t = self.intern(thread);
        let i = self.tracks.len();
        self.by_name.insert((Arc::clone(&p), Arc::clone(&t)), i);
        self.tracks.push((p, t));
        i
    }

    /// Record a complete span `[start, end)` on `track`, rendering each
    /// argument value through `Display`. A backwards span is clamped to
    /// zero duration (and debug-asserted) rather than wrapping.
    pub fn span(
        &mut self,
        track: usize,
        cat: &'static str,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, &dyn Display)],
    ) {
        debug_assert!(start <= end, "span '{name}' ends before it starts");
        self.spans.push(Span {
            track,
            cat,
            name,
            start,
            dur_ns: end.saturating_since(start).0,
            args: args.iter().map(|&(k, v)| (k, v.to_string())).collect(),
        });
    }

    /// The interned `(process, thread)` track names, in first-use order.
    pub fn tracks(&self) -> &[(Arc<str>, Arc<str>)] {
        &self.tracks
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append `other`'s spans, re-interning its tracks into `self`.
    pub fn merge(&mut self, other: Tracer) {
        let remap: Vec<usize> = other
            .tracks
            .iter()
            .map(|(p, t)| self.track(p, t))
            .collect();
        for mut s in other.spans {
            s.track = remap.get(s.track).copied().unwrap_or(s.track);
            self.spans.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_intern_in_first_use_order() {
        let mut tr = Tracer::new();
        assert_eq!(tr.track("web", "client"), 0);
        assert_eq!(tr.track("web", "node-0"), 1);
        assert_eq!(tr.track("web", "client"), 0);
        assert_eq!(tr.tracks().len(), 2);
    }

    #[test]
    fn names_are_shared_not_cloned() {
        let mut tr = Tracer::new();
        tr.track("web", "node-0");
        tr.track("web", "node-1");
        tr.track("mr", "node-0");
        // 4 distinct strings across 3 tracks (6 slots): "web", "mr",
        // "node-0", "node-1" — each allocated once and Arc-shared.
        assert_eq!(tr.names.len(), 4);
        let tracks = tr.tracks();
        assert!(Arc::ptr_eq(&tracks[0].0, &tracks[1].0), "process name shared");
        assert!(Arc::ptr_eq(&tracks[0].1, &tracks[2].1), "thread name shared");
    }

    #[test]
    fn span_duration_is_exact_ns() {
        let mut tr = Tracer::new();
        let t = tr.track("p", "t");
        tr.span(t, "c", "x", SimTime(100), SimTime(350), &[]);
        assert_eq!(tr.spans()[0].dur_ns, 250);
    }

    #[test]
    fn merge_remaps_tracks() {
        let mut a = Tracer::new();
        a.track("web", "client");
        let mut b = Tracer::new();
        let t = b.track("mr", "node-0");
        b.span(t, "mr", "map", SimTime::ZERO, SimTime(10), &[]);
        a.merge(b);
        assert_eq!(a.tracks().len(), 2);
        assert_eq!(a.spans()[0].track, 1);
    }
}
