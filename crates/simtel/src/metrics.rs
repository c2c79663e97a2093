//! The metrics registry: counters, gauges, histograms, timeseries.
//!
//! Every instrument is keyed by `(name, labels)` where `name` is a
//! `&'static str` in Prometheus naming style and `labels` is a
//! `BTreeMap<&'static str, String>` — map-ordered, so iteration (and thus
//! every exporter) is deterministic.

use edison_simcore::time::SimTime;
use std::collections::BTreeMap;

/// A label set: static label names, owned label values, deterministic order.
pub type Labels = BTreeMap<&'static str, String>;

/// Build the owned [`Labels`] key of one instrument from the borrowed
/// `(name, value)` pairs a recording call takes.
fn labels(pairs: &[(&'static str, &str)]) -> Labels {
    pairs.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

/// A Prometheus-style histogram: cumulative-`le` buckets over static upper
/// bounds, plus `sum` and `count`.
///
/// There is no underflow bucket — values at or below the first bound land in
/// the first bucket, values above the last bound land in the implicit `+Inf`
/// bucket — so bucket counts always sum to `count` exactly.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: &'static [f64],
    /// One slot per bound plus the trailing `+Inf` slot (non-cumulative).
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// New empty histogram over `bounds` (strictly increasing upper bounds).
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram { bounds, buckets: vec![0; bounds.len() + 1], count: 0, sum: 0.0 }
    }

    /// Record one value (`le` semantics: the bucket of bound `b` holds
    /// values `v <= b`). NaN lands in the `+Inf` bucket.
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// The configured upper bounds (excluding `+Inf`).
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket (non-cumulative) counts; last entry is the `+Inf` bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Fold `other` into `self`. Merging histograms with different bounds is
    /// a caller bug; the mismatched histogram is dropped (debug-asserted).
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert!(
            self.bounds == other.bounds,
            "merging histograms with different bounds"
        );
        if self.bounds == other.bounds {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
        }
    }
}

/// All metrics of one run, keyed by `(name, labels)`.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    help: BTreeMap<&'static str, &'static str>,
    counters: BTreeMap<(&'static str, Labels), u64>,
    gauges: BTreeMap<(&'static str, Labels), f64>,
    histograms: BTreeMap<(&'static str, Labels), Histogram>,
    series: BTreeMap<(&'static str, Labels), Vec<(SimTime, f64)>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register `# HELP` text for `name` (first registration wins).
    pub fn help(&mut self, name: &'static str, text: &'static str) {
        self.help.entry(name).or_insert(text);
    }

    /// Help text for `name`, if registered.
    pub fn help_for(&self, name: &str) -> Option<&'static str> {
        self.help.get(name).copied()
    }

    /// Add `delta` to counter `name{labels}` (created at 0).
    pub fn counter_add(&mut self, name: &'static str, pairs: &[(&'static str, &str)], delta: u64) {
        *self.counters.entry((name, labels(pairs))).or_insert(0) += delta;
    }

    /// Set gauge `name{labels}` to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, pairs: &[(&'static str, &str)], v: f64) {
        self.gauges.insert((name, labels(pairs)), v);
    }

    /// Record `v` into histogram `name{labels}`, created over `bounds` on
    /// first use.
    pub fn observe(
        &mut self,
        name: &'static str,
        pairs: &[(&'static str, &str)],
        bounds: &'static [f64],
        v: f64,
    ) {
        self.histograms
            .entry((name, labels(pairs)))
            .or_insert_with(|| Histogram::new(bounds))
            .record(v);
    }

    /// Append `(t, v)` to timeseries `name{labels}`.
    pub fn series_push(&mut self, name: &'static str, pairs: &[(&'static str, &str)], t: SimTime, v: f64) {
        self.series.entry((name, labels(pairs))).or_default().push((t, v));
    }

    /// Iterate counters as `(name, labels, value)` in deterministic order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &Labels, u64)> {
        self.counters.iter().map(|((n, l), &v)| (*n, l, v))
    }

    /// Iterate gauges as `(name, labels, value)` in deterministic order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &Labels, f64)> {
        self.gauges.iter().map(|((n, l), &v)| (*n, l, v))
    }

    /// Iterate histograms as `(name, labels, histogram)` in deterministic order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Labels, &Histogram)> {
        self.histograms.iter().map(|((n, l), h)| (*n, l, h))
    }

    /// Iterate timeseries as `(name, labels, points)` in deterministic order.
    pub fn series(&self) -> impl Iterator<Item = (&'static str, &Labels, &[(SimTime, f64)])> {
        self.series.iter().map(|((n, l), p)| (*n, l, p.as_slice()))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Fold `other` into `self` (see [`crate::Telemetry::merge`] for the
    /// per-instrument semantics).
    pub fn merge(&mut self, other: Registry) {
        for (name, text) in other.help {
            self.help.entry(name).or_insert(text);
        }
        for ((name, labels), v) in other.counters {
            *self.counters.entry((name, labels)).or_insert(0) += v;
        }
        for (key, v) in other.gauges {
            self.gauges.insert(key, v);
        }
        for (key, h) in other.histograms {
            match self.histograms.get_mut(&key) {
                Some(mine) => mine.merge(&h),
                None => {
                    self.histograms.insert(key, h);
                }
            }
        }
        for (key, mut pts) in other.series {
            match self.series.get_mut(&key) {
                Some(mine) => {
                    mine.append(&mut pts);
                    mine.sort_by_key(|&(t, _)| t); // stable: same-time points keep order
                }
                None => {
                    self.series.insert(key, pts);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[0.1, 0.5, 1.0];

    #[test]
    fn histogram_le_semantics() {
        let mut h = Histogram::new(BOUNDS);
        h.record(0.1); // le=0.1 (boundary is inclusive)
        h.record(0.3);
        h.record(2.0); // +Inf
        h.record(-5.0); // below first bound → first bucket
        assert_eq!(h.buckets(), &[2, 1, 0, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (0.1 + 0.3 + 2.0 - 5.0)).abs() < 1e-12);
    }

    #[test]
    fn histogram_nan_goes_to_inf_bucket() {
        let mut h = Histogram::new(BOUNDS);
        h.record(f64::NAN);
        assert_eq!(h.buckets(), &[0, 0, 0, 1]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new(BOUNDS);
        a.record(0.05);
        let mut b = Histogram::new(BOUNDS);
        b.record(0.7);
        a.merge(&b);
        assert_eq!(a.buckets(), &[1, 0, 1, 0]);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn registry_round_trip() {
        let mut r = Registry::new();
        r.counter_add("a_total", &[("k", "x")], 1);
        r.counter_add("a_total", &[("k", "x")], 2);
        r.gauge_set("g", &[], 4.0);
        r.observe("h_seconds", &[], BOUNDS, 0.2);
        r.series_push("s_watts", &[("node", "0")], SimTime::ZERO, 3.0);
        assert_eq!(r.counters().next(), Some(("a_total", &labels(&[("k", "x")]), 3)));
        assert_eq!(r.gauges().next().map(|(_, _, v)| v), Some(4.0));
        assert_eq!(r.histograms().next().map(|(_, _, h)| h.count()), Some(1));
        assert_eq!(r.series().next().map(|(_, _, p)| p.len()), Some(1));
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_series_sorts_by_time() {
        let mut a = Registry::new();
        a.series_push("s", &[], SimTime::from_secs(2), 1.0);
        let mut b = Registry::new();
        b.series_push("s", &[], SimTime::from_secs(1), 2.0);
        a.merge(b);
        let pts: Vec<_> = a.series().next().map(|(_, _, p)| p.to_vec()).unwrap_or_default();
        assert_eq!(pts, vec![(SimTime::from_secs(1), 2.0), (SimTime::from_secs(2), 1.0)]);
    }
}
