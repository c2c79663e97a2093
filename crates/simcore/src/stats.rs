//! Metric collection: sample sets, histograms, time series.
//!
//! Every figure in the paper is one of three shapes:
//!
//! * a **scalar table cell** (Tables 2–10) — [`SampleSet`] means/percentiles;
//! * a **curve over a parameter sweep** (Figures 2–9, 18, 19) — one scalar
//!   per sweep point, assembled by the harness;
//! * a **distribution histogram** (Figures 10–11) — [`Histogram`];
//! * a **timeline** (Figures 12–17) — [`TimeSeries`] sampled at 1 s.

use crate::time::SimTime;

/// A growing set of f64 samples with summary statistics.
///
/// Samples are stored exactly; at this codebase's scales (≤ a few million
/// request delays) this is cheaper and more faithful than sketches.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample {v}");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The p-th percentile (0 ≤ p ≤ 100) by nearest-rank; 0.0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            // total_cmp: NaN-safe total order. `push` debug-asserts finiteness,
            // but release builds must degrade gracefully, not panic mid-report.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "p in [0, 100] puts the rank in [0, len - 1]")]
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A fixed-width-bucket histogram over `[lo, hi)` with an overflow bucket.
///
/// Used for the Figure 10/11 response-delay distributions (0–8 s).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    overflow: u64,
    underflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `n` equal buckets.
    ///
    /// Panics unless `lo < hi` and `n ≥ 1`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi && n >= 1, "bad histogram bounds");
        Histogram { lo, hi, buckets: vec![0; n], overflow: 0, underflow: 0, count: 0 }
    }

    /// Record one value.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "lo <= v < hi puts the index in [0, len]; clamped below")]
            let idx = ((v - self.lo) / (self.hi - self.lo) * self.buckets.len() as f64) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total recorded values (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Values below `lo` / at-or-above `hi`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }
    /// Values at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterate `(bucket_midpoint, count)` pairs.
    pub fn bars(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + (i as f64 + 0.5) * w, c))
    }

    /// The count in the bucket containing `v`, or 0 outside range.
    pub fn count_at(&self, v: f64) -> u64 {
        if v < self.lo || v >= self.hi {
            return 0;
        }
        #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "lo <= v < hi puts the index in [0, len]; clamped here")]
        let idx = ((v - self.lo) / (self.hi - self.lo) * self.buckets.len() as f64) as usize;
        self.buckets[idx.min(self.buckets.len() - 1)]
    }
}

/// A time-stamped series of f64 samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point; time must be non-decreasing (debug-asserted).
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| lt <= t),
            "time series must be appended in order"
        );
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value; 0.0 when empty.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max).max(0.0)
    }

    /// Mean of the values (unweighted by time); 0.0 when empty.
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampleset_summary() {
        let mut s = SampleSet::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
    }

    #[test]
    fn sampleset_empty_is_zeroes() {
        let mut s = SampleSet::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn percentile_after_interleaved_pushes() {
        let mut s = SampleSet::new();
        s.push(10.0);
        assert_eq!(s.percentile(50.0), 10.0);
        s.push(0.0);
        s.push(20.0);
        assert_eq!(s.percentile(50.0), 10.0); // re-sorts after new pushes
    }

    #[test]
    fn percentile_survives_nan_samples() {
        // A NaN can only arrive through release-mode arithmetic upstream
        // (`push` debug-asserts finiteness), but percentile must degrade
        // gracefully rather than panic mid-report: total_cmp sorts NaN last.
        let mut s = SampleSet { samples: vec![2.0, f64::NAN, 1.0], sorted: false };
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 2.0);
        assert!(s.percentile(100.0).is_nan());
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 8.0, 80); // Fig 10/11 shape: 0.1 s buckets
        h.record(0.05);
        h.record(0.95);
        h.record(1.0);
        h.record(7.99);
        h.record(8.0); // overflow
        h.record(-1.0); // underflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.count_at(0.05), 1);
        assert_eq!(h.count_at(1.02), 1);
        let total: u64 = h.bars().map(|(_, c)| c).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn timeseries_basics() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 10.0);
        ts.push(SimTime::from_secs(1), 30.0);
        ts.push(SimTime::from_secs(2), 20.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max_value(), 30.0);
        assert!((ts.mean_value() - 20.0).abs() < 1e-12);
    }
}
