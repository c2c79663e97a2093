//! Deterministic random number helpers.
//!
//! Every experiment takes a single `u64` seed; all stochastic choices
//! (request inter-arrival jitter, table selection, cache-key draws, word
//! distributions) derive from it, so a run is exactly reproducible. Streams
//! for independent subsystems are split with [`SimRng::split`] to avoid
//! cross-coupling when one subsystem changes its draw count.
//!
//! This is the one module that builds a generator: `edison-simcore` is
//! the only crate that depends on `rand`, and `cargo lint-gate` denies
//! `SmallRng` and `seed_from_u64` everywhere but here.
#![expect(clippy::disallowed_types, clippy::disallowed_methods, reason = "the RNG home: the one place a generator is built, from the run seed")]

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG with the handful of distributions the workloads need.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Derive an independent sub-stream (consumes one draw).
    pub fn split(&mut self) -> SimRng {
        SimRng::new(self.inner.gen())
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        self.inner.gen_range(lo..hi)
    }

    /// Exponential with the given mean (inter-arrival times).
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse-CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Bernoulli with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.uniform() < p
    }

    /// Index drawn with the given (unnormalised, non-negative) weights.
    ///
    /// Panics if all weights are zero or any is negative.
    #[expect(clippy::expect_used, reason = "documented panic contract; every caller passes literal weights")]
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let dist = WeightedIndex::new(weights).expect("invalid weights");
        dist.sample(&mut self.inner)
    }

    /// A log-normal-ish positive jitter factor with unit mean: uniform in
    /// `[1-spread, 1+spread]`. Used to de-synchronise otherwise identical
    /// clients without changing means.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&spread));
        self.range_f64(1.0 - spread, 1.0 + spread)
    }

    /// Zipf-distributed rank in `[0, n)` drawn by inverse CDF over the
    /// cumulative weights produced by [`zipf_cumulative`] (used for word
    /// frequencies in the wordcount corpus generator).
    pub fn zipf(&mut self, n: usize, _s: f64, cumulative: &[f64]) -> usize {
        debug_assert_eq!(cumulative.len(), n);
        debug_assert!(!cumulative.is_empty());
        let total = cumulative[n - 1];
        let target = self.uniform() * total;
        match cumulative.binary_search_by(|c| c.total_cmp(&target)) {
            Ok(i) => (i + 1).min(n - 1),
            Err(i) => i.min(n - 1),
        }
    }
}

/// Precompute cumulative Zipf weights `Σ 1/k^s` for [`SimRng::zipf`].
pub fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(s);
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_independent_of_parent_usage() {
        let mut parent1 = SimRng::new(7);
        let mut child1 = parent1.split();
        let mut parent2 = SimRng::new(7);
        let mut child2 = parent2.split();
        // parent1 draws extra values; children must still agree.
        for _ in 0..10 {
            parent1.uniform();
        }
        for _ in 0..20 {
            assert_eq!(child1.uniform(), child2.uniform());
        }
    }

    #[test]
    fn exp_mean_converges() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = SimRng::new(9);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        let total: u32 = counts.iter().sum();
        let frac2 = counts[2] as f64 / total as f64;
        assert!((frac2 - 0.7).abs() < 0.02, "frac {frac2}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let n = 1000;
        let cum = zipf_cumulative(n, 1.0);
        let mut r = SimRng::new(5);
        let mut low = 0;
        let draws = 10_000;
        for _ in 0..draws {
            if r.zipf(n, 1.0, &cum) < 10 {
                low += 1;
            }
        }
        // With s=1, P(rank<10) = H(10)/H(1000) ≈ 2.93/7.49 ≈ 0.39
        let frac = low as f64 / draws as f64;
        assert!((frac - 0.39).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn jitter_has_unit_mean() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.jitter(0.3)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01);
    }
}
