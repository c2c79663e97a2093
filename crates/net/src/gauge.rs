//! Snapshot-rate link gauge — the cheap sibling of [`crate::Network`].
//!
//! The exact max-min solver recomputes every flow's rate on every mutation
//! (O(links × flows)), which is the right tool for MapReduce's few large
//! shuffle flows but far too expensive for the web experiments, where
//! thousands of small reply transfers per second are in flight. The gauge
//! instead *freezes each flow's rate at start time*:
//!
//! ```text
//! rate = min over path links of  capacity_l / (active_l + 1)
//! ```
//!
//! a standard TCP "snapshot" approximation. Rates are not re-adjusted when
//! other flows come and go, so completions never need invalidation — a flow
//! is scheduled once. Under heavy load the snapshot rate systematically
//! reflects contention at admission, which is what drives the paper's
//! delay-vs-load curves (Figures 7–9).
//!
//! The price is accuracy: for staggered equal flows on one link the
//! snapshot makespan never falls below the exact max-min one and overshoots
//! it by at most 10 % (about 9 %, 2 % and 1 % for 10, 50 and 100 flows; see
//! the tests).

use crate::network::LinkId;
use edison_simcore::time::SimDuration;

/// Per-link active-flow counters with frozen-rate admission. See module docs.
#[derive(Debug, Clone, Default)]
pub struct LinkGauge {
    caps: Vec<f64>,   // bytes/s
    active: Vec<u32>, // flows currently crossing the link
}

impl LinkGauge {
    /// Empty gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror a link (same ids as the [`crate::Topology`] that created it).
    pub fn add_link_bps(&mut self, capacity_bps: f64, efficiency: f64) -> LinkId {
        assert!(capacity_bps > 0.0 && efficiency > 0.0 && efficiency <= 1.0);
        self.caps.push(capacity_bps * efficiency / 8.0);
        self.active.push(0);
        LinkId(self.caps.len() - 1)
    }

    /// Build a gauge mirroring every link of an existing exact network.
    pub fn mirror(net: &crate::Network) -> Self {
        let mut g = LinkGauge::new();
        for i in 0.. {
            let l = LinkId(i);
            if i >= net.link_count() {
                break;
            }
            g.caps.push(net.link_capacity(l));
            g.active.push(0);
        }
        g
    }

    /// Admit a flow over `path`; returns its frozen rate (bytes/s).
    ///
    /// An empty path (loopback) returns `f64::INFINITY` — the caller should
    /// apply its own floor (e.g. memory bandwidth).
    pub fn begin(&mut self, path: &[LinkId]) -> f64 {
        let mut rate = f64::INFINITY;
        for l in path {
            self.active[l.0] += 1;
            let r = self.caps[l.0] / self.active[l.0] as f64;
            rate = rate.min(r);
        }
        rate
    }

    /// Transfer time for `bytes` over `path` at the frozen admission rate.
    /// Combines [`begin`](Self::begin) with a byte count; the caller must
    /// still call [`end`](Self::end) when the transfer completes.
    pub fn begin_transfer(&mut self, path: &[LinkId], bytes: f64) -> SimDuration {
        let rate = self.begin(path);
        if rate.is_finite() {
            SimDuration::from_secs_f64(bytes / rate)
        } else {
            SimDuration::ZERO
        }
    }

    /// Release a flow's link claims.
    pub fn end(&mut self, path: &[LinkId]) {
        for l in path {
            debug_assert!(self.active[l.0] > 0, "gauge underflow on {l:?}");
            self.active[l.0] = self.active[l.0].saturating_sub(1);
        }
    }

    /// Flows currently crossing a link.
    pub fn active_on(&self, l: LinkId) -> u32 {
        self.active[l.0]
    }

    /// Instantaneous "pressure" on a link: active flows × unit demand over
    /// capacity; ≥ 1.0 means the link is saturated under the snapshot model.
    pub fn pressure(&self, l: LinkId, per_flow_demand: f64) -> f64 {
        self.active[l.0] as f64 * per_flow_demand / self.caps[l.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use edison_simcore::time::SimTime;

    /// Makespan of `n` flows of 100 kB, one every 10 ms, over one 1 MB/s
    /// link under the exact max-min solver.
    fn exact_makespan(n: u64) -> f64 {
        let mut net = Network::new();
        let link = net.add_link_bytes(1e6);
        let mut now = SimTime::ZERO;
        for f in 0..n {
            let arrival = SimTime::from_secs_f64(0.01 * f as f64);
            while let Some((_, at)) = net.next_completion(now).filter(|&(_, at)| at <= arrival) {
                now = at;
                net.take_finished(now);
            }
            now = arrival;
            net.start_flow(now, f, 1e5, vec![link], f64::INFINITY);
        }
        while let Some((_, at)) = net.next_completion(now) {
            now = at;
            net.take_finished(now);
        }
        now.as_secs_f64()
    }

    /// The same flows through the gauge: each rate freezes at admission,
    /// and a flow's claim is released at the first arrival after it ends.
    fn gauge_makespan(n: u64) -> f64 {
        let mut g = LinkGauge::new();
        let path = [g.add_link_bps(8e6, 1.0)];
        let mut finishes: Vec<f64> = Vec::new();
        for f in 0..n {
            let arrival = 0.01 * f as f64;
            finishes.retain(|&done| {
                let ended = done <= arrival;
                if ended {
                    g.end(&path);
                }
                !ended
            });
            finishes.push(arrival + g.begin_transfer(&path, 1e5).as_secs_f64());
        }
        finishes.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn snapshot_makespan_overshoots_max_min_by_at_most_ten_percent() {
        for n in [10, 50, 100] {
            let (exact, snapshot) = (exact_makespan(n), gauge_makespan(n));
            assert!(snapshot >= exact, "n={n}: snapshot {snapshot} below exact {exact}");
            assert!(snapshot <= exact * 1.10, "n={n}: snapshot {snapshot} vs exact {exact}");
        }
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let mut g = LinkGauge::new();
        let l = g.add_link_bps(80.0, 1.0); // 10 bytes/s
        let r = g.begin(&[l]);
        assert!((r - 10.0).abs() < 1e-12);
        g.end(&[l]);
        assert_eq!(g.active_on(l), 0);
    }

    #[test]
    fn rates_freeze_at_admission() {
        let mut g = LinkGauge::new();
        let l = g.add_link_bps(80.0, 1.0);
        let r1 = g.begin(&[l]);
        let r2 = g.begin(&[l]);
        let r3 = g.begin(&[l]);
        assert!((r1 - 10.0).abs() < 1e-12);
        assert!((r2 - 5.0).abs() < 1e-12);
        assert!((r3 - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_is_min_across_path() {
        let mut g = LinkGauge::new();
        let fat = g.add_link_bps(800.0, 1.0); // 100 B/s
        let thin = g.add_link_bps(80.0, 1.0); // 10 B/s
        let r = g.begin(&[fat, thin]);
        assert!((r - 10.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_and_loopback() {
        let mut g = LinkGauge::new();
        let l = g.add_link_bps(80.0, 1.0);
        let t = g.begin_transfer(&[l], 100.0);
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-9);
        let t0 = g.begin_transfer(&[], 100.0);
        assert_eq!(t0, SimDuration::ZERO);
    }

    #[test]
    fn end_releases_capacity() {
        let mut g = LinkGauge::new();
        let l = g.add_link_bps(80.0, 1.0);
        let path = [l];
        g.begin(&path);
        g.begin(&path);
        g.end(&path);
        let r = g.begin(&path);
        assert!((r - 5.0).abs() < 1e-12, "one stale flow remains: {r}");
    }
}
