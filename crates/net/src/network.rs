//! Links, flows, and the max-min fair-share solver.
//!
//! ### Model
//!
//! A flow transfers `bytes` over an ordered set of directed links. At any
//! instant the rate vector is the **max-min fair allocation**: rates are
//! raised uniformly until a link saturates, flows through that link are
//! frozen at their share, and the process repeats (progressive filling).
//! Per-flow rate caps (application-limited senders, e.g. a reducer fetching
//! map output over a throttled fetcher) participate as freeze candidates.
//!
//! Between mutations rates are constant, so completions are exact — the
//! same epoch/advance/take-finished protocol as
//! [`edison_simcore::fluid::FluidResource`].

use edison_simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Index of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Caller-assigned flow identifier.
pub type FlowId = u64;

/// Bytes below which remaining work counts as finished.
///
/// Completion instants are rounded to whole nanoseconds, so advancing can
/// leave up to `rate × 0.5 ns` of residue — ≈0.06 bytes at 1 Gbps. Eight
/// bytes is far above any residue and far below any modelled transfer.
const BYTES_EPS: f64 = 8.0;

#[derive(Debug, Clone)]
struct Link {
    /// Capacity in bytes/second.
    capacity: f64,
}

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
    links: Vec<LinkId>,
    rate_cap: f64,
    /// Current max-min rate (recomputed on every mutation).
    rate: f64,
}

/// One completed transfer, recorded when flow logging is enabled — the raw
/// material for per-flow telemetry spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Caller-assigned flow id.
    pub id: FlowId,
    /// When the flow started.
    pub start: SimTime,
    /// When it completed (cancelled flows are not recorded).
    pub end: SimTime,
    /// Transfer size in bytes.
    pub bytes: f64,
}

/// A fluid network: directed capacitated links shared by flows under
/// max-min fairness. See module docs.
#[derive(Debug, Clone, Default)]
pub struct Network {
    links: Vec<Link>,
    /// Ordered by id so every iteration — progress accumulation, rate
    /// freezing, float summation — visits flows in the same order on every
    /// run. A `HashMap` here made `bytes_delivered` and the max-min solve
    /// depend on hasher-randomised iteration order.
    flows: BTreeMap<FlowId, Flow>,
    last_update: SimTime,
    epoch: u64,
    bytes_delivered: f64,
    /// Completed-transfer log; `None` (the default) costs one branch per
    /// flow start/finish.
    flow_log: Option<FlowLogState>,
}

#[derive(Debug, Clone, Default)]
struct FlowLogState {
    /// Start time and size of in-flight flows (id-ordered for determinism).
    starts: BTreeMap<FlowId, (SimTime, f64)>,
    records: Vec<FlowRecord>,
}

impl Network {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a directed link with `capacity_bps` **bits**/second line rate and
    /// a goodput efficiency factor (TCP ≈ 0.94 per the paper's iperf runs).
    /// Returns its id. Capacity is stored in bytes/second of goodput.
    pub fn add_link_bps(&mut self, capacity_bps: f64, efficiency: f64) -> LinkId {
        assert!(capacity_bps > 0.0 && efficiency > 0.0 && efficiency <= 1.0);
        self.links.push(Link { capacity: capacity_bps * efficiency / 8.0 });
        LinkId(self.links.len() - 1)
    }

    /// Add a link with capacity given directly in bytes/second.
    pub fn add_link_bytes(&mut self, capacity_bytes_per_s: f64) -> LinkId {
        assert!(capacity_bytes_per_s > 0.0);
        self.links.push(Link { capacity: capacity_bytes_per_s });
        LinkId(self.links.len() - 1)
    }

    /// Goodput capacity of a link, bytes/second.
    pub fn link_capacity(&self, l: LinkId) -> f64 {
        self.links[l.0].capacity
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of in-flight flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flow is in flight.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Mutation epoch for the completion-event protocol.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total bytes delivered across all completed/ongoing flows.
    pub fn bytes_delivered(&self) -> f64 {
        self.bytes_delivered
    }

    /// Start logging completed transfers as [`FlowRecord`]s. Idempotent;
    /// flows already in flight are logged from the current instant.
    pub fn enable_flow_log(&mut self) {
        if self.flow_log.is_none() {
            let starts = self
                .flows
                .iter()
                .map(|(&id, f)| (id, (self.last_update, f.remaining)))
                .collect();
            self.flow_log = Some(FlowLogState { starts, records: Vec::new() });
        }
    }

    /// Completed transfers in completion order (ties id-ordered); empty
    /// unless [`enable_flow_log`](Self::enable_flow_log) was called.
    pub fn flow_log(&self) -> &[FlowRecord] {
        self.flow_log.as_ref().map_or(&[], |l| l.records.as_slice())
    }

    /// Current rate of a flow, bytes/second (0 if unknown).
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        self.flows.get(&id).map_or(0.0, |f| f.rate)
    }

    /// Remaining bytes of a flow, if in flight.
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.remaining)
    }

    /// Instantaneous utilisation of a link in [0, 1].
    pub fn link_utilization(&self, l: LinkId) -> f64 {
        let used: f64 = self
            .flows
            .values()
            .filter(|f| f.links.contains(&l))
            .map(|f| f.rate)
            .sum();
        (used / self.links[l.0].capacity).min(1.0)
    }

    /// Apply progress since the last update at current rates.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "network time went backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                let step = (f.rate * dt).min(f.remaining);
                f.remaining -= step;
                self.bytes_delivered += step;
            }
        }
        self.last_update = now;
    }

    /// Start a flow of `bytes` over `links` (empty = loopback, infinite
    /// rate is capped by `rate_cap`). Advances, inserts, recomputes fair
    /// shares and bumps the epoch.
    ///
    /// Panics on duplicate id, non-positive byte count, or unknown link.
    pub fn start_flow(&mut self, now: SimTime, id: FlowId, bytes: f64, links: Vec<LinkId>, rate_cap: f64) {
        assert!(bytes.is_finite() && bytes > 0.0, "invalid flow size {bytes}");
        assert!(rate_cap > 0.0);
        for l in &links {
            assert!(l.0 < self.links.len(), "unknown link {l:?}");
        }
        self.advance(now);
        let prev = self.flows.insert(id, Flow { remaining: bytes, links, rate_cap, rate: 0.0 });
        assert!(prev.is_none(), "duplicate flow id {id}");
        if let Some(log) = &mut self.flow_log {
            log.starts.insert(id, (now, bytes));
        }
        self.recompute();
        self.epoch += 1;
    }

    /// Cancel a flow; returns remaining bytes if it existed.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        let f = self.flows.remove(&id);
        if f.is_some() {
            if let Some(log) = &mut self.flow_log {
                log.starts.remove(&id);
            }
            self.recompute();
            self.epoch += 1;
        }
        f.map(|f| f.remaining)
    }

    /// Earliest-finishing flow and its completion time, if any.
    ///
    /// Completion instants round *up* (+1 ns slack) so advancing to them
    /// always clears the flow — see `BYTES_EPS`.
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "non-negative finite seconds -> ns; ceil lands past completion")]
    pub fn next_completion(&self, now: SimTime) -> Option<(FlowId, SimTime)> {
        self.flows
            .iter()
            .filter(|(_, f)| f.rate > 0.0)
            .map(|(&id, f)| (id, f.remaining / f.rate))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(id, dt)| (id, now + SimDuration((dt.max(0.0) * 1e9).ceil() as u64 + 1)))
    }

    /// Remove and return (sorted) every flow whose remaining bytes reached
    /// zero at `now`; recomputes shares and bumps the epoch if any finished.
    pub fn take_finished(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        // BTreeMap iteration is id-ordered, so `done` comes out sorted.
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.remaining <= BYTES_EPS)
            .map(|(&id, _)| id)
            .collect();
        for id in &done {
            self.flows.remove(id);
            if let Some(log) = &mut self.flow_log {
                if let Some((start, bytes)) = log.starts.remove(id) {
                    log.records.push(FlowRecord { id: *id, start, end: now, bytes });
                }
            }
        }
        if !done.is_empty() {
            self.recompute();
            self.epoch += 1;
        }
        done
    }

    /// Progressive-filling max-min fair allocation.
    ///
    /// O(iterations × links × flows); iterations ≤ number of links + flows.
    /// Flow/link counts in this codebase are small (≲ hundreds), so the
    /// simple exact algorithm beats maintaining incremental state.
    fn recompute(&mut self) {
        // Snapshot per-flow state into index-parallel vectors once. `flows`
        // is a BTreeMap, so the ids arrive sorted and every pass below is
        // order-deterministic; the solver then runs on plain vectors (no
        // map lookups, no per-freeze `links.clone()`), and the single
        // write-back at the end is the only mutation.
        let ids: Vec<FlowId> = self.flows.keys().copied().collect();
        let links_of: Vec<Vec<LinkId>> =
            ids.iter().map(|id| self.flows[id].links.clone()).collect();
        let caps: Vec<f64> = ids.iter().map(|id| self.flows[id].rate_cap).collect();
        let mut rates = vec![0.0f64; ids.len()];
        let mut frozen = vec![false; ids.len()];
        let mut link_load = vec![0.0f64; self.links.len()]; // frozen rate sum
        let mut unfrozen_count = vec![0usize; self.links.len()];
        for links in &links_of {
            for l in links {
                unfrozen_count[l.0] += 1;
            }
        }
        let mut remaining_flows = ids.len();
        while remaining_flows > 0 {
            // Fair share offered by each constraining link.
            let mut best_share = f64::INFINITY;
            for (i, link) in self.links.iter().enumerate() {
                if unfrozen_count[i] > 0 {
                    let share = (link.capacity - link_load[i]).max(0.0) / unfrozen_count[i] as f64;
                    if share < best_share {
                        best_share = share;
                    }
                }
            }
            // Flow caps may bind before any link does: freeze cap-limited
            // flows at their caps and iterate. (The cap test is against the
            // fixed `best_share`, so freezing within the pass cannot change
            // which flows qualify.)
            let mut capped_any = false;
            for k in 0..ids.len() {
                if !frozen[k] && caps[k] <= best_share {
                    rates[k] = caps[k];
                    frozen[k] = true;
                    remaining_flows -= 1;
                    capped_any = true;
                    for l in &links_of[k] {
                        link_load[l.0] += caps[k];
                        unfrozen_count[l.0] -= 1;
                    }
                }
            }
            if capped_any {
                continue;
            }
            if !best_share.is_finite() {
                // Remaining flows traverse no constrained link (loopback):
                // they run at their rate caps.
                for k in 0..ids.len() {
                    if !frozen[k] {
                        rates[k] = caps[k];
                        frozen[k] = true;
                    }
                }
                break;
            }
            // Freeze the flows on (one of) the bottleneck link(s).
            let mut froze_any = false;
            for (i, link) in self.links.iter().enumerate() {
                if unfrozen_count[i] == 0 {
                    continue;
                }
                let share = (link.capacity - link_load[i]).max(0.0) / unfrozen_count[i] as f64;
                if share <= best_share * (1.0 + 1e-12) {
                    // Freeze all unfrozen flows crossing link i.
                    for k in 0..ids.len() {
                        if frozen[k] || !links_of[k].iter().any(|l| l.0 == i) {
                            continue;
                        }
                        rates[k] = best_share;
                        frozen[k] = true;
                        remaining_flows -= 1;
                        froze_any = true;
                        for l in &links_of[k] {
                            link_load[l.0] += best_share;
                            unfrozen_count[l.0] -= 1;
                        }
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling made no progress");
            if !froze_any {
                break; // defensive: avoid an infinite loop in release builds
            }
        }
        for (k, id) in ids.iter().enumerate() {
            if let Some(f) = self.flows.get_mut(id) {
                f.rate = rates[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// One link of 10 bytes/s shared by two flows → 5 each.
    #[test]
    fn equal_share_on_single_link() {
        let mut n = Network::new();
        let l = n.add_link_bytes(10.0);
        n.start_flow(t(0.0), 1, 100.0, vec![l], f64::INFINITY);
        n.start_flow(t(0.0), 2, 100.0, vec![l], f64::INFINITY);
        assert!((n.flow_rate(1) - 5.0).abs() < 1e-9);
        assert!((n.flow_rate(2) - 5.0).abs() < 1e-9);
        assert!((n.link_utilization(l) - 1.0).abs() < 1e-9);
    }

    /// Classic max-min: flow A crosses both links, B only link1, C only
    /// link2. cap1=10, cap2=20 → A=5, B=5, C=15.
    #[test]
    fn max_min_textbook_example() {
        let mut n = Network::new();
        let l1 = n.add_link_bytes(10.0);
        let l2 = n.add_link_bytes(20.0);
        n.start_flow(t(0.0), 1, 1e9, vec![l1, l2], f64::INFINITY); // A
        n.start_flow(t(0.0), 2, 1e9, vec![l1], f64::INFINITY); // B
        n.start_flow(t(0.0), 3, 1e9, vec![l2], f64::INFINITY); // C
        assert!((n.flow_rate(1) - 5.0).abs() < 1e-9);
        assert!((n.flow_rate(2) - 5.0).abs() < 1e-9);
        assert!((n.flow_rate(3) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn flow_log_records_completed_transfers_only() {
        let mut n = Network::new();
        let l = n.add_link_bytes(10.0);
        n.enable_flow_log();
        n.enable_flow_log(); // idempotent
        n.start_flow(t(0.0), 1, 10.0, vec![l], f64::INFINITY);
        n.start_flow(t(0.0), 2, 30.0, vec![l], f64::INFINITY);
        n.start_flow(t(0.0), 3, 5.0, vec![l], f64::INFINITY);
        assert!(n.cancel(t(0.1), 3).is_some()); // cancelled → not logged
        let (_, at1) = n.next_completion(t(0.1)).unwrap();
        n.take_finished(at1);
        let (_, at2) = n.next_completion(at1).unwrap();
        n.take_finished(at2);
        let log = n.flow_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, 1);
        assert_eq!(log[0].start, t(0.0));
        assert_eq!(log[0].end, at1);
        assert!((log[0].bytes - 10.0).abs() < 1e-9);
        assert_eq!(log[1].id, 2);
        // disabled by default
        let mut m = Network::new();
        let l = m.add_link_bytes(10.0);
        m.start_flow(t(0.0), 1, 10.0, vec![l], f64::INFINITY);
        let (_, at) = m.next_completion(t(0.0)).unwrap();
        m.take_finished(at);
        assert!(m.flow_log().is_empty());
    }

    #[test]
    fn rate_cap_binds() {
        let mut n = Network::new();
        let l = n.add_link_bytes(10.0);
        n.start_flow(t(0.0), 1, 1e9, vec![l], 2.0);
        n.start_flow(t(0.0), 2, 1e9, vec![l], f64::INFINITY);
        assert!((n.flow_rate(1) - 2.0).abs() < 1e-9);
        assert!((n.flow_rate(2) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn completion_and_speedup() {
        let mut n = Network::new();
        let l = n.add_link_bytes(10.0);
        n.start_flow(t(0.0), 1, 10.0, vec![l], f64::INFINITY);
        n.start_flow(t(0.0), 2, 30.0, vec![l], f64::INFINITY);
        let (id, at) = n.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-8);
        assert_eq!(n.take_finished(at), vec![1]);
        // flow 2 has 20 left, now at 10/s → finishes at t=4
        let (id, at) = n.next_completion(at).unwrap();
        assert_eq!(id, 2);
        assert!((at.as_secs_f64() - 4.0).abs() < 1e-8);
    }

    #[test]
    fn loopback_flow_runs_at_cap() {
        let mut n = Network::new();
        n.start_flow(t(0.0), 1, 100.0, vec![], 50.0);
        assert!((n.flow_rate(1) - 50.0).abs() < 1e-9);
        let (_, at) = n.next_completion(t(0.0)).unwrap();
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-8);
    }

    #[test]
    fn cancel_releases_bandwidth() {
        let mut n = Network::new();
        let l = n.add_link_bytes(10.0);
        n.start_flow(t(0.0), 1, 100.0, vec![l], f64::INFINITY);
        n.start_flow(t(0.0), 2, 100.0, vec![l], f64::INFINITY);
        let rem = n.cancel(t(1.0), 1).unwrap();
        assert!((rem - 95.0).abs() < 1e-9);
        assert!((n.flow_rate(2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bits_to_bytes_conversion_matches_iperf() {
        let mut n = Network::new();
        // the paper's Edison NIC: 100 Mbps at 93.9 % TCP efficiency
        let l = n.add_link_bps(100.0e6, 0.939);
        // 1 GB transfer (the §4.4 iperf experiment)
        n.start_flow(t(0.0), 1, 1e9, vec![l], f64::INFINITY);
        let (_, at) = n.next_completion(t(0.0)).unwrap();
        // 1e9 bytes / (100e6*0.939/8) ≈ 85.2 s
        assert!((at.as_secs_f64() - 85.2).abs() < 0.1, "t={at}");
    }

    #[test]
    fn epoch_advances_on_every_mutation() {
        let mut n = Network::new();
        let l = n.add_link_bytes(10.0);
        let e0 = n.epoch();
        n.start_flow(t(0.0), 1, 10.0, vec![l], f64::INFINITY);
        assert!(n.epoch() > e0);
        let e1 = n.epoch();
        n.take_finished(t(1.0));
        assert!(n.epoch() > e1);
    }

    #[test]
    fn work_conservation() {
        // flows well above BYTES_EPS (real transfers are ≥ hundreds of
        // bytes; the epsilon only absorbs sub-nanosecond rate residue)
        let mut n = Network::new();
        let l = n.add_link_bytes(700.0);
        let mut now = t(0.0);
        let mut total = 0.0;
        for i in 0..20 {
            let bytes = 500.0 + 100.0 * i as f64;
            n.start_flow(now, i, bytes, vec![l], f64::INFINITY);
            total += bytes;
            now = now + SimDuration::from_millis(333);
            n.take_finished(now);
        }
        while let Some((_, at)) = n.next_completion(now) {
            now = at;
            n.take_finished(now);
        }
        assert!(n.is_empty());
        assert!(
            (n.bytes_delivered() - total).abs() < 8.0 * 20.0,
            "delivered {} vs {total}",
            n.bytes_delivered()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Max-min invariant 1: no link is over capacity.
        /// Invariant 2: every flow is bottlenecked — it either runs at its
        /// cap or crosses at least one saturated link.
        #[test]
        fn maxmin_invariants(
            caps in proptest::collection::vec(1.0f64..100.0, 1..6),
            flows in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..4), 0.5f64..200.0),
                1..12,
            ),
        ) {
            let mut n = Network::new();
            let links: Vec<LinkId> = caps.iter().map(|&c| n.add_link_bytes(c)).collect();
            let t0 = SimTime::ZERO;
            let mut used = 0u64;
            for (path, cap) in &flows {
                let mut ls: Vec<LinkId> = path
                    .iter()
                    .filter(|&&i| i < links.len())
                    .map(|&i| links[i])
                    .collect();
                // Link order is immaterial to the fluid model; a flow must
                // not list the same link twice.
                ls.sort_unstable();
                ls.dedup();
                n.start_flow(t0, used, 1e9, ls, *cap);
                used += 1;
            }
            // Invariant 1: link loads within capacity (+slack).
            for (i, &c) in caps.iter().enumerate() {
                let util = n.link_utilization(links[i]);
                prop_assert!(util <= 1.0 + 1e-9, "link {i} util {util}");
                let _ = c;
            }
            // Invariant 2: each flow is either capped or crosses a
            // saturated link.
            for id in 0..used {
                let rate = n.flow_rate(id);
                prop_assert!(rate > 0.0, "flow {id} starved");
                let capped = {
                    let f = n.remaining(id).unwrap();
                    let _ = f;
                    // recover cap from input order
                    (rate - flows[id as usize].1).abs() < 1e-6
                };
                if !capped {
                    let path = &flows[id as usize].0;
                    let mut bottlenecked = path.is_empty();
                    for &i in path {
                        if i < links.len() && n.link_utilization(links[i]) > 1.0 - 1e-6 {
                            bottlenecked = true;
                        }
                    }
                    prop_assert!(bottlenecked, "flow {id} rate {rate} neither capped nor bottlenecked");
                }
            }
        }
    }
}
