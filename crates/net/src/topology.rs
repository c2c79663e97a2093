//! The testbed topology of the paper; its links live in the [`LinkGauge`] it
//! owns.
//!
//! * every **host** gets a full-duplex pair of NIC links (up = egress,
//!   down = ingress) at its line rate;
//! * hosts are grouped under non-blocking **top-of-rack switches** (the
//!   paper's Edison boxes each hold a switch; the Dell rack has its own);
//! * **groups** are joined by explicit uplinks (the 1 Gbps inter-room link
//!   that caps client→Edison aggregate bandwidth in §5.1.2's fairness
//!   discussion);
//! * one-way propagation latencies are per group pair, from the paper's
//!   ping round trips.

use crate::gauge::{LinkGauge, LinkId};
use edison_simcore::time::SimDuration;
use std::ops::Deref;

/// Index of a switch group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// Index of a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

#[derive(Debug, Clone)]
struct Host {
    group: GroupId,
    up: LinkId,
    down: LinkId,
}

/// The links a transfer crosses, in order: empty for loopback, `[up,
/// down]` within a group, `[up, uplink, down]` across groups. Stored
/// inline and `Copy`, so asking for a path allocates nothing; it derefs
/// to `&[LinkId]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    links: [LinkId; 3],
    len: u8,
}

impl Path {
    const LOOPBACK: Path = Path { links: [LinkId(0); 3], len: 0 };

    fn two(a: LinkId, b: LinkId) -> Path {
        Path { links: [a, b, LinkId(0)], len: 2 }
    }

    fn three(a: LinkId, b: LinkId, c: LinkId) -> Path {
        Path { links: [a, b, c], len: 3 }
    }
}

impl Deref for Path {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        &self.links[..usize::from(self.len)]
    }
}

/// A grouped-star topology with per-pair latencies. See module docs.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    gauge: LinkGauge,
    hosts: Vec<Host>,
    /// One-way latency within a group, indexed by [`GroupId`].
    intra_latency: Vec<SimDuration>,
    /// Uplink (directed, one per direction) and one-way latency per
    /// ordered pair, a square table indexed `[from][to]`; `None` when not
    /// connected.
    interconnect: Vec<Vec<Option<(LinkId, SimDuration)>>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a switch group whose hosts see `one_way_latency` to each other.
    pub fn add_group(&mut self, one_way_latency: SimDuration) -> GroupId {
        self.intra_latency.push(one_way_latency);
        let groups = self.intra_latency.len();
        for row in &mut self.interconnect {
            row.push(None);
        }
        self.interconnect.push(vec![None; groups]);
        GroupId(groups - 1)
    }

    /// Add a host to `group` with the given NIC line rate (bits/s) and
    /// goodput efficiency.
    pub fn add_host(&mut self, group: GroupId, nic_bps: f64, efficiency: f64) -> HostId {
        assert!(group.0 < self.intra_latency.len(), "unknown group");
        let up = self.gauge.add_link_bps(nic_bps, efficiency);
        let down = self.gauge.add_link_bps(nic_bps, efficiency);
        self.hosts.push(Host { group, up, down });
        HostId(self.hosts.len() - 1)
    }

    /// Join two groups with a bidirectional uplink of `capacity_bps`
    /// (modelled as one directed link per direction) and a one-way latency.
    pub fn connect_groups(
        &mut self,
        a: GroupId,
        b: GroupId,
        capacity_bps: f64,
        efficiency: f64,
        one_way_latency: SimDuration,
    ) {
        let ab = self.gauge.add_link_bps(capacity_bps, efficiency);
        let ba = self.gauge.add_link_bps(capacity_bps, efficiency);
        self.interconnect[a.0][b.0] = Some((ab, one_way_latency));
        self.interconnect[b.0][a.0] = Some((ba, one_way_latency));
    }

    /// The directed uplink and one-way latency from group `from` to `to`.
    ///
    /// Panics if the groups are not connected.
    #[expect(clippy::panic, reason = "documented contract: builders connect every group pair before routing")]
    fn interconnect(&self, from: GroupId, to: GroupId) -> (LinkId, SimDuration) {
        self.interconnect[from.0][to.0]
            .unwrap_or_else(|| panic!("groups {from:?} and {to:?} not connected"))
    }

    /// The link path and one-way latency from `src` to `dst`.
    ///
    /// Same group: src-up → dst-down (non-blocking switch). Different
    /// groups: src-up → uplink → dst-down. Loopback (src == dst): empty
    /// path, zero latency (the kernel's loopback never hits the NIC).
    ///
    /// Panics if the groups are not connected.
    #[inline]
    pub fn path(&self, src: HostId, dst: HostId) -> (Path, SimDuration) {
        if src == dst {
            return (Path::LOOPBACK, SimDuration::ZERO);
        }
        let s = &self.hosts[src.0];
        let d = &self.hosts[dst.0];
        if s.group == d.group {
            (Path::two(s.up, d.down), self.intra_latency[s.group.0])
        } else {
            let (uplink, lat) = self.interconnect(s.group, d.group);
            (Path::three(s.up, uplink, d.down), lat)
        }
    }

    /// One-way latency between two hosts.
    #[inline]
    pub fn latency(&self, src: HostId, dst: HostId) -> SimDuration {
        self.path(src, dst).1
    }

    /// Round-trip latency between two hosts (the paper reports pings).
    #[inline]
    pub fn rtt(&self, src: HostId, dst: HostId) -> SimDuration {
        let l = self.latency(src, dst);
        l + l
    }

    /// The links' gauge, for admitting and releasing transfers.
    pub fn gauge_mut(&mut self) -> &mut LinkGauge {
        &mut self.gauge
    }

    /// The egress link of a host.
    #[cfg(test)]
    fn uplink(&self, h: HostId) -> LinkId {
        self.hosts[h.0].up
    }

    /// The ingress link of a host.
    #[cfg(test)]
    fn downlink(&self, h: HostId) -> LinkId {
        self.hosts[h.0].down
    }

    /// The group a host belongs to.
    #[cfg(test)]
    fn group_of(&self, h: HostId) -> GroupId {
        self.hosts[h.0].group
    }
}

/// Build the paper's two-room testbed fabric:
/// an Edison room (ToR per box, modelled as one non-blocking group with the
/// measured 1.3 ms intra-RTT) and a Dell room (0.24 ms intra-RTT) holding
/// both the Dell servers and the client machines, joined by a 1 Gbps link
/// (0.8 ms cross RTT).
pub struct TwoRooms {
    /// The assembled topology.
    pub topo: Topology,
    /// Edison room group.
    pub edison_room: GroupId,
    /// Dell room group (servers + clients).
    pub dell_room: GroupId,
}

impl TwoRooms {
    /// Create the fabric with no hosts yet.
    pub fn new() -> Self {
        let mut topo = Topology::new();
        // one-way latencies = half the measured ping RTTs (§4.4)
        let edison_room = topo.add_group(SimDuration::from_micros(650));
        let dell_room = topo.add_group(SimDuration::from_micros(120));
        topo.connect_groups(
            edison_room,
            dell_room,
            1.0e9,
            0.942,
            SimDuration::from_micros(400),
        );
        TwoRooms { topo, edison_room, dell_room }
    }
}

impl Default for TwoRooms {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_group_path_uses_two_links() {
        let mut rooms = TwoRooms::new();
        let a = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
        let b = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
        let (path, lat) = rooms.topo.path(a, b);
        assert_eq!(path.len(), 2);
        assert_eq!(lat, SimDuration::from_micros(650));
    }

    #[test]
    fn cross_group_path_adds_uplink() {
        let mut rooms = TwoRooms::new();
        let e = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
        let d = rooms.topo.add_host(rooms.dell_room, 1e9, 0.942);
        let (path, lat) = rooms.topo.path(e, d);
        assert_eq!(path.len(), 3);
        assert_eq!(lat, SimDuration::from_micros(400));
        // RTT matches the paper's 0.8 ms Dell↔Edison ping
        assert_eq!(rooms.topo.rtt(e, d), SimDuration::from_micros(800));
    }

    #[test]
    fn loopback_is_free() {
        let mut rooms = TwoRooms::new();
        let a = rooms.topo.add_host(rooms.dell_room, 1e9, 0.942);
        let (path, lat) = rooms.topo.path(a, a);
        assert!(path.is_empty());
        assert_eq!(lat, SimDuration::ZERO);
    }

    #[test]
    fn edison_to_edison_bandwidth_is_nic_bound() {
        // §4.4: Edison↔Edison transfers run at the 100 Mbps NIC rate even
        // though the switches are 1 Gbps.
        let mut rooms = TwoRooms::new();
        let a = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
        let b = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
        let (path, _) = rooms.topo.path(a, b);
        let took = rooms.topo.gauge_mut().begin_transfer(&path, 1e9);
        // 1 GB at 93.9 Mbit/s ≈ 85 s — matches the iperf result shape
        assert!((took.as_secs_f64() - 85.2).abs() < 0.2, "took {took:?}");
    }

    #[test]
    fn interroom_uplink_caps_aggregate() {
        // 24 Edison hosts each sending to a Dell-room client share 1 Gbps:
        // past the tenth admission the uplink share drops below the NIC
        // rate, and the 24th flow gets ~39 Mbit/s of it.
        let mut rooms = TwoRooms::new();
        let mut paths = vec![];
        for _ in 0..24 {
            let e = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
            let c = rooms.topo.add_host(rooms.dell_room, 1e9, 0.942);
            paths.push(rooms.topo.path(e, c).0);
        }
        // the k-th admission is frozen at min(NIC, uplink / k)
        let (nic, uplink) = (100e6 * 0.939 / 8.0, 1e9 * 0.942 / 8.0);
        for (k, path) in (1..).zip(&paths) {
            let rate = rooms.topo.gauge_mut().begin(path);
            let want = f64::min(nic, uplink / f64::from(k));
            assert!((rate - want).abs() / want < 1e-12, "flow {k}: rate {rate} vs {want}");
        }
    }

    #[test]
    fn bits_to_bytes_conversion_matches_iperf() {
        // Each link holds bps × efficiency / 8 bytes/s of goodput (the
        // iperf rate), which a lone flow on the idle link gets in full.
        let mut rooms = TwoRooms::new();
        // the paper's Edison NIC: 100 Mbps at 93.9 % TCP efficiency
        let e = rooms.topo.add_host(rooms.edison_room, 100e6, 0.939);
        let d = rooms.topo.add_host(rooms.dell_room, 1e9, 0.942);
        let uplink = rooms.topo.interconnect(rooms.edison_room, rooms.dell_room).0;
        let links = [
            (rooms.topo.uplink(e), 100e6 * 0.939),
            (rooms.topo.downlink(e), 100e6 * 0.939),
            (rooms.topo.uplink(d), 1e9 * 0.942),
            (rooms.topo.downlink(d), 1e9 * 0.942),
            (uplink, 1e9 * 0.942),
        ];
        let gauge = rooms.topo.gauge_mut();
        for (l, goodput_bps) in links {
            assert_eq!(gauge.begin(&[l]), goodput_bps / 8.0, "{l:?}");
            gauge.end(&[l]);
        }
    }

    /// A populated two-room fabric: three Edison and four Dell-room hosts.
    fn populated() -> (TwoRooms, Vec<HostId>) {
        let mut rooms = TwoRooms::new();
        let mut hosts = Vec::new();
        for _ in 0..3 {
            hosts.push(rooms.topo.add_host(rooms.edison_room, 100e6, 0.939));
        }
        for _ in 0..4 {
            hosts.push(rooms.topo.add_host(rooms.dell_room, 1e9, 0.942));
        }
        (rooms, hosts)
    }

    #[test]
    fn every_pair_sees_its_room_latency_and_rtt_is_twice_it() {
        let (rooms, hosts) = populated();
        let topo = &rooms.topo;
        for &a in &hosts {
            for &b in &hosts {
                let (ga, gb) = (topo.group_of(a), topo.group_of(b));
                let want = match (a == b, ga == gb, ga == rooms.edison_room) {
                    (true, _, _) => 0,
                    (false, true, true) => 650,
                    (false, true, false) => 120,
                    (false, false, _) => 400,
                };
                let lat = topo.latency(a, b);
                assert_eq!(lat, SimDuration::from_micros(want), "{a:?} -> {b:?}");
                assert_eq!(topo.rtt(a, b), lat + lat, "{a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn path_derefs_to_the_link_sequence() {
        let (rooms, hosts) = populated();
        let topo = &rooms.topo;
        let (e0, e1, d0) = (hosts[0], hosts[1], hosts[3]);
        let (same, _) = topo.path(e0, e1);
        assert_eq!(&*same, &[topo.uplink(e0), topo.downlink(e1)]);
        let (cross, _) = topo.path(e0, d0);
        // the Edison → Dell uplink is the first link connect_groups added
        let uplink = topo.interconnect(rooms.edison_room, rooms.dell_room).0;
        assert_eq!(&*cross, &[topo.uplink(e0), uplink, topo.downlink(d0)]);
        let (back, _) = topo.path(d0, e0);
        assert_ne!(back[1], uplink, "each direction has its own uplink");
        assert_eq!(&*topo.path(d0, d0).0, &[] as &[LinkId]);
        assert_eq!(same.to_vec(), vec![topo.uplink(e0), topo.downlink(e1)]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_groups_panic() {
        let mut topo = Topology::new();
        let g1 = topo.add_group(SimDuration::ZERO);
        let g2 = topo.add_group(SimDuration::ZERO);
        let a = topo.add_host(g1, 1e9, 1.0);
        let b = topo.add_host(g2, 1e9, 1.0);
        topo.path(a, b);
    }
}
