//! `iperf3` and `ping` network tests (§4.4).
//!
//! The paper transfers 1 GB over TCP and UDP between three node pairs
//! (Dell↔Dell, Dell↔Edison, Edison↔Edison) and pings each pair. We build
//! the two-room fabric with the pair's two hosts and time one transfer on
//! the idle links: it runs at the path's bottleneck goodput.

use edison_hw::ServerSpec;
use edison_net::topology::TwoRooms;
use edison_net::{GroupId, HostId, Topology};

/// Protocol used for the iperf transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    Tcp,
    Udp,
}

/// The three pairs of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pair {
    DellToDell,
    DellToEdison,
    EdisonToEdison,
}

/// Result of an iperf transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct IperfResult {
    pub pair: Pair,
    pub proto: Proto,
    /// Bytes transferred (the paper: 1 GB).
    pub bytes: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Goodput, Mbit/s — the unit the paper reports.
    pub mbits_per_sec: f64,
}

/// The two-room fabric holding `pair`'s source and destination hosts, each
/// NIC at its line rate and the goodput efficiency `eff` gives its spec.
fn pair_hosts(
    pair: Pair,
    edison: &ServerSpec,
    dell: &ServerSpec,
    eff: impl Fn(&ServerSpec) -> f64,
) -> (Topology, HostId, HostId) {
    let TwoRooms { mut topo, edison_room, dell_room } = TwoRooms::new();
    let (src, dst) = match pair {
        Pair::DellToDell => ((dell, dell_room), (dell, dell_room)),
        Pair::DellToEdison => ((dell, dell_room), (edison, edison_room)),
        Pair::EdisonToEdison => ((edison, edison_room), (edison, edison_room)),
    };
    let mut add = |(spec, room): (&ServerSpec, GroupId)| topo.add_host(room, spec.nic.line_rate_bps, eff(spec));
    let (src, dst) = (add(src), add(dst));
    (topo, src, dst)
}

/// Run one iperf transfer of `bytes` between the given pair.
pub fn iperf(pair: Pair, proto: Proto, bytes: u64, edison: &ServerSpec, dell: &ServerSpec) -> IperfResult {
    let (mut topo, src, dst) = pair_hosts(pair, edison, dell, |spec| match proto {
        Proto::Tcp => spec.nic.tcp_efficiency,
        Proto::Udp => spec.nic.udp_efficiency,
    });
    let (path, latency) = topo.path(src, dst);
    let transfer = topo.gauge_mut().begin_transfer(&path, bytes as f64);
    let seconds = (transfer + latency).as_secs_f64();
    IperfResult {
        pair,
        proto,
        bytes,
        seconds,
        mbits_per_sec: bytes as f64 * 8.0 / seconds / 1e6,
    }
}

/// Ping RTT between a pair, milliseconds.
pub fn ping_rtt_ms(pair: Pair, edison: &ServerSpec, dell: &ServerSpec) -> f64 {
    let (topo, src, dst) = pair_hosts(pair, edison, dell, |_| 1.0);
    topo.rtt(src, dst).as_millis_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn dell_to_dell_tcp_is_942_mbps() {
        let r = iperf(Pair::DellToDell, Proto::Tcp, GB, &presets::edison(), &presets::dell_r620());
        assert!((r.mbits_per_sec - 942.0).abs() < 2.0, "{}", r.mbits_per_sec);
    }

    #[test]
    fn dell_to_dell_udp_is_948_mbps() {
        let r = iperf(Pair::DellToDell, Proto::Udp, GB, &presets::edison(), &presets::dell_r620());
        assert!((r.mbits_per_sec - 948.0).abs() < 2.0, "{}", r.mbits_per_sec);
    }

    #[test]
    fn edison_paths_cap_at_94_mbps() {
        for pair in [Pair::DellToEdison, Pair::EdisonToEdison] {
            let tcp = iperf(pair, Proto::Tcp, GB, &presets::edison(), &presets::dell_r620());
            assert!((tcp.mbits_per_sec - 93.9).abs() < 0.5, "{:?} {}", pair, tcp.mbits_per_sec);
            let udp = iperf(pair, Proto::Udp, GB, &presets::edison(), &presets::dell_r620());
            assert!((udp.mbits_per_sec - 94.8).abs() < 0.5, "{:?} {}", pair, udp.mbits_per_sec);
        }
    }

    #[test]
    fn ping_rtts_match_section_4_4() {
        let e = presets::edison();
        let d = presets::dell_r620();
        assert!((ping_rtt_ms(Pair::DellToDell, &e, &d) - 0.24).abs() < 0.01);
        assert!((ping_rtt_ms(Pair::DellToEdison, &e, &d) - 0.8).abs() < 0.01);
        assert!((ping_rtt_ms(Pair::EdisonToEdison, &e, &d) - 1.3).abs() < 0.01);
    }

    #[test]
    fn network_gap_is_10x() {
        let d = iperf(Pair::DellToDell, Proto::Tcp, GB, &presets::edison(), &presets::dell_r620());
        let e = iperf(Pair::EdisonToEdison, Proto::Tcp, GB, &presets::edison(), &presets::dell_r620());
        let gap = d.mbits_per_sec / e.mbits_per_sec;
        assert!((gap - 10.0).abs() < 0.2, "gap {gap}");
    }
}
