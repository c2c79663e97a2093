//! Individual-server artefacts: Tables 1–6 and 9, Figures 2–3, and the §4
//! in-text measurements.

use crate::paper;
use crate::report::{table, Comparison, Report, Series};
use edison_hw::presets;
use edison_microbench::{dhrystone, network, storage, sysbench_cpu, sysbench_mem};

/// Table 1: related-work micro-server specifications (static data).
pub fn table1() -> Report {
    let rows: Vec<Vec<String>> = presets::related_work()
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.cpu.to_string(),
                format!("{}MB", r.memory_mib),
                if r.sensor_class { "sensor".into() } else { "mobile".into() },
            ]
        })
        .collect();
    Report {
        id: "table1".into(),
        title: "Micro server specifications in related work".into(),
        body: table(&["platform", "CPU", "memory", "class"], &rows),
        comparisons: vec![],
    }
}

/// Table 2: resource ratios and nodes-to-replace arithmetic.
pub fn table2() -> Report {
    let e = presets::edison();
    let d = presets::dell_r620();
    let (cpu, ram, nic) = e.replacement_ratios(&d);
    let n = e.nodes_to_replace(&d);
    let rows = vec![
        vec!["CPU".into(), "2x500MHz".into(), "6x2GHz".into(), format!("{cpu:.0} Edison servers")],
        vec!["RAM".into(), "1GB".into(), "4x4GB".into(), format!("{ram:.0} Edison servers")],
        vec!["NIC".into(), "100Mbps".into(), "1Gbps".into(), format!("{nic:.0} Edison servers")],
    ];
    let mut body = table(&["Resource", "Edison", "Dell R620", "To Replace a Dell"], &rows);
    body.push_str(&format!("Estimated number of Edison servers: max({cpu:.0}, {ram:.0}, {nic:.0}) = {n}\n"));
    Report {
        id: "table2".into(),
        title: "Comparing Edison micro servers to Dell servers".into(),
        body,
        comparisons: vec![
            Comparison::new("CPU nameplate ratio", 12.0, cpu),
            Comparison::new("RAM ratio", 16.0, ram),
            Comparison::new("NIC ratio", 10.0, nic),
            Comparison::new("Edison nodes to replace one Dell", 16.0, n as f64),
        ],
    }
}

/// Table 3: idle/busy power of nodes and clusters.
pub fn table3() -> Report {
    let bare = presets::edison_bare().power;
    let e = presets::edison().power;
    let d = presets::dell_r620().power;
    let rows = vec![
        vec!["1 Edison without Ethernet adaptor".into(), format!("{:.2}W", bare.node_idle()), format!("{:.2}W", bare.node_busy())],
        vec!["1 Edison with Ethernet adaptor".into(), format!("{:.2}W", e.node_idle()), format!("{:.2}W", e.node_busy())],
        vec!["Edison cluster of 35 nodes".into(), format!("{:.1}W", 35.0 * e.node_idle()), format!("{:.1}W", 35.0 * e.node_busy())],
        vec!["1 Dell server".into(), format!("{:.0}W", d.node_idle()), format!("{:.0}W", d.node_busy())],
        vec!["Dell cluster of 3 nodes".into(), format!("{:.0}W", 3.0 * d.node_idle()), format!("{:.0}W", 3.0 * d.node_busy())],
    ];
    Report {
        id: "table3".into(),
        title: "Power consumption of Edison and Dell servers".into(),
        body: table(&["Server state", "Idle", "Busy"], &rows),
        comparisons: vec![
            Comparison::new("Edison cluster idle (W)", 49.0, 35.0 * e.node_idle()),
            Comparison::new("Edison cluster busy (W)", 58.8, 35.0 * e.node_busy()),
            Comparison::new("Dell cluster idle (W)", 156.0, 3.0 * d.node_idle()),
            Comparison::new("Dell cluster busy (W)", 327.0, 3.0 * d.node_busy()),
        ],
    }
}

/// Table 4: software versions (static metadata, documentation parity).
pub fn table4() -> Report {
    let rows: Vec<Vec<String>> = [
        ("Dhrystone", "2.1", "2.1"),
        ("dd", "8.13", "8.4"),
        ("ioping", "0.9.35", "0.9.35"),
        ("iperf3", "3.1", "3.1"),
        ("Sysbench", "0.5", "0.5"),
        ("PHP", "5.4.41", "5.3.3"),
        ("Lighttpd", "1.4.31", "1.4.35"),
        ("Memcached", "1.0.8", "0.31"),
        ("Hadoop", "2.5.0", "2.5.0"),
        ("MySQL", "5.5.44", "5.1.73"),
        ("HAProxy", "1.5.8", "1.5.2"),
    ]
    .iter()
    .map(|(s, e, d)| vec![s.to_string(), e.to_string(), d.to_string()])
    .collect();
    Report {
        id: "table4".into(),
        title: "Test softwares".into(),
        body: table(&["Software", "Version on Edison", "Version on Dell"], &rows),
        comparisons: vec![],
    }
}

/// §4.1 Dhrystone DMIPS.
pub fn sec41_dmips() -> Report {
    let e = dhrystone::run(&presets::edison(), 100_000_000);
    let d = dhrystone::run(&presets::dell_r620(), 100_000_000);
    let body = format!(
        "Edison: {:.1} DMIPS ({:.1} s for 100M runs)\nDell:   {:.1} DMIPS ({:.1} s for 100M runs)\nsingle-thread gap: {:.1}x (Edison core at {:.1}% of a Dell core)\n",
        e.dmips,
        e.seconds,
        d.dmips,
        d.seconds,
        d.dmips / e.dmips,
        100.0 * e.dmips / d.dmips,
    );
    Report {
        id: "sec41_dmips".into(),
        title: "Dhrystone CPU test (Section 4.1)".into(),
        body,
        comparisons: vec![
            Comparison::new("Edison DMIPS", paper::DMIPS.0, e.dmips),
            Comparison::new("Dell DMIPS", paper::DMIPS.1, d.dmips),
        ],
    }
}

/// Figures 2 and 3: sysbench CPU total/response time vs threads.
pub fn fig02_03() -> Report {
    let e = sysbench_cpu::sweep(&presets::edison());
    let d = sysbench_cpu::sweep(&presets::dell_r620());
    let series = vec![
        Series { label: "edison total (s)".into(), points: e.iter().map(|r| (r.threads as f64, r.total_seconds)).collect() },
        Series { label: "edison resp (ms)".into(), points: e.iter().map(|r| (r.threads as f64, r.avg_response_ms)).collect() },
        Series { label: "dell total (s)".into(), points: d.iter().map(|r| (r.threads as f64, r.total_seconds)).collect() },
        Series { label: "dell resp (ms)".into(), points: d.iter().map(|r| (r.threads as f64, r.avg_response_ms)).collect() },
    ];
    Report {
        id: "fig02_03".into(),
        title: "Sysbench CPU test, Edison (Fig 2) and Dell (Fig 3)".into(),
        body: crate::report::series_table("threads", &series),
        comparisons: vec![
            Comparison::new("Edison 1-thread total (s)", 600.0, e[0].total_seconds),
            Comparison::new("single-thread ratio", 16.5, e[0].total_seconds / d[0].total_seconds),
            Comparison::new("Dell 8-thread resp (ms)", 4.0, d[3].avg_response_ms),
        ],
    }
}

/// §4.2 memory-bandwidth sweep.
pub fn sec42_membw() -> Report {
    let e = sysbench_mem::sweep(&presets::edison());
    let d = sysbench_mem::sweep(&presets::dell_r620());
    let body = format!(
        "Edison: peak {:.2} GB/s, saturates at {} threads, {} KiB blocks\nDell:   peak {:.1} GB/s, saturates at {} threads, {} KiB blocks\ngap: {:.1}x\n",
        e.peak / 1e9,
        e.saturation_threads,
        e.saturation_block / 1024,
        d.peak / 1e9,
        d.saturation_threads,
        d.saturation_block / 1024,
        d.peak / e.peak,
    );
    Report {
        id: "sec42_membw".into(),
        title: "Sysbench memory bandwidth (Section 4.2)".into(),
        body,
        comparisons: vec![
            Comparison::new("Edison peak (GB/s)", paper::MEM_BW_GBPS.0, e.peak / 1e9),
            Comparison::new("Dell peak (GB/s)", paper::MEM_BW_GBPS.1, d.peak / 1e9),
            Comparison::new("Edison saturation threads", 2.0, e.saturation_threads as f64),
            Comparison::new("Dell saturation threads", 12.0, d.saturation_threads as f64),
        ],
    }
}

/// Table 5: storage throughput and latency.
pub fn table5() -> Report {
    let e = storage::table5(&presets::edison());
    let d = storage::table5(&presets::dell_r620());
    let rows = vec![
        vec!["Write throughput".into(), format!("{:.1} MB/s", e.write_mbps), format!("{:.1} MB/s", d.write_mbps)],
        vec!["Buffered write throughput".into(), format!("{:.1} MB/s", e.buffered_write_mbps), format!("{:.1} MB/s", d.buffered_write_mbps)],
        vec!["Read throughput".into(), format!("{:.1} MB/s", e.read_mbps), format!("{:.1} MB/s", d.read_mbps)],
        vec!["Buffered read throughput".into(), format!("{:.0} MB/s", e.buffered_read_mbps), format!("{:.0} MB/s", d.buffered_read_mbps)],
        vec!["Write latency".into(), format!("{:.1} ms", e.write_latency_ms), format!("{:.2} ms", d.write_latency_ms)],
        vec!["Read latency".into(), format!("{:.1} ms", e.read_latency_ms), format!("{:.3} ms", d.read_latency_ms)],
    ];
    Report {
        id: "table5".into(),
        title: "Storage I/O test comparison".into(),
        body: table(&["", "Edison", "Dell"], &rows),
        comparisons: vec![
            Comparison::new("Edison read (MB/s)", paper::table5::READ.0, e.read_mbps),
            Comparison::new("Dell read (MB/s)", paper::table5::READ.1, d.read_mbps),
            Comparison::new("Edison buffered write (MB/s)", paper::table5::BUFFERED_WRITE.0, e.buffered_write_mbps),
            Comparison::new("Dell buffered write (MB/s)", paper::table5::BUFFERED_WRITE.1, d.buffered_write_mbps),
            Comparison::new("Edison write latency (ms)", paper::table5::WRITE_LATENCY.0, e.write_latency_ms),
            Comparison::new("Dell read latency (ms)", paper::table5::READ_LATENCY.1, d.read_latency_ms),
        ],
    }
}

/// §4.4 network tests: iperf throughput and ping RTTs.
pub fn sec44_net() -> Report {
    use network::{iperf, ping_rtt_ms, Pair, Proto};
    let e = presets::edison();
    let d = presets::dell_r620();
    let gb = 1_000_000_000;
    let mut rows = Vec::new();
    let mut comparisons = Vec::new();
    for (pair, label) in [
        (Pair::DellToDell, "Dell to Dell"),
        (Pair::DellToEdison, "Dell to Edison"),
        (Pair::EdisonToEdison, "Edison to Edison"),
    ] {
        let tcp = iperf(pair, Proto::Tcp, gb, &e, &d);
        let udp = iperf(pair, Proto::Udp, gb, &e, &d);
        let rtt = ping_rtt_ms(pair, &e, &d);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", tcp.mbits_per_sec),
            format!("{:.1}", udp.mbits_per_sec),
            format!("{rtt:.2}"),
        ]);
        let (ptcp, pudp, prtt) = match pair {
            Pair::DellToDell => (paper::IPERF_DELL_TCP, paper::IPERF_DELL_UDP, paper::PING_MS.0),
            Pair::DellToEdison => (paper::IPERF_EDISON_TCP, paper::IPERF_EDISON_UDP, paper::PING_MS.1),
            Pair::EdisonToEdison => (paper::IPERF_EDISON_TCP, paper::IPERF_EDISON_UDP, paper::PING_MS.2),
        };
        comparisons.push(Comparison::new(format!("{label} TCP (Mbit/s)"), ptcp, tcp.mbits_per_sec));
        comparisons.push(Comparison::new(format!("{label} UDP (Mbit/s)"), pudp, udp.mbits_per_sec));
        comparisons.push(Comparison::new(format!("{label} ping RTT (ms)"), prtt, rtt));
    }
    Report {
        id: "sec44_net".into(),
        title: "Network iperf/ping tests (Section 4.4)".into(),
        body: table(&["pair", "TCP Mbit/s", "UDP Mbit/s", "RTT ms"], &rows),
        comparisons,
    }
}

/// Table 6: cluster configuration and scale factors (static).
pub fn table6() -> Report {
    use edison_web::{ClusterScale, Platform, WebScenario};
    let scales = [
        (ClusterScale::Full, "Full"),
        (ClusterScale::Half, "1/2"),
        (ClusterScale::Quarter, "1/4"),
        (ClusterScale::Eighth, "1/8"),
    ];
    let mut rows = Vec::new();
    for (label, pick) in [
        ("# Edison web servers", 0usize),
        ("# Edison cache servers", 1),
        ("# Dell web servers", 2),
        ("# Dell cache servers", 3),
    ] {
        let mut row = vec![label.to_string()];
        for (scale, _) in scales {
            let platform = if pick < 2 { Platform::Edison } else { Platform::Dell };
            let cell = match WebScenario::table6(platform, scale) {
                Some(s) => if pick % 2 == 0 { s.web_servers } else { s.cache_servers }.to_string(),
                None => "N/A".into(),
            };
            row.push(cell);
        }
        rows.push(row);
    }
    Report {
        id: "table6".into(),
        title: "Cluster configuration and scale factor".into(),
        body: table(&["Cluster size", "Full", "1/2", "1/4", "1/8"], &rows),
        comparisons: vec![],
    }
}

/// Table 9: TCO notations and values (static constants check).
pub fn table9() -> Report {
    let e = presets::edison();
    let d = presets::dell_r620();
    let rows = vec![
        vec!["Cs,Edison".into(), "Cost of 1 Edison node".into(), format!("${:.0}", e.unit_cost_usd)],
        vec!["Cs,Dell".into(), "Cost of 1 Dell server".into(), format!("${:.0}", d.unit_cost_usd)],
        vec!["Ceph".into(), "Cost of electricity".into(), format!("${:.2}/kWh", edison_tco::ELECTRICITY_PER_KWH)],
        vec!["Ts".into(), "Server lifetime".into(), format!("{:.0} years", edison_tco::LIFETIME_YEARS)],
        vec!["Uh".into(), "High utilization rate".into(), format!("{:.0}%", edison_tco::U_HIGH * 100.0)],
        vec!["Ul".into(), "Low utilization rate".into(), format!("{:.0}%", edison_tco::U_LOW * 100.0)],
        vec!["Pp,Dell".into(), "Peak power of 1 Dell".into(), format!("{:.0}W", d.power.node_busy())],
        vec!["Pp,Edison".into(), "Peak power of 1 Edison".into(), format!("{:.2}W", e.power.node_busy())],
        vec!["Pi,Dell".into(), "Idle power of 1 Dell".into(), format!("{:.0}W", d.power.node_idle())],
        vec!["Pi,Edison".into(), "Idle power of 1 Edison".into(), format!("{:.2}W", e.power.node_idle())],
    ];
    Report {
        id: "table9".into(),
        title: "TCO notations and values".into(),
        body: table(&["Notation", "Description", "Value"], &rows),
        comparisons: vec![
            Comparison::new("Edison node cost ($)", 120.0, e.unit_cost_usd),
            Comparison::new("Dell node cost ($)", 2500.0, d.unit_cost_usd),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        for r in [table1(), table2(), table3(), table4(), table6(), table9()] {
            assert!(!r.body.is_empty());
            assert!(!r.id.is_empty());
        }
    }

    #[test]
    fn measured_sections_are_close_to_paper() {
        for r in [sec41_dmips(), sec42_membw(), table5(), sec44_net()] {
            for c in &r.comparisons {
                let ratio = c.ratio();
                assert!(
                    (0.9..1.1).contains(&ratio),
                    "{} in {}: ratio {ratio}",
                    c.metric,
                    r.id
                );
            }
        }
    }

    #[test]
    fn fig02_03_comparisons_within_band() {
        let r = fig02_03();
        for c in &r.comparisons {
            assert!((0.8..1.25).contains(&c.ratio()), "{}: {}", c.metric, c.ratio());
        }
    }
}
