//! `dd` and `ioping` storage tests (§4.3, Table 5).
//!
//! `dd` streams a large file through the node's FCFS disk queue in
//! `bs`-sized requests — with `oflag=dsync` every block commits before the
//! next is issued (direct path), otherwise the page cache absorbs writes at
//! the buffered rate. `ioping` issues one small random I/O and reports its
//! latency.

use edison_cluster::{Node, NodeId};
use edison_hw::ServerSpec;
use edison_simcore::time::SimTime;

/// Direction + caching mode of a dd run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdMode {
    /// `oflag=dsync` write: every block waits for the medium.
    DirectWrite,
    /// Page-cache write-back.
    BufferedWrite,
    /// Read with caches dropped.
    DirectRead,
    /// Read served from the page cache.
    BufferedRead,
}

/// Result of a dd streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct DdResult {
    pub mode: DdMode,
    /// Total bytes streamed.
    pub bytes: u64,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Observed throughput, bytes/s.
    pub throughput: f64,
}

/// Stream `bytes` in `block`-sized requests through a fresh node of `spec`.
pub fn dd(spec: &ServerSpec, mode: DdMode, bytes: u64, block: u64) -> DdResult {
    assert!(block > 0 && bytes >= block);
    let mut node = Node::new(NodeId(0), spec.clone());
    let blocks = bytes / block;
    let mut now = SimTime::ZERO;
    // dd issues blocks sequentially: each service time includes the device
    // latency only when the request actually reaches the medium. Buffered
    // streams amortise the latency (write-back / read-ahead), which we model
    // as one latency charge up front.
    let per_block = |n: &Node, with_latency: bool| {
        let t = match mode {
            DdMode::DirectWrite => n.disk_write_time(block, true),
            DdMode::BufferedWrite => n.disk_write_time(block, false),
            DdMode::DirectRead => n.disk_read_time(block, false),
            DdMode::BufferedRead => n.disk_read_time(block, true),
        };
        if with_latency {
            t
        } else {
            let lat = match mode {
                DdMode::DirectWrite | DdMode::BufferedWrite => n.spec().storage.write_latency_s,
                DdMode::DirectRead | DdMode::BufferedRead => n.spec().storage.read_latency_s,
            };
            edison_simcore::SimDuration::from_secs_f64(t.as_secs_f64() - lat)
        }
    };
    let amortised = matches!(mode, DdMode::BufferedWrite | DdMode::BufferedRead | DdMode::DirectRead);
    for i in 0..blocks {
        // Direct writes pay the sync latency per block; buffered paths and
        // sequential reads (read-ahead) pay it once.
        let with_latency = !amortised || i == 0;
        let service = per_block(&node, with_latency);
        let scheduled = node.disk().submit(now, i, service);
        #[expect(clippy::expect_used, reason = "each block is submitted after the previous one completed")]
        let (_, done) = scheduled.expect("sequential dd never queues");
        node.disk().complete(done);
        now = done;
    }
    let seconds = now.as_secs_f64();
    DdResult { mode, bytes, seconds, throughput: bytes as f64 / seconds }
}

/// Result of an ioping latency probe.
#[derive(Debug, Clone, PartialEq)]
pub struct IopingResult {
    /// Random-read latency, seconds.
    pub read_latency: f64,
    /// Random-write latency, seconds.
    pub write_latency: f64,
}

/// Probe random I/O latency (small random requests hitting the medium;
/// the reported figure is dominated by the access latency itself).
pub fn ioping(spec: &ServerSpec) -> IopingResult {
    let node = Node::new(NodeId(0), spec.clone());
    let block = 1024;
    IopingResult {
        read_latency: node.disk_read_time(block, false).as_secs_f64(),
        write_latency: node.disk_write_time(block, true).as_secs_f64(),
    }
}

/// The full Table 5 for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    pub platform: String,
    pub write_mbps: f64,
    pub buffered_write_mbps: f64,
    pub read_mbps: f64,
    pub buffered_read_mbps: f64,
    pub write_latency_ms: f64,
    pub read_latency_ms: f64,
}

/// Run every Table 5 cell for `spec` (256 MiB streams, 1 MiB blocks — large
/// enough that the one-off latency charge is negligible).
pub fn table5(spec: &ServerSpec) -> Table5Row {
    let sz = 256 * 1024 * 1024;
    let blk = 1024 * 1024;
    let mb = 1e6;
    let io = ioping(spec);
    Table5Row {
        platform: spec.name.clone(),
        write_mbps: dd(spec, DdMode::DirectWrite, sz, blk).throughput / mb,
        buffered_write_mbps: dd(spec, DdMode::BufferedWrite, sz, blk).throughput / mb,
        read_mbps: dd(spec, DdMode::DirectRead, sz, blk).throughput / mb,
        buffered_read_mbps: dd(spec, DdMode::BufferedRead, sz, blk).throughput / mb,
        write_latency_ms: io.write_latency * 1e3,
        read_latency_ms: io.read_latency * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    #[test]
    fn edison_row_matches_table5() {
        let r = table5(&presets::edison());
        assert!((r.read_mbps - 19.5).abs() < 0.6, "read {}", r.read_mbps);
        assert!((r.buffered_read_mbps - 737.0).abs() < 25.0);
        assert!((r.buffered_write_mbps - 9.3).abs() < 0.3);
        assert!((r.write_latency_ms - 18.0).abs() < 0.3);
        assert!((r.read_latency_ms - 7.0).abs() < 0.2);
        // direct write pays 18 ms per 1 MiB block: throughput drops below
        // the raw 4.5 MB/s medium rate, as dsync dd does in practice.
        assert!(r.write_mbps <= 4.5);
    }

    #[test]
    fn dell_row_matches_table5() {
        let r = table5(&presets::dell_r620());
        assert!((r.read_mbps - 86.1).abs() < 1.0);
        assert!((r.buffered_read_mbps - 3100.0).abs() < 150.0);
        assert!((r.buffered_write_mbps - 83.2).abs() < 1.5);
        assert!((r.write_latency_ms - 5.04).abs() < 0.1);
        assert!((r.read_latency_ms - 0.829).abs() < 0.05);
    }

    #[test]
    fn direct_write_gap_is_about_5x() {
        // Table 5 discussion: Dell direct write 5.3× faster.
        let e = table5(&presets::edison());
        let d = table5(&presets::dell_r620());
        let gap = d.write_mbps / e.write_mbps;
        assert!((3.5..7.0).contains(&gap), "gap {gap}");
    }

    #[test]
    fn dd_throughput_approaches_spec_for_large_streams() {
        let spec = presets::edison();
        let small = dd(&spec, DdMode::DirectRead, 8 * 1024 * 1024, 1024 * 1024);
        let large = dd(&spec, DdMode::DirectRead, 512 * 1024 * 1024, 1024 * 1024);
        assert!(large.throughput > small.throughput * 0.99);
        assert!((large.throughput - 19.5e6).abs() / 19.5e6 < 0.01);
    }

    #[test]
    fn latency_gap_matches_paper() {
        // §4.3: read and write latencies 8.4× / 3.6× larger on Edison.
        let e = ioping(&presets::edison());
        let d = ioping(&presets::dell_r620());
        assert!((e.read_latency / d.read_latency - 8.4).abs() < 0.2);
        assert!((e.write_latency / d.write_latency - 3.6).abs() < 0.1);
    }
}
