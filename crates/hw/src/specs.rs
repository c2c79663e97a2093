//! Parametric server hardware specifications.
//!
//! Work units across the codebase:
//!
//! * **CPU work** is measured in *millions of instructions* (MI); CPU
//!   capacity in MIPS (MI per second), anchored to Dhrystone DMIPS so the
//!   paper's measurements plug in directly.
//! * **Data** is measured in bytes; bandwidths in bytes/second.
//! * **Power** in watts, energy in joules.

use crate::power::PowerModel;

/// Bytes in one mebibyte (used for block/working-set arithmetic).
pub const MIB: u64 = 1024 * 1024;
/// Bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// CPU model: cores, hardware threads and Dhrystone-anchored speed.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads (2× cores when hyper-threaded).
    pub threads: u32,
    /// Nameplate clock, MHz (Table 2 arithmetic only).
    pub clock_mhz: u32,
    /// Single-thread Dhrystone MIPS (the paper: 632.3 Edison, 11383 Dell).
    pub single_thread_mips: f64,
    /// Whole-socket throughput gain from SMT, ≥ 1.0. The machine's aggregate
    /// capacity is `cores × single_thread_mips × smt_factor`. Fitted to the
    /// paper's pi-estimation ratio (see presets).
    pub smt_factor: f64,
}

impl CpuSpec {
    /// Aggregate machine capacity in MIPS.
    pub fn total_mips(&self) -> f64 {
        self.cores as f64 * self.single_thread_mips * self.smt_factor
    }

    /// Rate cap for a single software thread, MIPS.
    pub fn per_thread_cap(&self) -> f64 {
        self.single_thread_mips
    }

    /// Nameplate aggregate speed in MHz (Table 2's "2×500MHz" arithmetic).
    pub fn nameplate_mhz(&self) -> u64 {
        self.cores as u64 * self.clock_mhz as u64
    }
}

/// Memory model: size and a bandwidth curve over access block size.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSpec {
    /// Installed RAM, bytes.
    pub total_bytes: u64,
    /// Peak stream bandwidth, bytes/s (2.2 GB/s Edison, 36 GB/s Dell).
    pub peak_bw: f64,
    /// Threads needed to saturate bandwidth (2 Edison, 12 Dell).
    pub saturation_threads: u32,
    /// Per-access overhead constant: effective bandwidth for block size `b`
    /// is `peak_bw · b / (b + overhead_bytes)`. With 32 KiB the curve
    /// saturates between 256 KiB and 1 MiB as the paper reports.
    pub overhead_bytes: f64,
}

impl MemSpec {
    /// Effective aggregate bandwidth (bytes/s) at `threads` concurrent
    /// workers using `block` -byte transfers.
    pub fn effective_bw(&self, threads: u32, block: u64) -> f64 {
        let block_eff = block as f64 / (block as f64 + self.overhead_bytes);
        let thread_eff =
            (threads.min(self.saturation_threads) as f64) / self.saturation_threads as f64;
        self.peak_bw * block_eff * thread_eff
    }
}

/// Storage model (Table 5): separate direct/buffered throughput and access
/// latencies for the Edison microSD card and the Dell SAS 15K disk.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSpec {
    /// Usable capacity, bytes.
    pub capacity_bytes: u64,
    /// Direct (O_DSYNC) write throughput, bytes/s.
    pub write_bw: f64,
    /// Buffered write throughput, bytes/s.
    pub buffered_write_bw: f64,
    /// Direct read throughput, bytes/s.
    pub read_bw: f64,
    /// Page-cache read throughput, bytes/s.
    pub buffered_read_bw: f64,
    /// Random write latency, seconds (ioping).
    pub write_latency_s: f64,
    /// Random read latency, seconds (ioping).
    pub read_latency_s: f64,
}

impl StorageSpec {
    /// Seconds to write `bytes` (buffered unless `direct`).
    pub fn write_time(&self, bytes: u64, direct: bool) -> f64 {
        let bw = if direct { self.write_bw } else { self.buffered_write_bw };
        self.write_latency_s + bytes as f64 / bw
    }

    /// Seconds to read `bytes` (`cached` uses the page-cache rate).
    pub fn read_time(&self, bytes: u64, cached: bool) -> f64 {
        let bw = if cached { self.buffered_read_bw } else { self.read_bw };
        self.read_latency_s + bytes as f64 / bw
    }
}

/// Network interface model.
#[derive(Debug, Clone, PartialEq)]
pub struct NicSpec {
    /// Line rate, bits/s (100 Mbps Edison USB adaptor, 1 Gbps Dell).
    pub line_rate_bps: f64,
    /// Fraction of line rate achieved by TCP (paper: 0.939 / 0.942).
    pub tcp_efficiency: f64,
    /// Fraction of line rate achieved by UDP (paper: 0.948).
    pub udp_efficiency: f64,
}

impl NicSpec {
    /// Achievable TCP goodput in bytes/s.
    pub fn tcp_bytes_per_sec(&self) -> f64 {
        self.line_rate_bps * self.tcp_efficiency / 8.0
    }
}

/// Operating-system resource limits that bound web-service throughput
/// (the paper: "the throughput is limited by the ability to create new TCP
/// ports and new threads").
#[derive(Debug, Clone, PartialEq)]
pub struct OsLimits {
    /// Max simultaneous connections a server process will hold (fds /
    /// worker limits after the paper's tuning).
    pub max_connections: u32,
    /// Max new-connection accepts per second (SYN backlog drain + thread
    /// creation rate); beyond this, SYNs are dropped.
    pub max_accept_rate: f64,
    /// Memory the idle OS + base services use, bytes.
    pub base_memory: u64,
}

/// A complete server specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Human-readable platform name.
    pub name: String,
    pub cpu: CpuSpec,
    pub mem: MemSpec,
    pub storage: StorageSpec,
    pub nic: NicSpec,
    pub power: PowerModel,
    pub os: OsLimits,
    /// Purchase cost, USD (Table 9).
    pub unit_cost_usd: f64,
}

impl ServerSpec {
    /// Table 2's per-resource replacement ratio against `other`
    /// (how many of `self` match one `other`): `(cpu, ram, nic)`.
    pub fn replacement_ratios(&self, other: &ServerSpec) -> (f64, f64, f64) {
        (
            other.cpu.nameplate_mhz() as f64 / self.cpu.nameplate_mhz() as f64,
            other.mem.total_bytes as f64 / self.mem.total_bytes as f64,
            other.nic.line_rate_bps / self.nic.line_rate_bps,
        )
    }

    /// Table 2's bottom line: nodes of `self` needed to replace one `other`
    /// on raw capacity (max over the three ratios, rounded up).
    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "capacity ratios are small positive numbers")]
    pub fn nodes_to_replace(&self, other: &ServerSpec) -> u32 {
        let (c, m, n) = self.replacement_ratios(other);
        c.max(m).max(n).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn cpu_totals() {
        let cpu = CpuSpec {
            cores: 2,
            threads: 2,
            clock_mhz: 500,
            single_thread_mips: 632.3,
            smt_factor: 1.0,
        };
        assert!((cpu.total_mips() - 1264.6).abs() < 1e-9);
        assert_eq!(cpu.nameplate_mhz(), 1000);
    }

    #[test]
    fn mem_bw_saturates_with_block_size() {
        let mem = presets::edison().mem;
        let small = mem.effective_bw(2, 4 * 1024);
        let big = mem.effective_bw(2, 1024 * 1024);
        assert!(small < 0.2 * big, "4K should be far below saturation");
        let b256 = mem.effective_bw(2, 256 * 1024);
        assert!(b256 > 0.85 * big, "256K should be near saturation");
    }

    #[test]
    fn mem_bw_saturates_with_threads() {
        let mem = presets::dell_r620().mem;
        let one = mem.effective_bw(1, MIB);
        let twelve = mem.effective_bw(12, MIB);
        let sixteen = mem.effective_bw(16, MIB);
        assert!(one < twelve);
        assert_eq!(twelve, sixteen, "beyond 12 threads no further gain");
    }

    #[test]
    fn storage_times_include_latency() {
        let st = presets::edison().storage;
        let t = st.write_time(0, true);
        assert!((t - st.write_latency_s).abs() < 1e-12);
        // 45 MB direct write at 4.5 MB/s ≈ 10 s (+latency)
        let t = st.write_time(45_000_000, true);
        assert!((t - (10.0 + st.write_latency_s)).abs() < 1e-9);
    }

    #[test]
    fn nic_goodput() {
        let nic = presets::edison().nic;
        // paper: 93.9 Mbit/s TCP on the 100 Mbit adaptor
        assert!((nic.tcp_bytes_per_sec() * 8.0 / 1e6 - 93.9).abs() < 0.1);
    }

    #[test]
    fn replacement_math_matches_table2() {
        let e = presets::edison();
        let d = presets::dell_r620();
        let (cpu, ram, nic) = e.replacement_ratios(&d);
        assert!((cpu - 12.0).abs() < 1e-9, "cpu ratio {cpu}");
        assert!((ram - 16.0).abs() < 1e-9, "ram ratio {ram}");
        assert!((nic - 10.0).abs() < 1e-9, "nic ratio {nic}");
        assert_eq!(e.nodes_to_replace(&d), 16);
    }
}
