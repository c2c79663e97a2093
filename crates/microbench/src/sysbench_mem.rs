//! Sysbench memory-transfer test (§4.2).
//!
//! The paper iterates block sizes from 4 KiB to 1 MiB and thread counts
//! from 1 to 16, observing that transfer rate saturates from 256 KiB
//! upward, beyond 2 threads on the Edison and beyond 12 threads on the
//! Dell, peaking at 2.2 GB/s and 36 GB/s respectively. The run here sweeps
//! the same grid over the `MemSpec` bandwidth surface.

use edison_hw::ServerSpec;

/// One cell of the block-size × threads sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MemBwPoint {
    /// Transfer block size, bytes.
    pub block: u64,
    /// Worker threads.
    pub threads: u32,
    /// Measured aggregate bandwidth, bytes/s.
    pub bandwidth: f64,
}

/// Result of the full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MemBwResult {
    /// All grid points in (block, threads) iteration order.
    pub points: Vec<MemBwPoint>,
    /// Peak bandwidth observed, bytes/s.
    pub peak: f64,
    /// Smallest thread count reaching ≥ 99 % of peak at 1 MiB blocks.
    pub saturation_threads: u32,
    /// Smallest block size reaching ≥ 85 % of peak at saturation threads.
    pub saturation_block: u64,
}

/// The paper's grid: 4 KiB – 1 MiB blocks, 1–16 threads.
pub fn sweep(spec: &ServerSpec) -> MemBwResult {
    let blocks: [u64; 9] = std::array::from_fn(|i| (4 * 1024u64) << i); // 4K..1M
    let threads: Vec<u32> = vec![1, 2, 4, 8, 12, 16];
    let mut points = Vec::with_capacity(blocks.len() * threads.len());
    let mut peak = 0.0f64;
    for &b in &blocks {
        for &n in &threads {
            let bw = spec.mem.effective_bw(n, b);
            peak = peak.max(bw);
            points.push(MemBwPoint { block: b, threads: n, bandwidth: bw });
        }
    }
    let max_block = blocks[blocks.len() - 1];
    let saturation_threads = threads
        .iter()
        .copied()
        .find(|&n| spec.mem.effective_bw(n, max_block) >= 0.99 * peak)
        .unwrap_or(16);
    let saturation_block = blocks
        .iter()
        .copied()
        .find(|&b| spec.mem.effective_bw(saturation_threads, b) >= 0.85 * peak)
        .unwrap_or(max_block);
    MemBwResult { points, peak, saturation_threads, saturation_block }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_hw::presets;

    #[test]
    fn edison_peaks_at_2_2_gbps() {
        let r = sweep(&presets::edison());
        assert!((r.peak / 1e9 - 2.2).abs() < 0.15, "peak {}", r.peak / 1e9);
    }

    #[test]
    fn dell_peaks_at_36_gbps() {
        let r = sweep(&presets::dell_r620());
        assert!((r.peak / 1e9 - 36.0).abs() < 2.0, "peak {}", r.peak / 1e9);
    }

    #[test]
    fn edison_saturates_at_two_threads() {
        let r = sweep(&presets::edison());
        assert_eq!(r.saturation_threads, 2);
    }

    #[test]
    fn dell_saturates_at_twelve_threads() {
        let r = sweep(&presets::dell_r620());
        assert_eq!(r.saturation_threads, 12);
    }

    #[test]
    fn bandwidth_saturates_by_256k_blocks() {
        for spec in [presets::edison(), presets::dell_r620()] {
            let r = sweep(&spec);
            assert!(
                r.saturation_block <= 256 * 1024,
                "{}: saturation at {} bytes",
                spec.name,
                r.saturation_block
            );
        }
    }

    #[test]
    fn bandwidth_is_monotone_in_block_and_threads() {
        let r = sweep(&presets::dell_r620());
        for w in r.points.windows(2) {
            if w[0].block == w[1].block {
                assert!(w[1].bandwidth >= w[0].bandwidth - 1e-6);
            }
        }
    }

    #[test]
    fn memory_gap_is_16x() {
        // §4 summary: memory bandwidth gap ≈ 16×.
        let e = sweep(&presets::edison());
        let d = sweep(&presets::dell_r620());
        let gap = d.peak / e.peak;
        assert!((gap - 16.36).abs() < 0.5, "gap {gap}");
    }
}
