//! Fitted workload cost coefficients.
//!
//! These are the only "free" constants in the reproduction. Each was fitted
//! **once** against the paper observation named in its doc comment and is
//! then held fixed across every experiment, cluster size and workload
//! variant (DESIGN.md §1, "Calibration policy"). Everything else in
//! `edison-hw` is a direct Section 3–4 measurement.
//!
//! Units: CPU work in MI (millions of instructions, Dhrystone-anchored);
//! data in bytes; time in seconds.

/// Web server CPU per HTTP request on the Edison LLMP stack (PHP 5.4.41,
/// Lighttpd 1.4.31). Fitted to: 24 Edison web servers peak at ≈6800 req/s
/// with 86 % CPU (Figure 4 + §5.1.2 utilisation notes).
pub const WEB_REQ_MI_EDISON: f64 = 3.8;

/// Web server CPU per HTTP request on the Dell LLMP stack (PHP **5.3.3**,
/// Lighttpd 1.4.35). Fitted to: 2 Dell web servers peak at ≈6800 req/s with
/// 45 % CPU. The higher per-request cost reflects the older PHP runtime and
/// the ~12× higher per-process connection churn each Dell server sustains.
pub const WEB_REQ_MI_DELL: f64 = 11.7;

/// Extra web-server CPU per KiB of reply body (page assembly + TCP copy).
/// Fitted to the ≈15 % throughput drop from the 1.5 KiB to the 10 KiB
/// (20 %-image) workload at equal concurrency (Figures 4→6).
pub const WEB_REQ_MI_PER_KIB: f64 = 0.09;

/// memcached CPU per lookup. Fitted to the §5.1.2 cache-server utilisation:
/// 9 % CPU on 11 Edison cache servers and 1.6 % on 1 Dell cache server at
/// peak throughput.
pub const CACHE_LOOKUP_MI: f64 = 0.2;

/// MySQL server CPU per scalar query (row fetch on an indexed table).
/// Fitted to the Dell-side database delay of ≈1.6 ms in Table 7.
pub const DB_QUERY_MI: f64 = 12.0;

/// Extra MySQL CPU per KiB of blob payload returned.
pub const DB_QUERY_MI_PER_KIB: f64 = 0.05;

/// Probability a database query misses MySQL's buffer pool and pays a disk
/// read. The 20 GB dataset vs 32 GB aggregate DB-server RAM keeps this low.
pub const DB_DISK_MISS_P: f64 = 0.02;

/// TCP connection establishment CPU on the accepting server (3-way
/// handshake, fd allocation, FastCGI session). Applied per *connection*,
/// not per request. Fitted jointly with `WEB_REQ_MI_*` to the error-onset
/// concurrency levels (1024 on Edison, 2048 on Dell).
pub const TCP_ACCEPT_MI: f64 = 1.2;

/// httperf calls per connection: the paper tunes ≈6.6 to match its
/// reported concurrency. [`TCP_ACCEPT_MI`] amortises over this many
/// requests.
pub const CALLS_PER_CONN: f64 = 6.6;

/// YARN container start-up CPU (JVM launch + class loading), in MI.
/// Fitted to the logcount-vs-logcount2 gap at both full cluster sizes —
/// the pair of cells that isolates pure container overhead (430/476 fewer
/// containers do the same data work). Wall cost ≈25 s per JVM on the
/// Edison (Atom-class cores page through the JVM at SD-card speeds),
/// ≈5 s on the Dell.
pub const CONTAINER_STARTUP_MI: PerPlatform = PerPlatform { edison: 12_500.0, dell: 30_000.0 };

/// Per-task fixed CPU beyond the JVM itself: AM umbilical round trips,
/// split metadata, the output committer. Fitted jointly with the map
/// per-MiB constants to the Table 8 {wordcount, wordcount2, logcount,
/// logcount2} quadruple on each platform (four equations, three unknowns
/// per platform — the residual goes to the per-MiB terms).
pub const TASK_SETUP_MI: PerPlatform = PerPlatform { edison: 2_000.0, dell: 22_000.0 };

/// Fixed scheduler latency per container grant (RM heartbeat rounds), s.
pub const CONTAINER_GRANT_DELAY_S: f64 = 1.0;

/// Application-master setup time before any container request, in MI
/// (runs on the Dell master of the paper's hybrid deployment).
pub const APP_MASTER_SETUP_MI: f64 = 4_000.0;

/// Fixed job-submission latency: client → RM negotiation, AM container
/// allocation, job metadata distribution. Platform-independent.
pub const JOB_SUBMIT_DELAY_S: f64 = 12.0;

/// Job-localisation bytes written to each slave's disk before its first
/// container can launch (Hadoop framework jars + job artifacts). Fitted
/// jointly with `JOB_SUBMIT_DELAY_S` to the §5.2.1 observation that the
/// quiet period before the CPU rise is ≈45 s on Edison vs ≈20 s on Dell
/// (2.3×): the SD card absorbs 250 MB at 9.3 MB/s (≈27 s), the SAS disk
/// at 83 MB/s (≈3 s).
pub const JOB_LOCALIZATION_BYTES: u64 = 250 * 1024 * 1024;

/// Hadoop's reduce ramp-up limit: once slow-start is met, reducers take
/// priority over maps (YARN priority 10 vs 20) but may hold at most this
/// fraction of cluster resources while maps are still pending.
pub const REDUCE_RAMPUP_LIMIT: f64 = 0.5;

/// Per-task commit/cleanup CPU after the last record, in MI.
pub const TASK_CLEANUP_MI: f64 = 260.0;

/// Per-platform (Edison, Dell) cost pair, in Dhrystone-anchored MI.
///
/// Why per-platform: the Dhrystone anchor measures a deep-pipeline-friendly
/// integer loop, where the Dell core is ~18× an Edison core. The JVM's
/// text/hash processing is memory- and branch-bound, where the paper's own
/// measurements put the platform gap at 16× aggregate memory bandwidth
/// (§4.2) — far below the ~70× aggregate Dhrystone gap. Expressing job
/// costs in DMIPS-anchored MI therefore needs a larger per-MiB constant on
/// the Dell (its DMIPS overstate its effective Java throughput).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerPlatform {
    /// Cost on the Edison (Atom-class) core, MI.
    pub edison: f64,
    /// Cost on the Dell (Xeon-class) core, MI.
    pub dell: f64,
}

/// Map-phase CPU for wordcount, MI per MiB of input text (line splitting +
/// token hashing in the JVM). Fitted to the Figure 12/15 map-phase
/// durations.
pub const WORDCOUNT_MAP_MI_PER_MIB: PerPlatform = PerPlatform { edison: 3_200.0, dell: 6_900.0 };

/// Reduce-phase CPU for wordcount, MI per MiB of shuffled data.
pub const WORDCOUNT_REDUCE_MI_PER_MIB: PerPlatform = PerPlatform { edison: 3_200.0, dell: 13_000.0 };

/// Map-phase CPU for logcount, MI per MiB (much lighter than wordcount:
/// one key per log line instead of one per word).
pub const LOGCOUNT_MAP_MI_PER_MIB: PerPlatform = PerPlatform { edison: 1_600.0, dell: 5_900.0 };

/// Reduce-phase CPU for logcount, MI per MiB of shuffled data.
pub const LOGCOUNT_REDUCE_MI_PER_MIB: PerPlatform = PerPlatform { edison: 1_500.0, dell: 6_000.0 };

/// CPU per million Monte-Carlo samples in the pi estimator, MI.
/// Fitted to the §5.2.3 runtimes (10 G samples: 200 s on 35 Edison nodes,
/// 50 s on 2 Dells). The Dell constant sits below the Edison one because
/// running 24 sample loops on 12 physical cores over-subscribes SMT beyond
/// what the Dhrystone-fitted 1.3× factor credits; the residual (≈1.7×) is
/// absorbed here rather than in a per-job SMT curve.
pub const PI_MI_PER_MSAMPLE: PerPlatform = PerPlatform { edison: 600.0, dell: 480.0 };

/// Map-phase CPU for terasort, MI per MiB (record parse + partition).
pub const TERASORT_MAP_MI_PER_MIB: PerPlatform = PerPlatform { edison: 900.0, dell: 2_800.0 };

/// Reduce-phase CPU for terasort, MI per MiB (merge + final sort).
pub const TERASORT_REDUCE_MI_PER_MIB: PerPlatform = PerPlatform { edison: 500.0, dell: 800.0 };

/// Sort/spill CPU per MiB of map-output records (quick-sort in io.sort.mb
/// buffers, applies to all jobs).
pub const SPILL_SORT_MI_PER_MIB: PerPlatform = PerPlatform { edison: 300.0, dell: 1_200.0 };

/// JVM memory-management tax: fraction of task CPU added when the task's
/// working set exceeds 80 % of its container (GC pressure). Exercised by
/// the terasort memory-hungry phase (§5.2.4: "more memory-hungry than
/// CPU-hungry", ~95 % memory usage).
pub const GC_PRESSURE_FACTOR: f64 = 0.35;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn edison_web_capacity_matches_peak_throughput() {
        // 24 Edison web servers at 86 % CPU should sustain ≈ 6800 req/s on
        // the light (1.5 KiB) workload. Per-request cost includes the
        // amortised accept cost at CALLS_PER_CONN calls/connection.
        let e = presets::edison();
        let per_req = WEB_REQ_MI_EDISON + 1.5 * WEB_REQ_MI_PER_KIB + TCP_ACCEPT_MI / CALLS_PER_CONN;
        let cluster_rps = 24.0 * e.cpu.total_mips() * 0.86 / per_req;
        assert!(
            (6000.0..8000.0).contains(&cluster_rps),
            "edison peak rps {cluster_rps}"
        );
    }

    #[test]
    fn dell_web_capacity_matches_peak_throughput() {
        let d = presets::dell_r620();
        let per_req = WEB_REQ_MI_DELL + 1.5 * WEB_REQ_MI_PER_KIB + TCP_ACCEPT_MI / CALLS_PER_CONN;
        let cluster_rps = 2.0 * d.cpu.total_mips() * 0.45 / per_req;
        assert!(
            (5500.0..8500.0).contains(&cluster_rps),
            "dell peak rps {cluster_rps}"
        );
    }

    #[test]
    fn cache_cost_matches_utilisation() {
        // 11 Edison cache servers at ≈9 % CPU absorb ~6800 lookups/s.
        let e = presets::edison();
        let rps_per_cache = 6800.0 / 11.0;
        let util = rps_per_cache * CACHE_LOOKUP_MI / e.cpu.total_mips();
        assert!((0.05..0.15).contains(&util), "cache util {util}");
    }

    #[test]
    fn pi_cost_matches_runtimes() {
        // 10 G samples: pure compute ≈135 s over 35 Edison nodes and
        // ≈20 s over 2 Dells (submission + container overheads add the
        // rest in the full simulation).
        let e = presets::edison();
        let d = presets::dell_r620();
        let t_e = 10_000.0 * PI_MI_PER_MSAMPLE.edison / (35.0 * e.cpu.total_mips());
        let t_d = 10_000.0 * PI_MI_PER_MSAMPLE.dell / (2.0 * d.cpu.total_mips());
        assert!((120.0..170.0).contains(&t_e), "edison pi compute {t_e}s");
        assert!((12.0..30.0).contains(&t_d), "dell pi compute {t_d}s");
    }

    #[test]
    fn container_startup_walltime_is_plausible() {
        // JVM start on a lone thread: ≈25 s on the Edison (the paper's
        // figures show tens of seconds of allocation time), ≈5 s on the
        // Dell.
        let e = presets::edison();
        let d = presets::dell_r620();
        let t_e = CONTAINER_STARTUP_MI.edison / e.cpu.single_thread_mips;
        let t_d = CONTAINER_STARTUP_MI.dell / d.cpu.single_thread_mips;
        assert!((15.0..40.0).contains(&t_e), "edison JVM start {t_e}s");
        assert!((2.0..10.0).contains(&t_d), "dell JVM start {t_d}s");
    }

    #[test]
    fn quiet_period_ratio_matches_paper() {
        // §5.2.1: the quiet period before the CPU rise (submission +
        // localisation) is ≈45 s Edison vs ≈20 s Dell (2.3×).
        let e = presets::edison();
        let d = presets::dell_r620();
        let quiet = |spec: &crate::specs::StorageSpec| {
            JOB_SUBMIT_DELAY_S + spec.write_time(JOB_LOCALIZATION_BYTES, false)
        };
        let t_e = quiet(&e.storage);
        let t_d = quiet(&d.storage);
        assert!((32.0..50.0).contains(&t_e), "edison quiet {t_e}s");
        assert!((13.0..22.0).contains(&t_d), "dell quiet {t_d}s");
        assert!((1.8..3.2).contains(&(t_e / t_d)), "ratio {}", t_e / t_d);
    }
}
