//! Cluster configurations (Table 6) and workload mixes (§5.1.1).

use edison_hw::{presets, ServerSpec};
use edison_simrun::SimError;

/// Which platform serves the web tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    Edison,
    Dell,
}

impl Platform {
    /// The hardware spec of this platform.
    pub fn spec(self) -> ServerSpec {
        match self {
            Platform::Edison => presets::edison(),
            Platform::Dell => presets::dell_r620(),
        }
    }
}

/// Table 6 scale factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterScale {
    Full,
    Half,
    Quarter,
    Eighth,
}

/// Web/cache server counts for one platform at one scale (Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct WebScenario {
    pub platform: Platform,
    pub scale: ClusterScale,
    /// Lighttpd nodes.
    pub web_servers: usize,
    /// memcached nodes.
    pub cache_servers: usize,
}

impl WebScenario {
    /// Table 6 exactly. Dell has no quarter/eighth configurations; `None`
    /// is returned for those (the paper marks them N/A).
    pub fn table6(platform: Platform, scale: ClusterScale) -> Option<WebScenario> {
        let (web_servers, cache_servers) = match (platform, scale) {
            (Platform::Edison, ClusterScale::Full) => (24, 11),
            (Platform::Edison, ClusterScale::Half) => (12, 6),
            (Platform::Edison, ClusterScale::Quarter) => (6, 3),
            (Platform::Edison, ClusterScale::Eighth) => (3, 2),
            (Platform::Dell, ClusterScale::Full) => (2, 1),
            (Platform::Dell, ClusterScale::Half) => (1, 1),
            (Platform::Dell, _) => return None,
        };
        Some(WebScenario { platform, scale, web_servers, cache_servers })
    }

    /// [`Self::table6`] for callers that *require* the row: the N/A cells
    /// surface as a typed [`SimError::Config`] instead of a panic.
    pub fn table6_or_err(platform: Platform, scale: ClusterScale) -> Result<WebScenario, SimError> {
        Self::table6(platform, scale).ok_or_else(|| {
            SimError::Config(format!("Table 6 has no {platform:?} {scale:?} configuration (the paper marks it N/A)"))
        })
    }
}

/// Reply-body size of a scalar-table row (bytes): the paper's lightest
/// workload averages 1.5 KB.
pub const SCALAR_REPLY_BYTES: u64 = 1_500;

/// Reply-body size of an image row (bytes). The paper's mean *stored* image
/// is 30 KB; the served page (image + markup) averages ≈43 KB, which is the
/// value that reproduces the paper's stated mean reply sizes (3.8 / 5.8 /
/// 10 KB at 6 / 10 / 20 % image queries).
pub const IMAGE_REPLY_BYTES: u64 = 43_000;

/// Tables in the MySQL database (§5.1.1): 11 scalar + 4 image-blob tables.
pub const SCALAR_TABLES: usize = 11;
/// Image-blob tables.
pub const IMAGE_TABLES: usize = 4;
/// Rows per table in the synthetic *hot* keyspace the clients draw from.
///
/// The paper's database is 20 GB, but its warm-up sustains a 93 % hit
/// ratio at every cluster scale — so the requested working set necessarily
/// fits even the smallest cache tier (2 Edison nodes ≈ 1.3 GB). 6 000 rows
/// per table ≈ 1.1 GB of hot data (11 scalar + 4 image tables) satisfies
/// that bound while keeping the keyspace large enough that per-key caching
/// effects are negligible.
pub const ROWS_PER_TABLE: u32 = 6_000;

/// Client retry budget used by the fault experiments: how many times an
/// httperf client re-dispatches a connection through the load balancer
/// after a connect/read timeout on a crashed backend. Two retries ride
/// out a failover (detect + re-dispatch) without letting a hard outage
/// spin forever; `0` (the [`crate::stack::StackConfig::new`] default) keeps
/// fault-free sweeps byte-identical to the pre-fault behaviour.
pub const DEFAULT_RETRY_BUDGET: u32 = 2;

/// A workload mix: image-query probability + target cache hit ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Probability that a request hits an image table (0.0 / 0.06 / 0.10 /
    /// 0.20 in the paper).
    pub image_fraction: f64,
    /// Cache hit ratio established by the warm-up stage (0.93 / 0.77 /
    /// 0.60).
    pub cache_hit_ratio: f64,
}

impl WorkloadMix {
    /// The paper's four named mixes.
    pub fn lightest() -> Self {
        WorkloadMix { image_fraction: 0.0, cache_hit_ratio: 0.93 }
    }
    /// 6 % images, 93 % hits.
    pub fn img6() -> Self {
        WorkloadMix { image_fraction: 0.06, cache_hit_ratio: 0.93 }
    }
    /// 10 % images, 93 % hits.
    pub fn img10() -> Self {
        WorkloadMix { image_fraction: 0.10, cache_hit_ratio: 0.93 }
    }
    /// The heaviest fair mix: 20 % images (half the Edison NIC), 93 % hits.
    pub fn img20() -> Self {
        WorkloadMix { image_fraction: 0.20, cache_hit_ratio: 0.93 }
    }
    /// 0 % images at a reduced hit ratio.
    pub fn hit(cache_hit_ratio: f64) -> Self {
        WorkloadMix { image_fraction: 0.0, cache_hit_ratio }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_counts() {
        let full = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
        assert_eq!((full.web_servers, full.cache_servers), (24, 11));
        let half = WebScenario::table6(Platform::Edison, ClusterScale::Half).unwrap();
        assert_eq!(half.web_servers + half.cache_servers, 18);
        let dell = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
        assert_eq!((dell.web_servers, dell.cache_servers), (2, 1));
        assert!(WebScenario::table6(Platform::Dell, ClusterScale::Quarter).is_none());
    }

    #[test]
    fn web_to_cache_ratio_is_about_two() {
        // §5.1.1: web servers ≈ 2× cache servers on both platforms.
        for scale in [ClusterScale::Full, ClusterScale::Half, ClusterScale::Quarter] {
            let s = WebScenario::table6(Platform::Edison, scale).unwrap();
            let ratio = s.web_servers as f64 / s.cache_servers as f64;
            assert!((1.5..=2.2).contains(&ratio), "{scale:?}: {ratio}");
        }
    }

    #[test]
    fn mean_reply_sizes_match_paper() {
        let mean_reply_bytes = |mix: WorkloadMix| {
            (1.0 - mix.image_fraction) * SCALAR_REPLY_BYTES as f64 + mix.image_fraction * IMAGE_REPLY_BYTES as f64
        };
        assert!((mean_reply_bytes(WorkloadMix::lightest()) - 1_500.0).abs() < 1.0);
        assert!((mean_reply_bytes(WorkloadMix::img6()) / 1000.0 - 3.8).abs() < 0.3);
        assert!((mean_reply_bytes(WorkloadMix::img10()) / 1000.0 - 5.8).abs() < 0.3);
        assert!((mean_reply_bytes(WorkloadMix::img20()) / 1000.0 - 10.0).abs() < 0.4);
    }
}
