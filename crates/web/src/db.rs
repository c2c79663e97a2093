//! The MySQL tier: a synthetic stand-in for the paper's 20 GB
//! wikipedia-dump + crawled-image database served by 2 Dell R620 servers.
//!
//! §5.1.1: 15 tables — 11 with scalar fields, 4 with image blobs (30 KB
//! mean stored image; ≈43 KB served reply, see `scenario`). Both clusters
//! query the *same* shared database tier, so its power is excluded from the
//! comparison. Requests pick a table with weights that set the image
//! fraction, then a uniform row.

use crate::memcached::Key;
use crate::scenario::{
    WorkloadMix, IMAGE_REPLY_BYTES, IMAGE_TABLES, ROWS_PER_TABLE, SCALAR_REPLY_BYTES, SCALAR_TABLES,
};
use edison_hw::calib;
use edison_simcore::rng::SimRng;

/// Total table count.
pub const TOTAL_TABLES: usize = SCALAR_TABLES + IMAGE_TABLES;

/// A row request produced by the PHP frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowQuery {
    /// Cache/database key.
    pub key: Key,
    /// True when the row carries an image blob.
    pub is_image: bool,
    /// Bytes of the served reply body.
    pub reply_bytes: u64,
}

/// Draw a query according to a workload mix: image tables are selected
/// with total probability `mix.image_fraction`, rows uniformly.
#[expect(clippy::cast_possible_truncation, reason = "draws are below TOTAL_TABLES (fits u8) and ROWS_PER_TABLE (fits u32)")]
pub fn draw_query(mix: &WorkloadMix, rng: &mut SimRng) -> RowQuery {
    let is_image = rng.chance(mix.image_fraction);
    let table = if is_image {
        // image tables are indices SCALAR_TABLES..TOTAL_TABLES
        SCALAR_TABLES as u8 + rng.below(IMAGE_TABLES as u64) as u8
    } else {
        rng.below(SCALAR_TABLES as u64) as u8
    };
    let row = rng.below(ROWS_PER_TABLE as u64) as u32;
    RowQuery {
        key: Key { table, row },
        is_image,
        reply_bytes: if is_image { IMAGE_REPLY_BYTES } else { SCALAR_REPLY_BYTES },
    }
}

/// True when `key` names an image table.
pub fn key_is_image(key: Key) -> bool {
    (key.table as usize) >= SCALAR_TABLES
}

/// Reply body size for a key.
pub fn reply_bytes_for(key: Key) -> u64 {
    if key_is_image(key) {
        IMAGE_REPLY_BYTES
    } else {
        SCALAR_REPLY_BYTES
    }
}

/// CPU cost of executing a query on a MySQL server, MI.
pub fn query_cpu_mi(q: &RowQuery) -> f64 {
    calib::DB_QUERY_MI + q.reply_bytes as f64 / 1024.0 * calib::DB_QUERY_MI_PER_KIB
}

/// Whether this query misses the buffer pool and must touch disk.
pub fn query_hits_disk(rng: &mut SimRng) -> bool {
    rng.chance(calib::DB_DISK_MISS_P)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_fraction_is_respected() {
        let mix = WorkloadMix::img20();
        let mut rng = SimRng::new(7);
        let n = 50_000;
        let images = (0..n).filter(|_| draw_query(&mix, &mut rng).is_image).count();
        let frac = images as f64 / n as f64;
        assert!((frac - 0.20).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn tables_partition_correctly() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let q = draw_query(&WorkloadMix::img10(), &mut rng);
            assert_eq!(q.is_image, key_is_image(q.key));
            assert!((q.key.table as usize) < TOTAL_TABLES);
            assert!(q.key.row < ROWS_PER_TABLE);
            assert_eq!(q.reply_bytes, reply_bytes_for(q.key));
        }
    }

    #[test]
    fn zero_image_mix_never_draws_images() {
        let mut rng = SimRng::new(11);
        for _ in 0..5_000 {
            assert!(!draw_query(&WorkloadMix::lightest(), &mut rng).is_image);
        }
    }

    #[test]
    fn image_queries_cost_more_cpu() {
        let scalar = RowQuery {
            key: Key { table: 0, row: 0 },
            is_image: false,
            reply_bytes: SCALAR_REPLY_BYTES,
        };
        let image = RowQuery {
            key: Key { table: 12, row: 0 },
            is_image: true,
            reply_bytes: IMAGE_REPLY_BYTES,
        };
        assert!(query_cpu_mi(&image) > query_cpu_mi(&scalar));
    }

    #[test]
    fn disk_miss_probability_is_small() {
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let misses = (0..n).filter(|_| query_hits_disk(&mut rng)).count();
        let p = misses as f64 / n as f64;
        assert!((p - edison_hw::calib::DB_DISK_MISS_P).abs() < 0.005, "p {p}");
    }
}
