//! Property tests for the telemetry histogram: whatever mix of values is
//! recorded — underflow, boundary hits, overflow, non-finite — the bucket
//! counts must sum to `count`, and the Prometheus cumulative export must end
//! at `count`.

use edison_simtel::{Histogram, Telemetry};
use proptest::prelude::*;

const BOUNDS: &[f64] = &[0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 8.0];

/// Decode a raw u64 into a value that stresses every boundary: exact bound
/// hits, underflow, overflow, and non-finite values.
fn decode(raw: u64) -> f64 {
    match raw % 16 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3..=10 => BOUNDS[(raw % 16 - 3) as usize % BOUNDS.len()], // exact boundary hits
        _ => (raw % 2_000_001) as f64 / 100.0 - 10_000.0,        // wide range incl. underflow
    }
}

proptest! {
    #[test]
    fn bucket_counts_sum_to_count(raws in proptest::collection::vec(0u64..u64::MAX, 1..200)) {
        let mut h = Histogram::new(BOUNDS);
        for &r in &raws {
            h.record(decode(r));
        }
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
        prop_assert_eq!(h.count(), raws.len() as u64);
        // one bucket per bound plus +Inf
        prop_assert_eq!(h.buckets().len(), BOUNDS.len() + 1);
    }

    #[test]
    fn prometheus_cumulative_ends_at_count(vals in proptest::collection::vec(-10.0..10.0f64, 1..100)) {
        let mut tel = Telemetry::on();
        for v in &vals {
            tel.observe("h_seconds", &[], BOUNDS, *v);
        }
        let prom = tel.prometheus_text();
        edison_simtel::export::validate_prometheus(&prom).unwrap();
        let inf_line = prom
            .lines()
            .find(|l| l.starts_with("h_seconds_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket line");
        let count_line = prom
            .lines()
            .find(|l| l.starts_with("h_seconds_count"))
            .expect("count line");
        let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        prop_assert_eq!(inf, count);
        prop_assert_eq!(count, vals.len() as u64);
    }
}
