//! The simrun layer's headline guarantee, end to end: worker-pool width
//! never changes results. `jobs=1` and `jobs=8` must produce bit-identical
//! reports and telemetry exports, because seeds are derived per point and
//! sweep output is ordered by input index, not completion order.

use edison_core::registry::{find, RunBudget};
use edison_simrun::{derive_seed, Executor, ROOT_SEED};
use edison_simtel::Telemetry;

/// Render one registry experiment plus all three telemetry exports at a
/// given pool width.
fn run_at(id: &str, jobs: usize) -> (String, String, String, String) {
    let exp = find(id).unwrap_or_else(|| panic!("missing {id}"));
    let mut tel = Telemetry::on();
    let report = (exp.run)(&RunBudget::quick(), &Executor::new(jobs), &mut tel)
        .unwrap_or_else(|e| panic!("{id} failed at jobs={jobs}: {e}"));
    (
        format!("{report}"),
        tel.chrome_trace_json(),
        tel.prometheus_text(),
        edison_core::export::telemetry_csv(&tel),
    )
}

/// Table 7 is the cheapest registry experiment with a real sweep (5 points
/// × 2 platforms): the whole pipeline — executor, derived seeds, outcome
/// counters, exporters — must be invariant under pool width.
#[test]
fn table7_is_bit_identical_across_pool_widths() {
    let (rep1, trace1, prom1, csv1) = run_at("table7", 1);
    let (rep8, trace8, prom8, csv8) = run_at("table7", 8);
    assert_eq!(rep1, rep8, "report text differs between jobs=1 and jobs=8");
    assert_eq!(trace1, trace8, "chrome trace differs between jobs=1 and jobs=8");
    assert_eq!(prom1, prom8, "prometheus export differs between jobs=1 and jobs=8");
    assert_eq!(csv1, csv8, "telemetry csv differs between jobs=1 and jobs=8");
    // sanity: the sweep actually went through the executor's counters
    assert!(prom1.contains("simrun_points_total"), "sweep outcome counters missing:\n{prom1}");
}

/// The raw executor, without the experiment layer: a deliberately uneven
/// workload (so completion order scrambles under parallelism) still comes
/// back in input order at every width.
#[test]
fn executor_results_are_input_ordered_at_any_width() {
    let points: Vec<u64> = (0..40).collect();
    let reference: Vec<u64> = points.iter().map(|&p| p.wrapping_mul(p) ^ 0xABCD).collect();
    for jobs in [1, 2, 3, 8, 40] {
        let got: Vec<u64> = Executor::new(jobs)
            .run(&points, |_, &p| {
                // skew the work so later points often finish first
                let spin = (40 - p) * 2_000;
                let mut acc = 0u64;
                for i in 0..spin {
                    acc = acc.wrapping_add(i);
                }
                std::hint::black_box(acc);
                p.wrapping_mul(p) ^ 0xABCD
            })
            .into_iter()
            .map(|r| r.expect("no panics"))
            .collect();
        assert_eq!(got, reference, "jobs={jobs}");
    }
}

/// Seed derivation is a pure function of identity — the same everywhere,
/// independent of any executor state — and distinct across streams and
/// indices, so no two sweep points share an RNG stream.
#[test]
fn derived_seeds_are_stable_and_unshared() {
    let a = derive_seed(ROOT_SEED, "web:24 Edison:img0%:hit93%", 0);
    assert_eq!(a, derive_seed(ROOT_SEED, "web:24 Edison:img0%:hit93%", 0));
    let mut seeds: Vec<u64> = Vec::new();
    for stream in ["web:24 Edison:img0%:hit93%", "web:2 Dell:img0%:hit93%", "mr:wordcount:edison-35"] {
        for idx in 0..9 {
            seeds.push(derive_seed(ROOT_SEED, stream, idx));
        }
    }
    let n = seeds.len();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), n, "derived seeds collide across streams/indices");
    // and none of them is the legacy shared constant
    assert!(!seeds.contains(&20160509), "a sweep point still runs on the old shared seed");
}
