//! Raw engine throughput for the tracked trajectory workloads, plus the
//! profiler-overhead pair.
//!
//! Prints events/sec and sim-seconds per wall-second for each tracked
//! workload (the numbers `cargo bench-gate -- update` commits as the
//! advisory section of `BENCH_0014.json`), then benches a web point with
//! the profiler disabled vs enabled — the two must be indistinguishable,
//! since the unprofiled loop monomorphizes with `NoopProfiler`.

use criterion::{criterion_group, criterion_main, Criterion};
use edison_bench::{run_tracked, TRACKED};
use edison_web::httperf::{self, RunOpts};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One-shot events/sec report per tracked workload.
fn print_rates() {
    for name in TRACKED {
        let t0 = Instant::now();
        let profile = run_tracked(name).expect("tracked workload runs");
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        println!(
            "throughput {name:<20} {:>12.0} events/s  {:>8.1} sim-s/wall-s  ({} events, {:.1} sim-s)",
            profile.events() as f64 / wall,
            profile.sim_seconds() / wall,
            profile.events(),
            profile.sim_seconds(),
        );
    }
}

fn bench_throughput(c: &mut Criterion) {
    print_rates();
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for name in TRACKED {
        group.bench_function(name, |b| b.iter(|| black_box(run_tracked(name).expect("runs"))));
    }
    group.finish();
}

/// The observer-equivalence cost claim: a plain run vs the same run
/// through an enabled profiling sink. Identical metrics, and the
/// disabled-profiler path must show no measurable overhead at all.
fn bench_profiler_overhead(c: &mut Criterion) {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).expect("table 6");
    let opts = RunOpts { seed: 7, warmup_s: 1, measure_s: 3, ..RunOpts::default() };
    let mut group = c.benchmark_group("profiler");
    group.sample_size(10);
    group.bench_function("web_point_plain", |b| {
        b.iter(|| {
            black_box(httperf::run_point(&scenario, WorkloadMix::lightest(), 64.0, opts.clone()))
        })
    });
    group.bench_function("web_point_profiled", |b| {
        b.iter(|| {
            black_box(httperf::run_point_traced(
                &scenario,
                WorkloadMix::lightest(),
                64.0,
                opts.clone(),
                edison_simtel::Telemetry::profiled(),
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(2));
    targets = bench_throughput, bench_profiler_overhead
}
criterion_main!(benches);
