//! Allocation budget of the telemetry-off MapReduce engine.
//!
//! A job's events must not touch the heap: the YARN heartbeat reads its
//! pending tasks from a bitset and its speculation candidates from a
//! start-ordered queue, and builds its pending list (sized once) and
//! capacity vector only when some node can take a container; HDFS replica
//! choice reads the crash flags in place, and telemetry labels are built
//! only while a sink is enabled. What is left is world set-up (HDFS
//! metadata, the task table), amortised growth (the event heap, the
//! timelines, the speculation queue) and the granting heartbeats' fresh
//! Vecs. This test pins that at under
//! 0.25 allocations per event on one Table 8 cell, so a per-event
//! allocation creeping back in fails tier-1.
//!
//! It also pins the peak live heap of the Table 8 cell that holds the
//! most at once (terasort on edison-4, about 8,600 simulated seconds of
//! timeline): the outcome's timeline is moved out of the finished world,
//! not copied, so the peak is the world's own.
//!
//! The binary installs its own counting global allocator and holds a
//! single test, so nothing else allocates while the region is measured.

use edison_bench::{alloc_counts, peak_live_bytes, reset_peak, CountingAlloc};
use edison_mapreduce::engine::{run_job_checked, run_job_profiled_checked};
use edison_mapreduce::jobs::{self, Tune};
use edison_mapreduce::ClusterSetup;
use edison_simtel::Telemetry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Budget: allocations per delivered event, world set-up included.
const MAX_ALLOCS_PER_EVENT: f64 = 0.25;

const MIB: u64 = 1024 * 1024;

/// Budget: live heap bytes above the pre-run baseline, outcome included.
/// The run holds about 1.45 MiB at its peak; a second copy of the
/// timeline would take it to about 2.1 MiB.
const MAX_PEAK_BYTES: u64 = 1_677_722; // 1.6 MiB

#[test]
fn telemetry_off_job_stays_under_the_allocation_budget() {
    // Table 8's wordcount cell on the full 35-node Edison cluster
    let profile = jobs::wordcount(Tune::Edison);
    let setup = ClusterSetup::edison(35);
    // the event count of exactly this job, from the engine's own profile
    // (profiling does not perturb the run)
    let (_, _, engine) =
        run_job_profiled_checked(&profile, &setup, Telemetry::profiled()).expect("job completes");
    let events = engine.events();
    assert!(events > 10_000, "job too small to measure: {events} events");

    // warm any lazily initialised process state before counting
    drop(run_job_checked(&profile, &setup).expect("job completes"));

    let before = alloc_counts().allocs;
    let outcome = run_job_checked(&profile, &setup).expect("job completes");
    let total = alloc_counts().allocs - before;
    assert!(outcome.finish_time_s > 0.0);
    drop(outcome);

    let per_event = total as f64 / events as f64;
    assert!(
        per_event < MAX_ALLOCS_PER_EVENT,
        "{per_event:.4} allocations per event ({total} in run_job_checked, {events} events); \
         budget {MAX_ALLOCS_PER_EVENT}"
    );

    // the mr_matrix peak cell, tuned as Table 8 tunes terasort
    let profile = jobs::terasort(Tune::Edison);
    let setup = ClusterSetup::edison(4).with_block(64 * MIB);
    let base = reset_peak();
    let outcome = run_job_checked(&profile, &setup).expect("job completes");
    let peak = peak_live_bytes() - base;
    assert!(outcome.finish_time_s > 8_000.0, "terasort on edison-4 ran {} s", outcome.finish_time_s);
    drop(outcome);
    assert!(
        peak < MAX_PEAK_BYTES,
        "peak live heap {peak} B ({:.4} MiB) above the pre-run baseline; budget {MAX_PEAK_BYTES} B",
        peak as f64 / MIB as f64
    );
}
