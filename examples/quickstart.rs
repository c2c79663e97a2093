//! Quickstart: build both platforms, run a microbenchmark, one web-service
//! point, and one MapReduce job — the whole API surface in 60 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use edison_hw::presets;
use edison_mapreduce::engine::{run_job_checked, ClusterSetup};
use edison_mapreduce::jobs::{self, Tune};
use edison_microbench::dhrystone;
use edison_core::registry::RunBudget;
use edison_web::httperf;
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

fn main() {
    // 1. The calibrated hardware models.
    let edison = presets::edison();
    let dell = presets::dell_r620();
    println!("platforms:");
    println!(
        "  {:<22} {}x{}MHz, {:.0} DMIPS/thread, {:.1}W idle / {:.1}W busy",
        edison.name,
        edison.cpu.cores,
        edison.cpu.clock_mhz,
        edison.cpu.single_thread_mips,
        edison.power.node_idle(),
        edison.power.node_busy()
    );
    println!(
        "  {:<22} {}x{}MHz, {:.0} DMIPS/thread, {:.0}W idle / {:.0}W busy",
        dell.name,
        dell.cpu.cores,
        dell.cpu.clock_mhz,
        dell.cpu.single_thread_mips,
        dell.power.node_idle(),
        dell.power.node_busy()
    );

    // 2. A Section-4 microbenchmark.
    let e = dhrystone::run(&edison, 100_000_000);
    let d = dhrystone::run(&dell, 100_000_000);
    println!("\ndhrystone: Edison {:.1} DMIPS, Dell {:.1} DMIPS ({:.0}x single-thread)",
        e.dmips, d.dmips, d.dmips / e.dmips);

    // 3. One web-service figure point: quarter-scale Edison cluster at
    //    concurrency 128, over the paper-scale 5 s warm-up and 20 s window.
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Quarter).unwrap();
    let cfg = RunBudget::full().web_point(scenario.clone(), WorkloadMix::lightest(), 128.0, 20160509);
    let r = httperf::run_point(cfg);
    println!(
        "\nweb ({} web + {} cache servers): {:.0} req/s at {:.1} ms mean delay, {:.1} W, {:.1} req/J",
        scenario.web_servers,
        scenario.cache_servers,
        r.requests_per_sec,
        r.mean_delay_ms,
        r.mean_power_w,
        r.requests_per_joule
    );

    // 4. One MapReduce job: the optimised wordcount on 8 Edison nodes.
    let outcome = run_job_checked(&jobs::wordcount2(Tune::Edison), &ClusterSetup::edison(8)).expect("job finishes");
    println!(
        "\nwordcount2 on 8 Edison nodes: {:.0} s, {:.0} J, {:.0}% data-local maps",
        outcome.finish_time_s,
        outcome.energy_j,
        outcome.data_local_fraction * 100.0
    );
}
