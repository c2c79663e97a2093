//! Shape assertions on the Figure 12–17 timelines: the qualitative
//! observations §5.2.1–§5.2.3 calls out must hold in the simulation.

use edison_mapreduce::engine::{run_job_checked, ClusterSetup};
use edison_mapreduce::jobs::{self, Tune};

/// §5.2.1 obs. 2: the resource-allocation time before the CPU rise is
/// longer on Edison than on Dell (paper: ≈2.3×).
#[test]
fn cpu_rise_is_later_on_edison() {
    let e = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    let d = run_job_checked(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    assert!(
        e.cpu_rise_s > d.cpu_rise_s,
        "edison rise {:.1}s, dell rise {:.1}s",
        e.cpu_rise_s,
        d.cpu_rise_s
    );
}

/// §5.2.1 obs. 3: the reduce phase starts much later (relative to runtime)
/// on Edison (61 %) than on Dell (28 %) for wordcount — Edison's memory
/// ceiling keeps every container slot busy with maps for longer.
#[test]
fn reduce_phase_starts_relatively_later_on_edison() {
    let e = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    let d = run_job_checked(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    let e_frac = e.first_reduce_s / e.finish_time_s;
    let d_frac = d.first_reduce_s / d.finish_time_s;
    assert!(
        e_frac > d_frac,
        "edison reduce at {:.0}%, dell at {:.0}%",
        e_frac * 100.0,
        d_frac * 100.0
    );
    assert!(e_frac > 0.3, "edison reduce should start late ({:.2})", e_frac);
}

/// Wordcount has a CPU-hungry map phase: mean CPU during the first half of
/// the Dell run should be high (the paper: "100% persistently").
#[test]
fn dell_wordcount_map_phase_is_cpu_bound() {
    let d = run_job_checked(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    let pts = d.timeline.cpu_pct.points();
    let half = pts.len() / 2;
    let first_half_mean: f64 =
        pts[..half].iter().map(|&(_, v)| v).sum::<f64>() / half.max(1) as f64;
    assert!(first_half_mean > 55.0, "dell map-phase cpu {first_half_mean:.0}%");
}

/// Pi saturates CPU on both clusters (§5.2.3: "both CPU and memory reach
/// full utilization").
#[test]
fn pi_saturates_cpu() {
    for (out, label) in [
        (run_job_checked(&jobs::pi(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes"), "edison"),
        (run_job_checked(&jobs::pi(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes"), "dell"),
    ] {
        let peak = out
            .timeline
            .cpu_pct
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(peak > 90.0, "{label} pi peak cpu {peak:.0}%");
    }
}

/// Power timelines stay inside the Table 3 band at every sample.
#[test]
fn power_stays_inside_table3_band() {
    let e = run_job_checked(&jobs::wordcount2(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    for &(_, p) in e.timeline.power_w.points() {
        assert!(
            (35.0 * 1.40 - 0.01..=35.0 * 1.68 + 0.01).contains(&p),
            "edison cluster power {p:.2}W out of band"
        );
    }
    let d = run_job_checked(&jobs::wordcount2(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    for &(_, p) in d.timeline.power_w.points() {
        assert!(
            (2.0 * 52.0 - 0.01..=2.0 * 109.0 + 0.01).contains(&p),
            "dell cluster power {p:.2}W out of band"
        );
    }
}

/// Terasort is more memory-hungry than CPU-hungry (§5.2.4): peak memory
/// utilisation above peak CPU utilisation on the Edison cluster.
#[test]
fn terasort_is_memory_hungry() {
    let setup = ClusterSetup::edison(35).with_block(64 * 1024 * 1024);
    let out = run_job_checked(&jobs::terasort(Tune::Edison), &setup).expect("job finishes");
    let peak_mem = out.timeline.mem_pct.points().iter().map(|&(_, v)| v).fold(0.0, f64::max);
    assert!(peak_mem > 70.0, "terasort peak mem {peak_mem:.0}%");
}

/// Extension: speculative execution rescues a straggler. A 5× slow node
/// stretches wordcount2 badly with speculation off; turning it on claws
/// most of the loss back via duplicate maps.
#[test]
fn speculation_mitigates_a_straggler() {
    let mut base = jobs::wordcount2(Tune::Edison);
    base.input_bytes /= 4;
    base.map_tasks = 16;
    // keep the job map-dominated so the straggling *map* is the bottleneck
    base.reduce_tasks = 8;
    let healthy = run_job_checked(&base, &ClusterSetup::edison(8)).expect("job finishes");

    let mut no_spec = ClusterSetup::edison(8).with_straggler(3, 5.0);
    no_spec.speculation = false;
    let slow = run_job_checked(&base, &no_spec).expect("job finishes");
    assert!(
        slow.finish_time_s > healthy.finish_time_s * 1.5,
        "straggler should hurt: healthy {:.0}s, straggler {:.0}s",
        healthy.finish_time_s,
        slow.finish_time_s
    );

    let spec = ClusterSetup::edison(8).with_straggler(3, 5.0);
    let rescued = run_job_checked(&base, &spec).expect("job finishes");
    assert!(rescued.speculative_copies > 0, "expected speculative copies");
    assert!(
        rescued.finish_time_s < slow.finish_time_s * 0.85,
        "speculation should help: {:.0}s vs {:.0}s",
        rescued.finish_time_s,
        slow.finish_time_s
    );
}

/// With homogeneous nodes, speculation never fires — the calibrated
/// Table 8 results are unaffected by the feature being on by default.
#[test]
fn speculation_is_inert_on_healthy_clusters() {
    let mut p = jobs::wordcount2(Tune::Edison);
    p.input_bytes /= 4;
    p.map_tasks = 16;
    p.reduce_tasks = 8;
    let out = run_job_checked(&p, &ClusterSetup::edison(8)).expect("job finishes");
    assert_eq!(out.speculative_copies, 0);
}
