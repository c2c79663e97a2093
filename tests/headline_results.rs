//! Cross-crate integration tests asserting the paper's *headline shapes*:
//! who wins, where, and by roughly what factor. These are the claims the
//! reproduction must preserve even where absolute numbers drift.

use edison_mapreduce::engine::{run_job_checked, ClusterSetup};
use edison_mapreduce::jobs::{self, Tune};
use edison_core::registry::RunBudget;
use edison_web::httperf::{self, HttperfResult};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// One httperf point at seed 99 over a 2 s warm-up and an 8 s window.
fn quick(sc: &WebScenario, mix: WorkloadMix, conc: f64) -> HttperfResult {
    let budget = RunBudget { web_measure_s: 8, ..RunBudget::quick() };
    httperf::run_point(budget.web_point(sc.clone(), mix, conc, 99))
}

/// Abstract: "up to 3.5× improvement on work-done-per-joule for web
/// service applications" — at peak load the full Edison cluster must beat
/// the full Dell cluster by roughly that factor.
#[test]
fn web_peak_energy_efficiency_gain_is_about_3_5x() {
    let e = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let d = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
    let re = quick(&e, WorkloadMix::lightest(), 1024.0);
    let rd = quick(&d, WorkloadMix::lightest(), 1024.0);
    let gain = re.requests_per_joule / rd.requests_per_joule;
    assert!(
        (2.5..5.0).contains(&gain),
        "web efficiency gain {gain:.2} (edison {:.1} req/J, dell {:.1} req/J)",
        re.requests_per_joule,
        rd.requests_per_joule
    );
}

/// §5.1.2 observation 1-2: throughput scales linearly with Edison cluster
/// size, and full Edison ≈ full Dell at peak.
#[test]
fn web_throughput_scales_linearly_and_matches_dell() {
    let full = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let quarter = WebScenario::table6(Platform::Edison, ClusterScale::Quarter).unwrap();
    // drive each at its proportional peak concurrency
    let rf = quick(&full, WorkloadMix::lightest(), 1024.0);
    let rq = quick(&quarter, WorkloadMix::lightest(), 256.0);
    let ratio = rf.requests_per_sec / rq.requests_per_sec;
    assert!((3.2..4.8).contains(&ratio), "scale ratio {ratio:.2}");

    let dell = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
    let rd = quick(&dell, WorkloadMix::lightest(), 1024.0);
    let parity = rf.requests_per_sec / rd.requests_per_sec;
    assert!((0.8..1.3).contains(&parity), "edison/dell peak parity {parity:.2}");
}

/// §5.1.2 observation: at low concurrency Edison delay ≈ 5× Dell delay;
/// both are single-digit-to-low-double-digit ms.
#[test]
fn web_low_load_delay_gap() {
    let e = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let d = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
    let re = quick(&e, WorkloadMix::lightest(), 16.0);
    let rd = quick(&d, WorkloadMix::lightest(), 16.0);
    let gap = re.mean_delay_ms / rd.mean_delay_ms;
    assert!((3.0..8.0).contains(&gap), "delay gap {gap:.2} ({} vs {})", re.mean_delay_ms, rd.mean_delay_ms);
    assert!(re.mean_delay_ms < 20.0);
}

/// §5.1.2 observation 3: server errors appear sooner on the Edison
/// cluster (beyond concurrency 1024) than on Dell.
#[test]
fn web_error_onset_is_earlier_on_edison() {
    let e = WebScenario::table6(Platform::Edison, ClusterScale::Full).unwrap();
    let d = WebScenario::table6(Platform::Dell, ClusterScale::Full).unwrap();
    let re = quick(&e, WorkloadMix::lightest(), 2048.0);
    let rd = quick(&d, WorkloadMix::lightest(), 2048.0);
    assert!(re.error_rate > 0.02, "edison at 2048 should error (rate {})", re.error_rate);
    assert!(rd.error_rate < re.error_rate, "dell should error less at 2048");
}

/// Abstract: data-intensive MapReduce favours Edison on energy; the
/// compute-bound pi job favours Dell.
#[test]
fn mapreduce_energy_winners_match_paper() {
    let wc_e = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    let wc_d = run_job_checked(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    let gain = wc_d.energy_j / wc_e.energy_j;
    assert!(
        (1.4..3.5).contains(&gain),
        "wordcount energy gain {gain:.2} (paper 2.28): edison {:.0}J dell {:.0}J",
        wc_e.energy_j,
        wc_d.energy_j
    );

    let pi_e = run_job_checked(&jobs::pi(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    let pi_d = run_job_checked(&jobs::pi(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    assert!(
        pi_e.energy_j > pi_d.energy_j,
        "pi must favour Dell: edison {:.0}J dell {:.0}J",
        pi_e.energy_j,
        pi_d.energy_j
    );
}

/// §5.2.1: the input-combining optimisation helps Dell *more* than Edison
/// (it removes the container-wave overhead Dell suffers from 200 small
/// files), shrinking Edison's efficiency lead.
#[test]
fn combining_inputs_helps_dell_more() {
    let wc_e = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    let wc2_e = run_job_checked(&jobs::wordcount2(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes");
    let wc_d = run_job_checked(&jobs::wordcount(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    let wc2_d = run_job_checked(&jobs::wordcount2(Tune::Dell), &ClusterSetup::dell(2)).expect("job finishes");
    let dell_speedup = wc_d.finish_time_s / wc2_d.finish_time_s;
    let edison_speedup = wc_e.finish_time_s / wc2_e.finish_time_s;
    assert!(dell_speedup > edison_speedup, "dell {dell_speedup:.2} vs edison {edison_speedup:.2}");
    // and the energy lead shrinks
    let lead_wc = wc_d.energy_j / wc_e.energy_j;
    let lead_wc2 = wc2_d.energy_j / wc2_e.energy_j;
    assert!(lead_wc2 < lead_wc, "lead {lead_wc:.2} → {lead_wc2:.2}");
}

/// §5.3: the Edison cluster speeds up close to 2× per doubling on the
/// heavier jobs, but light jobs (logcount2) barely benefit from more
/// nodes.
#[test]
fn scalability_speedup_shapes() {
    let t35 = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(35)).expect("job finishes").finish_time_s;
    let t8 = run_job_checked(&jobs::wordcount(Tune::Edison), &ClusterSetup::edison(8)).expect("job finishes").finish_time_s;
    assert!(t8 / t35 > 2.0, "wordcount 8→35 nodes speedup {:.2}", t8 / t35);

    let mut lc2_35 = jobs::logcount2(Tune::Edison);
    lc2_35.map_tasks = 70;
    let mut lc2_8 = jobs::logcount2(Tune::Edison);
    lc2_8.map_tasks = 16;
    let l35 = run_job_checked(&lc2_35, &ClusterSetup::edison(35)).expect("job finishes").finish_time_s;
    let l8 = run_job_checked(&lc2_8, &ClusterSetup::edison(8).with_block(64 * 1024 * 1024)).expect("job finishes").finish_time_s;
    assert!(
        l8 / l35 < t8 / t35,
        "light job should scale worse: logcount2 {:.2} vs wordcount {:.2}",
        l8 / l35,
        t8 / t35
    );
}

/// Determinism across the whole stack: same seed → bit-identical results.
#[test]
fn end_to_end_determinism() {
    let s = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let a = quick(&s, WorkloadMix::img10(), 64.0);
    let b = quick(&s, WorkloadMix::img10(), 64.0);
    assert_eq!(a.requests_per_sec, b.requests_per_sec);
    assert_eq!(a.energy_j, b.energy_j);
    let ja = run_job_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4)).expect("job finishes");
    let jb = run_job_checked(&jobs::logcount2(Tune::Edison), &ClusterSetup::edison(4)).expect("job finishes");
    assert_eq!(ja.finish_time_s, jb.finish_time_s);
}
