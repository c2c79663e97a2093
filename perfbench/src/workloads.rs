//! The workloads' inputs, and one point's set-up, run, digest and checks.
//!
//! A workload is a fixed list of simulation points. Every input is a pure
//! function of the workload seed: point `i` gets
//! `derive_seed(seed, workload, i)`, and nothing else varies with it.
//! Runs go through the public, telemetry-off entry points `stack::run`
//! and `run_job_checked`, which are what `repro` calls.

use edison_mapreduce::engine::{
    run_job_checked, run_job_profiled_checked, run_job_traced_checked, ClusterSetup, JobOutcome,
};
use edison_mapreduce::jobs::{self, JobProfile, Tune};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::EngineProfile;
use edison_simfault::FaultPlan;
use edison_simguard::GuardConfig;
use edison_simrun::derive_seed;
use edison_simtel::Telemetry;
use edison_web::httperf::CALLS_PER_CONN;
use edison_web::stack::{self, GenMode, Metrics, StackConfig, WebWorld};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};
use std::hint::black_box;

const MIB: u64 = 1024 * 1024;

/// One simulation point of a workload. Built once per run, so the size
/// gap between the variants costs nothing worth a box.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Point {
    Web(StackConfig),
    Mr(MrCell),
}

/// One Table 8 cell: a job on a cluster, with its own seed.
#[derive(Debug, Clone, PartialEq)]
pub struct MrCell {
    pub job: &'static str,
    pub tune: Tune,
    pub workers: usize,
    pub seed: u64,
}

#[allow(clippy::too_many_arguments)]
fn web_point(
    workload: &str,
    seed: u64,
    index: u64,
    platform: Platform,
    scale: ClusterScale,
    mix: WorkloadMix,
    conn_per_s: f64,
    (warmup_s, measure_s): (u64, u64),
) -> Result<StackConfig, String> {
    let scenario = WebScenario::table6_or_err(platform, scale).map_err(|e| e.to_string())?;
    let mut cfg = StackConfig::new(
        scenario,
        mix,
        GenMode::Httperf {
            connections_per_sec: conn_per_s,
            calls_per_conn: CALLS_PER_CONN,
        },
        derive_seed(seed, workload, index),
    );
    cfg.warmup = SimDuration::from_secs(warmup_s);
    cfg.measure = SimDuration::from_secs(measure_s);
    Ok(cfg)
}

/// The points of `workload` at `seed`, in run order.
pub fn points(workload: &str, seed: u64) -> Result<Vec<Point>, String> {
    let mut out = Vec::new();
    match workload {
        "web_small" => {
            // the repro quick budget: 2 s warmup + 6 s measure
            let lanes = [
                (ClusterScale::Eighth, WorkloadMix::lightest()),
                (ClusterScale::Quarter, WorkloadMix::hit(0.60)),
            ];
            for (scale, mix) in lanes {
                for conc in [8.0, 16.0, 32.0, 64.0, 128.0, 256.0] {
                    let i = out.len() as u64;
                    let cfg = web_point(
                        workload,
                        seed,
                        i,
                        Platform::Edison,
                        scale,
                        mix,
                        conc,
                        (2, 6),
                    )?;
                    out.push(Point::Web(cfg));
                }
            }
        }
        "web_knee" => {
            // the fig04-09 full-budget window: 5 s warmup + 20 s measure
            let cells = [
                (Platform::Edison, 1024.0, WorkloadMix::lightest()),
                (Platform::Edison, 2048.0, WorkloadMix::img20()),
                (Platform::Dell, 1024.0, WorkloadMix::lightest()),
                (Platform::Dell, 2048.0, WorkloadMix::img20()),
            ];
            for (platform, conc, mix) in cells {
                let i = out.len() as u64;
                let cfg = web_point(
                    workload,
                    seed,
                    i,
                    platform,
                    ClusterScale::Full,
                    mix,
                    conc,
                    (5, 20),
                )?;
                out.push(Point::Web(cfg));
            }
        }
        "web_overload" => {
            // overload_sweep's lanes and knees at the 2x rung, plus a crash
            // of web node 0 at 10 s for 3 s with a retry budget of 2
            let lanes = [
                (Platform::Edison, ClusterScale::Eighth, 130.0),
                (Platform::Dell, ClusterScale::Half, 768.0),
            ];
            for (platform, scale, knee) in lanes {
                for guarded in [false, true] {
                    let i = out.len() as u64;
                    let mix = WorkloadMix::lightest();
                    let mut cfg =
                        web_point(workload, seed, i, platform, scale, mix, 2.0 * knee, (5, 20))?;
                    cfg.fault_plan = FaultPlan::new().crash_restart(
                        0,
                        SimTime::from_secs(10),
                        SimDuration::from_secs(3),
                    );
                    cfg.retry_budget = 2;
                    if guarded {
                        let mut g = GuardConfig::web_defaults();
                        g.admit_rate = knee;
                        g.admit_burst = knee * 0.5;
                        cfg.guard = g;
                    }
                    out.push(Point::Web(cfg));
                }
            }
        }
        "mr_matrix" => {
            // the full Table 8 matrix, four times with distinct seeds
            let clusters = [
                (Tune::Edison, 35),
                (Tune::Edison, 17),
                (Tune::Edison, 8),
                (Tune::Edison, 4),
                (Tune::Dell, 2),
                (Tune::Dell, 1),
            ];
            for _ in 0..4 {
                for job in jobs::JOB_NAMES {
                    for (tune, workers) in clusters {
                        let seed = derive_seed(seed, workload, out.len() as u64);
                        out.push(Point::Mr(MrCell {
                            job,
                            tune,
                            workers,
                            seed,
                        }));
                    }
                }
            }
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(out)
}

impl MrCell {
    /// The job profile and cluster set-up of this cell, with Table 8's
    /// per-size re-tuning (as `repro table8` applies it): terasort runs
    /// 64 MB blocks, the combined-input jobs raise the block size so each
    /// vcore still gets one split, and those jobs and pi re-split to one
    /// map per vcore.
    pub fn inputs(&self) -> Result<(JobProfile, ClusterSetup), String> {
        let mut setup = match self.tune {
            Tune::Edison => ClusterSetup::edison(self.workers),
            Tune::Dell => ClusterSetup::dell(self.workers),
        };
        setup.seed = self.seed;
        if self.job == "terasort" {
            setup = setup.with_block(64 * MIB);
        }
        let combined = matches!(self.job, "wordcount2" | "logcount2");
        if combined {
            let split = 1024 * MIB / (2 * setup.workers as u64).max(1);
            let block = split.max(setup.block_bytes);
            setup = setup.with_block(block);
        }
        let mut profile = jobs::by_name(self.job, self.tune).map_err(|e| e.to_string())?;
        if combined || self.job == "pi" {
            let vcores = match self.tune {
                Tune::Edison => 2 * setup.workers as u32,
                Tune::Dell => 12 * setup.workers as u32,
            };
            profile = profile.with_map_tasks(vcores.max(1));
        }
        Ok((profile, setup))
    }
}

/// A point's run output, before it is reduced to an [`Outcome`]. Not
/// boxed: a box would allocate inside the timed entry-point call.
#[allow(clippy::large_enum_variant)]
pub enum Output {
    Web(WebWorld),
    Mr(JobOutcome),
}

/// What one point's run produced, reduced to what the benchmark checks
/// and reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Bit-exact digest of the run's output (web `Metrics`, MapReduce
    /// `JobOutcome`).
    pub digest: u64,
    /// Simulated seconds the run covered.
    pub sim_s: f64,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Web only: requests completed over the whole run.
    pub completed_total: u64,
    /// Web only: requests the guard shed, degraded or rejected at the LB,
    /// and the requests offered to it (admitted plus rejected).
    pub short_circuit: u64,
    pub offered: u64,
    pub breaker_trips: u64,
    pub retries: u64,
    pub failovers: u64,
}

/// A point's inputs, ready for the entry-point call, so that timing
/// brackets the call alone.
pub enum Prepared {
    Web(StackConfig),
    Mr(JobProfile, ClusterSetup),
}

/// A telemetry-on run: its output, the telemetry it recorded and, when
/// profiled, the engine profile. Returned whole so the caller drops the
/// recorded spans outside its timer.
pub struct TelemetryRun {
    pub out: Output,
    pub tel: Telemetry,
    pub profile: Option<EngineProfile>,
}

impl Point {
    /// The point's public constructors: `WebWorld::new`, or the job
    /// profile and cluster set-up. Timed as set-up; the result is dropped.
    pub fn setup(&self) -> Result<(), String> {
        match self {
            Point::Web(cfg) => {
                black_box(WebWorld::new(cfg.clone()));
            }
            Point::Mr(cell) => {
                black_box(cell.inputs()?);
            }
        }
        Ok(())
    }

    pub fn prepare(&self) -> Result<Prepared, String> {
        Ok(match self {
            Point::Web(cfg) => Prepared::Web(cfg.clone()),
            Point::Mr(cell) => {
                let (profile, setup) = cell.inputs()?;
                Prepared::Mr(profile, setup)
            }
        })
    }

    /// Check `out` and reduce it to an [`Outcome`].
    pub fn outcome(&self, out: &Output) -> Outcome {
        match (self, out) {
            (Point::Web(cfg), Output::Web(world)) => web_outcome(cfg, &world.metrics),
            (_, Output::Mr(o)) => mr_outcome(o),
            (Point::Mr(_), Output::Web(_)) => {
                unreachable!("a MapReduce point never runs a web world")
            }
        }
    }

    /// A short human-readable name of the point.
    pub fn label(&self) -> String {
        match self {
            Point::Web(cfg) => {
                let conc = match cfg.gen {
                    GenMode::Httperf {
                        connections_per_sec,
                        ..
                    } => connections_per_sec,
                    GenMode::Python { requests_per_sec } => requests_per_sec,
                };
                let guard = if cfg.guard.is_active() {
                    " guarded"
                } else {
                    ""
                };
                let sc = &cfg.scenario;
                format!("{:?}-{:?} {conc} conn/s{guard}", sc.platform, sc.scale)
            }
            Point::Mr(c) => format!("{}@{:?}-{}", c.job, c.tune, c.workers),
        }
    }
}

impl Prepared {
    /// The public telemetry-off entry point: `stack::run` or
    /// `run_job_checked`.
    pub fn run(self) -> Result<Output, String> {
        match self {
            Prepared::Web(cfg) => Ok(Output::Web(stack::run(cfg))),
            Prepared::Mr(profile, setup) => run_job_checked(&profile, &setup)
                .map(Output::Mr)
                .map_err(|e| e.to_string()),
        }
    }

    /// The telemetry-on entry points: `stack::run_traced` /
    /// `run_job_traced_checked`, or their `run_profiled` forms when `tel`
    /// asks for profiling.
    pub fn run_with(self, tel: Telemetry) -> Result<TelemetryRun, String> {
        let profiled = tel.profiling();
        match self {
            Prepared::Web(cfg) => {
                let (mut world, profile) = if profiled {
                    let (w, p) = stack::run_profiled(cfg, tel);
                    (w, Some(p))
                } else {
                    (stack::run_traced(cfg, tel), None)
                };
                let tel = world.take_telemetry();
                Ok(TelemetryRun {
                    out: Output::Web(world),
                    tel,
                    profile,
                })
            }
            Prepared::Mr(job, setup) => {
                let (out, tel, profile) = if profiled {
                    let (o, t, p) =
                        run_job_profiled_checked(&job, &setup, tel).map_err(|e| e.to_string())?;
                    (o, t, Some(p))
                } else {
                    let (o, t) =
                        run_job_traced_checked(&job, &setup, tel).map_err(|e| e.to_string())?;
                    (o, t, None)
                };
                Ok(TelemetryRun {
                    out: Output::Mr(out),
                    tel,
                    profile,
                })
            }
        }
    }
}

/// FNV-1a over 64-bit words: a stable digest of exact output values.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    fn samples(&mut self, s: &[f64]) -> &mut Self {
        self.u64(s.len() as u64);
        for &v in s {
            self.f64(v);
        }
        self
    }

    fn series(&mut self, s: &[(SimTime, f64)]) -> &mut Self {
        self.u64(s.len() as u64);
        for &(t, v) in s {
            self.u64(t.0).f64(v);
        }
        self
    }

    fn windows(&mut self, w: &[edison_simfault::RecoveryWindow]) -> &mut Self {
        self.u64(w.len() as u64);
        for r in w {
            self.u64(r.node as u64).u64(r.start.0).u64(r.end.0);
        }
        self
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

fn web_outcome(cfg: &StackConfig, m: &Metrics) -> Outcome {
    let mut d = Digest::default();
    d.u64(m.completed)
        .u64(m.server_errors)
        .u64(m.client_errors)
        .u64(m.syn_drops);
    d.samples(m.delays_ms.samples())
        .samples(m.cache_delays_ms.samples())
        .samples(m.db_delays_ms.samples());
    d.u64(m.conn_delay_hist.count())
        .u64(m.conn_delay_hist.underflow())
        .u64(m.conn_delay_hist.overflow());
    for (edge, n) in m.conn_delay_hist.bars() {
        d.f64(edge).u64(n);
    }
    d.series(m.power_w.points());
    d.samples(m.web_cpu.samples())
        .samples(m.cache_cpu.samples());
    d.samples(m.web_mem.samples())
        .samples(m.cache_mem.samples());
    d.f64(m.energy_j)
        .u64(m.completed_total)
        .series(m.throughput_ts.points());
    d.u64(m.faults_injected).u64(m.failovers).u64(m.retries);
    d.u64(m.retry_dead_total).u64(m.retry_overflow_total);
    d.samples(m.recovery_s.samples())
        .windows(&m.recovery_windows);
    let g = &m.guard;
    d.u64(g.admitted)
        .u64(g.completed)
        .u64(g.degraded)
        .u64(g.shed)
        .u64(g.failed);
    d.u64(g.lb_rejected)
        .u64(g.deadline_miss)
        .u64(g.breaker_trips)
        .u64(g.brownout_entries);
    d.windows(&g.breaker_windows);

    let mut problems = Vec::new();
    if !(m.energy_j.is_finite() && m.energy_j > 0.0) {
        problems.push(format!(
            "energy {} J is not finite and positive",
            m.energy_j
        ));
    }
    if cfg.guard.is_active() && g.admitted != g.completed + g.degraded + g.shed + g.failed {
        problems.push(format!(
            "guard accounting: admitted {} != completed {} + degraded {} + shed {} + failed {}",
            g.admitted, g.completed, g.degraded, g.shed, g.failed
        ));
    }
    Outcome {
        digest: d.value(),
        sim_s: (cfg.warmup + cfg.measure).as_secs_f64(),
        problems,
        completed_total: m.completed_total,
        short_circuit: g.shed + g.degraded + g.lb_rejected,
        offered: g.admitted + g.lb_rejected,
        breaker_trips: g.breaker_trips,
        retries: m.retries,
        failovers: m.failovers,
    }
}

fn mr_outcome(o: &JobOutcome) -> Outcome {
    let mut d = Digest::default();
    d.f64(o.finish_time_s)
        .f64(o.energy_j)
        .f64(o.data_local_fraction);
    let t = &o.timeline;
    for s in [
        &t.cpu_pct,
        &t.mem_pct,
        &t.power_w,
        &t.map_pct,
        &t.reduce_pct,
    ] {
        d.series(s.points());
    }
    d.f64(o.first_reduce_s).f64(o.cpu_rise_s);
    d.u64(u64::from(o.speculative_copies))
        .u64(u64::from(o.task_reexecs))
        .u64(u64::from(o.nodes_lost));
    d.f64(o.mean_recovery_s).windows(&o.recovery_windows);
    d.u64(u64::from(o.guard_breaker_trips))
        .u64(u64::from(o.guard_deadline_miss));
    let mut problems = Vec::new();
    if !(o.energy_j.is_finite() && o.energy_j > 0.0) {
        problems.push(format!(
            "energy {} J is not finite and positive",
            o.energy_j
        ));
    }
    Outcome {
        digest: d.value(),
        sim_s: o.finish_time_s,
        problems,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Fingerprint of a point's inputs (configs hold no `PartialEq`).
    fn fingerprint(p: &Point) -> String {
        format!("{p:?}")
    }

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        for (name, _) in WORKLOADS {
            let a: Vec<String> = points(name, 7)
                .expect("known workload")
                .iter()
                .map(fingerprint)
                .collect();
            let b: Vec<String> = points(name, 7)
                .expect("known workload")
                .iter()
                .map(fingerprint)
                .collect();
            let c: Vec<String> = points(name, 8)
                .expect("known workload")
                .iter()
                .map(fingerprint)
                .collect();
            assert_eq!(a, b, "{name}: same seed, same inputs");
            assert_eq!(
                a.len(),
                c.len(),
                "{name}: the seed does not change the point count"
            );
            assert!(
                a.iter().zip(&c).all(|(x, y)| x != y),
                "{name}: every point's seed follows the workload seed"
            );
        }
        assert!(points("nope", 1).is_err());
    }

    #[test]
    fn point_counts_match_the_workload_table() {
        let count = |w| points(w, 1).expect("known workload").len();
        assert_eq!(count("web_small"), 12);
        assert_eq!(count("web_knee"), 4);
        assert_eq!(count("web_overload"), 4);
        assert_eq!(count("mr_matrix"), 144);
    }

    #[test]
    fn every_mr_cell_resolves() {
        for p in points("mr_matrix", 1).expect("known workload") {
            let Point::Mr(cell) = p else {
                panic!("mr_matrix holds only MapReduce cells")
            };
            assert!(cell.inputs().is_ok(), "{cell:?}");
        }
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a.value(), b.value());
    }
}
