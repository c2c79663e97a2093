//! Overload experiments: the graceful-degradation ramp (`overload_sweep`).
//!
//! The paper's figures stop at the saturation knee; this sweep walks past
//! it. Each platform lane ramps offered load over fixed multiples of its
//! guards-off knee, once with the guard layer off and once with the
//! reference guard on (deadlines, circuit breakers, an admission bucket
//! sized to the knee, the CoDel queue gate, brownout). Both arms of a
//! rung share one workload seed, so they face the identical offered load
//! and every row difference is the guard's doing: goodput, availability,
//! shed/degraded fractions, p99, deadline misses, and req/J per rung.
//!
//! "Availability" here is stricter than `fault_sweep`'s and is
//! *demand-normalized*: full-fidelity completions over the request
//! demand the clients offered (`conn/s × window × calls/conn`). Because
//! both arms share the seed, the denominator is identical across them —
//! a guard can only raise availability by completing more real requests,
//! never by relabeling refusals, and a degraded or shed response never
//! counts as a success. The guard wins past the knee because bounding
//! the backlog keeps the accepted work fast (no 5xx storms on Edison, no
//! SYN-retransmit congestion collapse on Dell) instead of letting every
//! request queue toward timeout.

use crate::registry::RunBudget;
use crate::report::{table, Comparison, Report};
use edison_simguard::{Budget, GuardConfig};
use edison_simrun::{derive_seed_at, Executor, RunError, SimError, ROOT_SEED};
use edison_simtel::Telemetry;
use edison_web::httperf::CALLS_PER_CONN;
use edison_web::stack::{run, run_traced, Metrics, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// Offered-load rungs as multiples of a lane's knee: two at-or-below,
/// two past (where the guards-off arm falls off the cliff).
const RUNGS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// One ramp lane: a platform/scale pair plus its guards-off saturation
/// knee (connections/s at [`CALLS_PER_CONN`] calls/conn where availability starts
/// collapsing — measured once, then pinned so the rungs are stable).
struct Lane {
    platform: Platform,
    scale: ClusterScale,
    knee_cps: f64,
}

/// The CI-sized lanes. `--full` widens the measurement window through
/// the budget but keeps the same lanes: the knee is a property of the
/// scenario, not of how long we watch it.
fn lanes() -> Vec<Lane> {
    vec![
        // Eighth-scale goodput saturates ≈850 req/s ⇒ ≈130 conn/s; past
        // it the bounded PHP backlog overflows into 5xx storms
        Lane { platform: Platform::Edison, scale: ClusterScale::Eighth, knee_cps: 130.0 },
        // one Dell node saturates ≈768 conn/s; past it the listen queue
        // drops SYNs and goodput *collapses* under retransmit backoff
        Lane { platform: Platform::Dell, scale: ClusterScale::Half, knee_cps: 768.0 },
    ]
}

/// The reference guard — [`GuardConfig::web_defaults`] with the
/// `--guard-deadline-ms` override applied. Shared with `fault_sweep
/// --guard`, which wants deadlines/breakers but no admission bucket.
pub(crate) fn reference_guard(budget: &RunBudget) -> GuardConfig {
    let mut g = GuardConfig::web_defaults();
    if let Some(ms) = budget.guard_deadline_ms {
        g.deadline = Budget::from_millis(ms);
    }
    g
}

/// Web-tier config of one (lane, rung, arm) cell. The guarded arm sizes
/// the LB admission bucket to the lane's knee: admit what the cluster
/// can actually serve, bounce the rest at the LB instead of queueing
/// them into timeout.
fn rung_cfg(
    lane: &Lane,
    mult: f64,
    guarded: bool,
    budget: &RunBudget,
    seed: u64,
) -> Result<StackConfig, SimError> {
    let scenario = WebScenario::table6_or_err(lane.platform, lane.scale)?;
    let mut cfg = budget.web_point(scenario, WorkloadMix::lightest(), lane.knee_cps * mult, seed);
    if guarded {
        let mut g = reference_guard(budget);
        g.admit_rate = lane.knee_cps;
        g.admit_burst = lane.knee_cps * 0.5;
        cfg.guard = g;
    }
    Ok(cfg)
}

/// The per-rung numbers one table row reports.
struct RungStats {
    goodput: f64,
    avail: f64,
    shed_pct: f64,
    degraded_pct: f64,
    errors: u64,
    p99_ms: f64,
    miss_pct: f64,
    rpj: f64,
}

/// Reduce one run to its row. Availability is full-fidelity completions
/// over `offered_req` — the demand the workload generator issued, a pure
/// function of the rung, identical across the two arms of a rung.
/// Degraded completions are subtracted from the numerator (a stub is not
/// a success); shed requests and LB-rejected connections (converted to
/// their foregone calls) are reported as fractions of the same demand.
/// The deadline-miss fraction applies the same `deadline_ms` cut to both
/// arms' delay samples, so the guards-off arm is scored against the
/// deadline it never knew about.
fn rung_stats(m: &mut Metrics, window: f64, deadline_ms: f64, offered_req: f64) -> RungStats {
    let full_ok = (m.completed_total - m.guard.degraded) as f64;
    let miss = if m.delays_ms.is_empty() {
        0.0
    } else {
        let late = m.delays_ms.samples().iter().filter(|&&d| d > deadline_ms).count();
        late as f64 / m.delays_ms.len() as f64
    };
    RungStats {
        goodput: m.completed as f64 / window,
        avail: (full_ok / offered_req.max(1.0)).min(1.0),
        shed_pct: (m.guard.shed as f64 + m.guard.lb_rejected as f64 * CALLS_PER_CONN)
            / offered_req.max(1.0)
            * 100.0,
        degraded_pct: m.guard.degraded as f64 / offered_req.max(1.0) * 100.0,
        errors: m.server_errors + m.client_errors,
        p99_ms: m.delays_ms.percentile(99.0),
        miss_pct: miss * 100.0,
        rpj: m.requests_per_joule(),
    }
}

/// Ramp offered load past the knee on each lane, guards off vs on, and
/// report the graceful-degradation effect: with guards on, availability
/// and p99 must strictly improve past the knee while the shed/degraded
/// fractions account for the load the guard refused to queue.
pub fn overload_sweep(
    budget: &RunBudget,
    exec: &Executor,
    tel: &mut Telemetry,
) -> Result<Report, RunError> {
    let lanes = lanes();
    // flatten (lane, rung, arm); the two arms of a rung share a seed so
    // they face the identical offered load
    let mut points: Vec<(usize, usize, bool)> = Vec::new();
    for li in 0..lanes.len() {
        for ri in 0..RUNGS.len() {
            for guarded in [false, true] {
                points.push((li, ri, guarded));
            }
        }
    }
    let results = exec.sweep(
        "overload_sweep",
        &points,
        tel,
        |_, &(li, ri, guarded)| {
            let l = &lanes[li];
            let arm = if guarded { "on" } else { "off" };
            format!("{:?}x{:.1}g{arm}", l.platform, RUNGS[ri])
        },
        |_, &(li, ri, guarded)| -> Result<Metrics, SimError> {
            let seed = derive_seed_at(ROOT_SEED, "overload_sweep", li * RUNGS.len() + ri);
            Ok(run(rung_cfg(&lanes[li], RUNGS[ri], guarded, budget, seed)?).metrics)
        },
    )?;
    if tel.is_on() {
        // trace the guarded Edison 1.5× rung — the row the brownout
        // spans, breaker gauges and queue-delay histogram come from
        let seed = derive_seed_at(ROOT_SEED, "overload_sweep", 2);
        let cfg = rung_cfg(&lanes[0], RUNGS[2], true, budget, seed)?;
        let mut world = run_traced(cfg, tel.child());
        tel.merge(world.take_telemetry());
    }

    let window = budget.web_measure_s as f64;
    let run_s = (budget.web_warmup_s + budget.web_measure_s) as f64;
    let deadline_ms = reference_guard(budget).deadline.get().as_millis_f64();
    let mut rows = Vec::new();
    // per (lane, rung): [off, on] stats, for the past-knee comparisons
    let mut cells: Vec<Vec<[Option<RungStats>; 2]>> =
        lanes.iter().map(|_| (0..RUNGS.len()).map(|_| [None, None]).collect()).collect();
    for (&(li, ri, guarded), r) in points.iter().zip(results) {
        let mut m = r?;
        let l = &lanes[li];
        let offered = l.knee_cps * RUNGS[ri] * run_s * CALLS_PER_CONN;
        let s = rung_stats(&mut m, window, deadline_ms, offered);
        rows.push(vec![
            format!("{:?}", l.platform),
            format!("{:.0}", l.knee_cps * RUNGS[ri]),
            (if guarded { "on" } else { "off" }).to_string(),
            format!("{:.0}", s.goodput),
            format!("{:.2}%", s.avail * 100.0),
            format!("{:.1}%", s.shed_pct),
            format!("{:.1}%", s.degraded_pct),
            format!("{}", s.errors),
            format!("{:.1}", s.p99_ms),
            format!("{:.1}%", s.miss_pct),
            format!("{:.1}", s.rpj),
        ]);
        cells[li][ri][usize::from(guarded)] = Some(s);
    }
    let body = table(
        &[
            "platform", "conn/s", "guard", "goodput", "avail", "shed", "degraded", "errors",
            "p99 ms", "miss", "req/J",
        ],
        &rows,
    );

    // the acceptance comparisons: at the top rung (2× knee) the guarded
    // arm must strictly beat the unguarded one on availability and p99
    // (reference 1.0 = parity; measured > 1 = the guard won)
    let mut comparisons = Vec::new();
    for (li, lane) in lanes.iter().enumerate() {
        let top = RUNGS.len() - 1;
        let (Some(off), Some(on)) = (&cells[li][top][0], &cells[li][top][1]) else {
            continue;
        };
        let p = format!("{:?}", lane.platform);
        comparisons.push(Comparison::new(
            format!("{p} 2.0x knee availability, on/off (>1 = graceful)"),
            1.0,
            on.avail / off.avail.max(1e-9),
        ));
        comparisons.push(Comparison::new(
            format!("{p} 2.0x knee p99 delay, off/on (>1 = guard faster)"),
            1.0,
            off.p99_ms / on.p99_ms.max(1e-9),
        ));
        comparisons.push(Comparison::new(
            format!("{p} 2.0x knee deadline-miss fraction, off-on (pp)"),
            0.0,
            off.miss_pct - on.miss_pct,
        ));
    }
    Ok(Report {
        id: "overload_sweep".into(),
        title: "Goodput, availability & degradation past the knee, guards off vs on".into(),
        body,
        comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_straddle_the_knee_and_lanes_cover_both_platforms() {
        assert!(RUNGS.iter().any(|&m| m < 1.0) && RUNGS.iter().any(|&m| m > 1.0));
        assert!(RUNGS.windows(2).all(|w| w[0] < w[1]), "rungs must ascend");
        let ls = lanes();
        assert!(ls.iter().any(|l| l.platform == Platform::Edison));
        assert!(ls.iter().any(|l| l.platform == Platform::Dell));
        for l in &ls {
            assert!(l.knee_cps > 0.0);
        }
    }

    #[test]
    fn deadline_override_reaches_the_reference_guard() {
        let mut b = RunBudget::quick();
        assert_eq!(reference_guard(&b), GuardConfig::web_defaults());
        b.guard_deadline_ms = Some(800);
        assert_eq!(reference_guard(&b).deadline, Budget::from_millis(800));
    }

    #[test]
    fn guards_strictly_improve_availability_and_p99_past_the_knee() {
        // the acceptance criterion in miniature: the Dell lane's 2× rung
        // (where the unguarded listen queue goes into congestion
        // collapse), both arms, quick budget — guards on must win on
        // availability AND p99 while actually shedding something
        let budget = RunBudget::quick();
        let ls = lanes();
        let top = RUNGS[RUNGS.len() - 1];
        let seed = derive_seed_at(ROOT_SEED, "overload_sweep", 2 * RUNGS.len() - 1);
        let mut off = run(rung_cfg(&ls[1], top, false, &budget, seed).unwrap()).metrics;
        let mut on = run(rung_cfg(&ls[1], top, true, &budget, seed).unwrap()).metrics;
        let g = &on.guard;
        assert_eq!(
            g.admitted,
            g.completed + g.degraded + g.shed + g.failed,
            "guard conservation identity violated: {g:?}"
        );
        let window = budget.web_measure_s as f64;
        let run_s = (budget.web_warmup_s + budget.web_measure_s) as f64;
        let offered = ls[1].knee_cps * top * run_s * CALLS_PER_CONN;
        let ms = reference_guard(&budget).deadline.get().as_millis_f64();
        let s_off = rung_stats(&mut off, window, ms, offered);
        let s_on = rung_stats(&mut on, window, ms, offered);
        assert!(s_on.shed_pct + s_on.degraded_pct > 0.0, "guard never engaged");
        assert!(
            s_on.avail > s_off.avail,
            "availability must improve: on {:.4} vs off {:.4}",
            s_on.avail,
            s_off.avail
        );
        assert!(
            s_on.p99_ms < s_off.p99_ms,
            "p99 must improve: on {:.1} vs off {:.1}",
            s_on.p99_ms,
            s_off.p99_ms
        );
    }
}
