//! `repro` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! repro --list               list experiment ids
//! repro table8               run one experiment (quick budget)
//! repro --full table8        run one experiment at paper scale
//! repro --all                run everything (quick)
//! repro --all --full --out reports/   write one file per experiment + EXPERIMENTS.md
//! repro --jobs 4 table8      cap the sweep worker pool at 4
//! repro smoke --trace t.json --metrics m.prom   record telemetry
//! ```
//!
//! `--out DIR` writes each report to `DIR/<id>.txt` and the
//! paper-vs-measured ledger over the experiments that ran to
//! `DIR/EXPERIMENTS.md` (see `edison_core::ledger`); the committed
//! EXPERIMENTS.md is the one `repro --all --full --out DIR` writes.
//!
//! `--trace FILE` writes a Chrome/Perfetto trace (open at ui.perfetto.dev),
//! `--metrics FILE` writes Prometheus text exposition, `--telemetry-csv
//! FILE` writes the flat CSV form. Any of these flags enables the
//! telemetry sink; experiments record a representative traced run into it.
//! `--profile` additionally turns on engine self-profiling (simprof):
//! traced runs record the `profile_*` breakdown (per-event-kind dispatch
//! counts, sim-time attribution, heap totals, depth high-water counter
//! track) into the same artefacts.
//!
//! `--jobs N` bounds the sweep executor's worker pool (default: the
//! `EDISON_REPRO_JOBS` environment variable, else available cores). The
//! width never changes results — seeds are derived per point, and sweep
//! output is ordered by input index.
//!
//! `--fault-plan FILE` loads a simfault text spec (see
//! `crates/simfault/src/spec.rs` for the grammar) and hands it to
//! fault-aware experiments (`fault_sweep`, `explore`), replacing their
//! built-in schedules. Parse errors are CLI errors (exit 2).
//!
//! `--explore-budget N` caps the candidate fault schedules the `explore`
//! experiment evaluates (and the worst-case candidates per `fault_sweep`
//! row). Same seed + budget ⇒ byte-identical exploration at any `--jobs`
//! width; `repro explore` prints the worst schedule and, when it finds
//! an availability cliff, a minimal reproducer as a `--fault-plan` spec.
//!
//! `--guard` enables the reference overload guard (deadlines, circuit
//! breakers, brownout — see `GuardConfig::web_defaults`) on fault-aware
//! web experiments: `repro fault_sweep --guard` plays the crash
//! schedules against a guarded tier, so breaker trips and
//! overflow-vs-dead retry splits land in the table, and `repro explore
//! --guard` probes follow-up crashes inside observed circuit-breaker
//! half-open windows (the "halfopen" phase).
//! `--guard-deadline-ms N` overrides the guard's 1500 ms request budget
//! (both for `--guard` runs and for `overload_sweep`'s guarded arm).
//! `overload_sweep` itself always runs guards-off and guards-on arms.
//!
//! Exit codes: `0` success, `2` CLI error / unknown experiment / bad
//! fault-plan file, `3` a sweep point panicked
//! ([`RunError::PointFailed`]), `4` a typed simulation error
//! ([`RunError::Sim`]), `5` an injected fault the stack could not recover
//! from (`SimError::FaultUnrecovered`) — never 3, which is reserved for
//! harness failures.

use edison_core::export::telemetry_csv;
use edison_core::ledger;
use edison_core::registry::{self, Experiment, RunBudget};
use edison_simfault::FaultPlan;
use edison_simrun::{Executor, RunError};
use edison_simtel::Telemetry;
use std::fs;
use std::path::PathBuf;

/// CLI-error exit: print and stop instead of panicking with a backtrace.
fn die(msg: String) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Consume the value operand of `flag`.
fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => die(format!("{flag} needs a value")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut list = false;
    let mut run_all = false;
    let mut full = false;
    let mut jobs: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut csv_path: Option<PathBuf> = None;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut explore_budget: Option<usize> = None;
    let mut guard = false;
    let mut guard_deadline_ms: Option<u64> = None;
    let mut profile = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            // a bare `--` separator (e.g. `cargo repro -- fault_sweep`)
            "--" => {}
            "--list" => list = true,
            "--all" => run_all = true,
            "--full" => full = true,
            "--fault-plan" => {
                let path = flag_value(&args, &mut i, "--fault-plan");
                let text = match fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => die(format!("read fault plan {path}: {e}")),
                };
                match FaultPlan::parse(&text) {
                    Ok(plan) => fault_plan = Some(plan),
                    Err(e) => die(format!("fault plan {path}: {e}")),
                }
            }
            "--jobs" => {
                let v = flag_value(&args, &mut i, "--jobs");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => die(format!("--jobs needs a positive integer, got '{v}'")),
                }
            }
            "--explore-budget" => {
                let v = flag_value(&args, &mut i, "--explore-budget");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => explore_budget = Some(n),
                    _ => die(format!("--explore-budget needs a positive integer, got '{v}'")),
                }
            }
            "--guard" => guard = true,
            "--guard-deadline-ms" => {
                let v = flag_value(&args, &mut i, "--guard-deadline-ms");
                match v.parse::<u64>() {
                    Ok(n) if n >= 1 => guard_deadline_ms = Some(n),
                    _ => die(format!("--guard-deadline-ms needs a positive integer, got '{v}'")),
                }
            }
            "--out" => out_dir = Some(PathBuf::from(flag_value(&args, &mut i, "--out"))),
            "--trace" => trace_path = Some(PathBuf::from(flag_value(&args, &mut i, "--trace"))),
            "--metrics" => metrics_path = Some(PathBuf::from(flag_value(&args, &mut i, "--metrics"))),
            "--telemetry-csv" => csv_path = Some(PathBuf::from(flag_value(&args, &mut i, "--telemetry-csv"))),
            "--profile" => profile = true,
            "--help" | "-h" => {
                println!("usage: repro [--list] [--all] [--full] [--jobs N] [--fault-plan FILE] [--explore-budget N] [--guard] [--guard-deadline-ms N] [--out DIR (reports + EXPERIMENTS.md)] [--trace FILE] [--metrics FILE] [--telemetry-csv FILE] [--profile] [IDS...]");
                return;
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }

    if list || (!run_all && ids.is_empty()) {
        println!("available experiments:");
        for e in registry::all() {
            let note = if e.in_all { "" } else { "  (not part of --all)" };
            println!("  {:<14} {}{note}", e.id, e.title);
        }
        if !list {
            println!("\nrun with: repro --all  or  repro <id>...");
        }
        return;
    }

    let mut budget = if full { RunBudget::full() } else { RunBudget::quick() };
    budget.fault_plan = fault_plan;
    if let Some(n) = explore_budget {
        budget.explore_budget = n;
    }
    budget.guard = guard;
    budget.guard_deadline_ms = guard_deadline_ms;
    let exec = match jobs {
        Some(n) => Executor::new(n),
        None => Executor::from_env(),
    };
    let experiments: Vec<&'static Experiment> = if run_all {
        registry::all().filter(|e| e.in_all).collect()
    } else {
        ids.iter()
            .map(|id| {
                registry::find(id).unwrap_or_else(|| die(format!("unknown experiment '{id}' (try --list)")))
            })
            .collect()
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            die(format!("create output directory {}: {e}", dir.display()));
        }
    }
    // --profile implies an enabled sink: a profile with nowhere to land
    // would be silently dropped otherwise.
    let mut tel = if trace_path.is_some() || metrics_path.is_some() || csv_path.is_some() || profile
    {
        Telemetry::on().with_profiling(profile)
    } else {
        Telemetry::off()
    };
    // keep running remaining experiments after a failure; exit with the
    // first failure's code once everything has had its chance
    let mut first_failure: Option<RunError> = None;
    let mut reports = Vec::new();
    for e in experiments {
        eprintln!("running {} (jobs={}) ...", e.id, exec.jobs());
        #[expect(clippy::disallowed_methods, reason = "host-side progress display; never feeds sim state")]
        let t0 = std::time::Instant::now();
        let report = match (e.run)(&budget, &exec, &mut tel) {
            Ok(r) => r,
            Err(err) => {
                eprintln!("  FAILED {}: {err}", e.id);
                if first_failure.is_none() {
                    first_failure = Some(err);
                }
                continue;
            }
        };
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
        let text = format!("{report}");
        match &out_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", e.id));
                if let Err(e) = fs::write(&path, &text) {
                    die(format!("write report {}: {e}", path.display()));
                }
                println!("wrote {}", path.display());
            }
            None => println!("{text}"),
        }
        reports.push(report);
    }
    if let Some(dir) = &out_dir {
        let path = dir.join("EXPERIMENTS.md");
        if let Err(e) = fs::write(&path, ledger::render(&reports)) {
            die(format!("write ledger {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    let write_artifact = |path: &PathBuf, what: &str, text: String| {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = fs::create_dir_all(parent) {
                    die(format!("create artifact directory {}: {e}", parent.display()));
                }
            }
        }
        if let Err(e) = fs::write(path, text) {
            die(format!("write {what} {}: {e}", path.display()));
        }
        eprintln!("wrote {what} {}", path.display());
    };
    if let Some(path) = &trace_path {
        write_artifact(path, "trace", tel.chrome_trace_json());
    }
    if let Some(path) = &metrics_path {
        write_artifact(path, "metrics", tel.prometheus_text());
    }
    if let Some(path) = &csv_path {
        write_artifact(path, "telemetry csv", telemetry_csv(&tel));
    }
    if let Some(err) = first_failure {
        eprintln!("repro: {err}");
        std::process::exit(err.exit_code());
    }
}
