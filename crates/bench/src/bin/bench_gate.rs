//! `bench_gate` — measure the tracked workloads and check or refresh the
//! committed benchmark trajectory (`BENCH_0014.json`, schema
//! `edison-bench/1`).
//!
//! ```text
//! bench_gate check     re-run the workloads, gate deterministic metrics
//!                      against the committed trajectory (±10%)
//! bench_gate update    rewrite the trajectory, including advisory
//!                      wall-clock rates measured on this machine
//! ```
//!
//! Exit codes: `0` pass, `1` gate failure, `2` usage / IO / simulation
//! error. Tier-1 runs the same comparison via `tests/bench_gate.rs`;
//! `cargo bench-gate` is the CLI alias.

use edison_bench::{alloc_counts, check, find_workspace_root, record_from, run_tracked};
use edison_bench::{CountingAlloc, Trajectory, TRACKED, TRAJECTORY_FILE};
use std::path::{Path, PathBuf};

/// Count allocations in this harness so `allocs_per_event` is real.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn die(msg: String) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}

fn trajectory_path() -> PathBuf {
    match find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        Some(root) => root.join(TRAJECTORY_FILE),
        None => die("workspace root not found".into()),
    }
}

/// Run every tracked workload, measuring wall time and allocations around
/// each deterministic simulation.
fn measure() -> Trajectory {
    let mut t = Trajectory::default();
    for name in TRACKED {
        let before = alloc_counts();
        #[expect(clippy::disallowed_methods, reason = "host-side wall timing for advisory rates; never feeds sim state")]
        let t0 = std::time::Instant::now();
        let profile = match run_tracked(name) {
            Ok(p) => p,
            Err(e) => die(format!("workload {name}: {e}")),
        };
        let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
        let after = alloc_counts();
        let mut r = record_from(&profile);
        let events = r.events as f64;
        r.events_per_sec = events / wall_s;
        r.sim_seconds_per_wall_second = r.sim_seconds / wall_s;
        r.allocs_per_event = (after.allocs - before.allocs) as f64 / events.max(1.0);
        println!(
            "measured {name:<20} {:>9} events  {:>12.0} events/s  {:>8.1} sim-s/wall-s  {:>6.1} allocs/event",
            r.events, r.events_per_sec, r.sim_seconds_per_wall_second, r.allocs_per_event
        );
        t.workloads.insert(name.to_string(), r);
    }
    t
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo bench-gate -- update` hands over a bare `--` (the alias
    // already ends in one): accept it as the end of cargo's options
    if args.first().is_some_and(|a| a == "--") {
        args.remove(0);
    }
    let mode = match args.as_slice() {
        [] => "check",
        [m] if m == "check" || m == "update" => m.as_str(),
        _ => die("usage: bench_gate [check|update]".into()),
    };
    let path = trajectory_path();
    let fresh = measure();
    match mode {
        "update" => {
            if let Err(e) = std::fs::write(&path, fresh.to_json()) {
                die(format!("write {}: {e}", path.display()));
            }
            println!("wrote {}", path.display());
        }
        _ => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => die(format!(
                    "read {}: {e} (seed it with `bench_gate update`)",
                    path.display()
                )),
            };
            let committed = match Trajectory::parse(&text) {
                Ok(t) => t,
                Err(e) => die(format!("{}: {e}", path.display())),
            };
            let outcome = check(&committed, &fresh);
            for note in &outcome.notes {
                println!("note: {note}");
            }
            for failure in &outcome.failures {
                eprintln!("FAIL: {failure}");
            }
            if !outcome.passed() {
                eprintln!("bench gate failed against {}", path.display());
                std::process::exit(1);
            }
            println!("bench gate passed against {}", path.display());
        }
    }
}
