//! `bench_gate` — check or refresh the committed benchmark trajectory
//! (`BENCH_0018.json`, schema `edison-bench/2`).
//!
//! ```text
//! bench_gate check     re-run the tracked workloads and compare the fresh
//!                      render with the committed file byte for byte
//! bench_gate update    write the fresh render to the committed file
//! ```
//!
//! Exit codes: `0` pass, `1` the files differ, `2` usage / IO /
//! simulation error. Tier-1 runs the same comparison via
//! `tests/bench_gate.rs`; `cargo bench-gate` is the CLI alias.

use edison_bench::{differing_lines, render_trajectory, TRAJECTORY_FILE};
use std::path::Path;

fn die(msg: String) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
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
    // this package sits at crates/bench under the workspace root
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(TRAJECTORY_FILE);
    let fresh = render_trajectory().unwrap_or_else(|e| die(format!("tracked workloads: {e}")));
    if mode == "update" {
        if let Err(e) = std::fs::write(&path, &fresh) {
            die(format!("write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(format!("read {}: {e} (seed it with `bench_gate update`)", path.display())));
    if committed != fresh {
        for line in differing_lines(&committed, &fresh) {
            eprintln!("FAIL: {line}");
        }
        eprintln!(
            "bench gate failed: {} differs from a fresh render; \
             if the change is intended, refresh with `cargo bench-gate -- update`",
            path.display()
        );
        std::process::exit(1);
    }
    println!("bench gate passed: {} equals a fresh render", path.display());
}
