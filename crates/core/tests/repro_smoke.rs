//! End-to-end tests of the `repro` binary: the telemetry surface (run the
//! smoke experiment with `--trace`/`--metrics`/`--telemetry-csv` and check
//! the artefacts are non-empty and well-formed), the `--out` ledger, and
//! the simrun error surface (a panicking sweep point must produce a
//! readable failure and exit code 3, not an abort).

use edison_core::{ledger, registry};
use edison_simrun::Executor;
use edison_simtel::export::{validate_json, validate_prometheus};
use edison_simtel::Telemetry;
use std::process::Command;

#[test]
fn repro_smoke_writes_telemetry_artifacts() {
    let dir = std::env::temp_dir().join(format!("repro-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let csv = dir.join("telemetry.csv");

    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("smoke")
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--telemetry-csv")
        .arg(&csv)
        .status()
        .expect("run repro");
    assert!(status.success(), "repro smoke exited non-zero");

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    validate_json(&trace_text).expect("trace is valid JSON");
    assert!(trace_text.contains("http_request"), "trace has web request spans");
    assert!(trace_text.contains("map_task"), "trace has mapreduce spans");

    let prom_text = std::fs::read_to_string(&metrics).expect("metrics written");
    validate_prometheus(&prom_text).expect("metrics are valid exposition text");
    assert!(prom_text.contains("web_requests_total"));
    assert!(prom_text.contains("mr_maps_completed_total"));

    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(csv_text.starts_with("kind,name,labels,x,value"), "csv has the expected header");
    assert!(csv_text.lines().count() > 10, "csv has rows");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro fault_demo`: the deliberately-panicking sweep point is isolated
/// (its siblings run to completion), reported as a readable
/// `RunError::PointFailed`, and mapped to exit code 3 — the process does
/// not abort with a raw panic.
#[test]
fn repro_fault_demo_exits_with_point_failed_code() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fault_demo")
        .arg("--jobs")
        .arg("2")
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(3), "PointFailed must map to exit code 3");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("fault_demo/point5"), "failure names the point:\n{stderr}");
    assert!(stderr.contains("deliberate fault-injection panic"), "failure carries the cause:\n{stderr}");
}

/// A missing or malformed `--fault-plan` file is a CLI error (exit 2) with
/// a readable message — never a panic, never exit 3/4/5.
#[test]
fn repro_bad_fault_plan_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fault_sweep")
        .arg("--fault-plan")
        .arg("/no/such/plan.txt")
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("read fault plan"), "{stderr}");

    let dir = std::env::temp_dir().join(format!("repro-badplan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "fault ten 0 crash\n").expect("write bad plan");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fault_sweep")
        .arg("--fault-plan")
        .arg(&bad)
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("line 1"), "parse errors carry line numbers:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unknown experiment ids stay on the CLI-error exit code (2), distinct
/// from simulation failures.
#[test]
fn repro_unknown_experiment_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("no_such_experiment")
        .output()
        .expect("run repro");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
}

/// `--all` excludes the deliberate-failure demo, so a full quick run's
/// experiment list never contains it.
#[test]
fn repro_list_marks_fault_demo_as_excluded() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("run repro");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("fault_demo"), "{stdout}");
    assert!(stdout.contains("not part of --all"), "{stdout}");
}

/// `--out DIR` also writes `DIR/EXPERIMENTS.md`, the ledger of the run's
/// reports: ledger experiments only (no `smoke`), in registry order
/// whatever the command-line order.
#[test]
fn repro_out_writes_the_ledger_of_its_reports() {
    let dir = std::env::temp_dir().join(format!("repro-ledger-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["smoke", "table2", "table1", "--out"])
        .arg(&dir)
        .status()
        .expect("run repro");
    assert!(status.success(), "repro --out exited non-zero");
    let run = |id| {
        let e = registry::find(id).expect("registered");
        (e.run)(&registry::RunBudget::quick(), &Executor::serial(), &mut Telemetry::off()).expect("cheap experiment")
    };
    let reports = [run("table1"), run("table2")];
    let md = std::fs::read_to_string(dir.join("EXPERIMENTS.md")).expect("ledger written");
    assert_eq!(md, ledger::render(&reports));
    let headings: Vec<&str> = md.lines().filter_map(|l| l.strip_prefix("### ")).collect();
    assert_eq!(headings, ["table1", "table2"]);
    let _ = std::fs::remove_dir_all(&dir);
}
