//! perfbench: how fast the simulator runs, per workload, at fixed inputs,
//! with its outputs checked. See `BENCHMARK.md` beside this package.
//!
//! ```text
//! perfbench [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]
//! perfbench --list [--json]
//! perfbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run of one workload prints report lines, then, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). `--json
//! PATH` also appends a fuller record of the run to PATH, the input of
//! `compare`. `--workload all` (the default) runs every workload in its
//! own child process, one after another, and prints a table.

mod alloc;
mod compare;
mod json;
mod measure;
mod spec;
mod trace;
mod workloads;

use measure::{summarize, Summary, Tally};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::Digest;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]] [--json PATH]
       perfbench --list [--json]
       perfbench compare PARENT.jsonl CHANGE.jsonl";

/// The default workload seed (`ROOT_SEED`); `7` is the held-out seed.
const DEFAULT_SEED: u64 = edison_simrun::ROOT_SEED;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<String>,
    list: bool,
    list_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        json: None,
        list: false,
        list_json: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be 1 to 600".into());
                }
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--json" => match it.peek() {
                Some(p) if !p.starts_with("--") => a.json = it.next().cloned(),
                _ => a.list_json = true,
            },
            "--list" => a.list = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.list_json && !a.list {
        return Err("--json needs a path unless it follows --list".into());
    }
    if a.workload != "all" && !spec::WORKLOADS.iter().any(|(w, _)| *w == a.workload) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, parent, change] => match compare::compare(parent, change) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.list {
        list(args.list_json);
        Ok(())
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn list(as_json: bool) {
    if as_json {
        print!("{}", spec::benchmark_json());
        return;
    }
    println!("workloads (default seed {DEFAULT_SEED}, held-out seed 7):");
    for (name, why) in spec::WORKLOADS {
        println!("  {name:<14} {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for m in spec::end_to_end() {
        println!(
            "  {:<26} {:<12} {:<7} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0)
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in spec::per_layer() {
        println!("  {:<26} {:<12} {}", m.name, m.unit, m.better.as_str());
    }
}

/// A metric value as JSON; non-finite values cannot be written as JSON
/// numbers, so they are recorded as failures and written as 0.
fn json_num(v: f64, name: &str, tally: &mut Tally) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        tally.failed += 1;
        tally.messages.push(format!("metric {name} is {v}"));
        "0".into()
    }
}

/// Run one workload in this process and print its result line.
fn run_one(args: &Args) -> Result<(), String> {
    let points = workloads::points(&args.workload, args.seed)?;
    let mut tally = Tally::default();
    let seconds = args.seconds as f64;
    let mut lines = Vec::new();
    // (name, unit, value, spread over passes where there is one)
    let mut metrics: Vec<(String, &'static str, f64, Option<Summary>)> = Vec::new();
    let digests = if args.trace {
        let t = trace::traced(&points, seconds, &mut tally);
        lines.extend(t.lines);
        for ((name, v), m) in t.metrics.into_iter().zip(spec::per_layer()) {
            debug_assert_eq!(name, m.name);
            metrics.push((name, m.unit, v, None));
        }
        t.digests
    } else {
        let reference = measure::warm_up(&points, &mut tally);
        let digests = measure::digests(&reference);
        let passes = measure::timed_passes(&points, &digests, seconds, &mut tally);
        let per_pass =
            |f: fn(&measure::Pass) -> f64| summarize(&passes.iter().map(f).collect::<Vec<_>>());
        let values = [
            (
                measure::best_rate(&passes),
                Some(per_pass(|p| p.sim_s() / p.run_s())),
            ),
            (
                measure::fastest_s(&passes, |t| t.setup),
                Some(per_pass(measure::Pass::setup_s)),
            ),
            (measure::peak_heap_mb(&passes), None),
        ];
        for (m, (v, s)) in spec::end_to_end().into_iter().zip(values) {
            metrics.push((m.name, m.unit, v, s));
        }
        lines.push(format!(
            "timed passes {} of {} points; times are each point's fastest, summed",
            passes.len(),
            points.len()
        ));
        digests
    };
    let mut d = Digest::default();
    for r in &digests {
        d.u64(r.unwrap_or(0));
    }
    let digest = format!("{:016x}", d.value());

    println!(
        "perfbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("digest {} {digest}", args.workload);
    for l in &lines {
        println!("{l}");
    }
    for (name, unit, v, s) in &metrics {
        match s {
            Some(s) => println!(
                "  {name:<26} {v:>14.6} {unit:<12} (per pass: median {:.6}, p25 {:.6}, p75 {:.6}, n {})",
                s.median, s.p25, s.p75, s.n
            ),
            None => println!("  {name:<26} {v:>14.6} {unit}"),
        }
    }
    for m in &tally.messages {
        eprintln!("perfbench: {m}");
    }

    let mut metric_json = Vec::new();
    let mut record_json = Vec::new();
    for (name, unit, v, s) in &metrics {
        let value = json_num(*v, name, &mut tally);
        let (name, unit) = (spec::json_str(name), spec::json_str(unit));
        metric_json.push(format!("{name}: {{\"value\": {value}, \"unit\": {unit}}}"));
        let spread = s.map_or(String::new(), |s| {
            format!(
                ", \"per_pass\": {{\"median\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}}}",
                s.median, s.p25, s.p75, s.n
            )
        });
        record_json.push(format!(
            "{name}: {{\"value\": {value}, \"unit\": {unit}{spread}}}"
        ));
    }
    let correct = tally.failed == 0;
    if let Some(path) = &args.json {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"digest\": {}, \"metrics\": {{{}}}}}\n",
            spec::json_str(&args.workload),
            args.seed,
            u8::from(args.trace),
            args.seconds,
            tally.attempted,
            tally.failed,
            spec::json_str(&digest),
            record_json.join(", ")
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {path}: {e}"))?;
        f.write_all(record.as_bytes())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metric_json.join(", ")
    );
    Ok(())
}

/// Run every workload, each in its own child process (so each one's peak
/// heap is its own), one at a time, then print one table.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut results = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.json {
            cmd.args(["--json", path]);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        if !out.status.success() {
            return Err(format!("workload {name} exited with {}", out.status));
        }
        results.push((
            name,
            json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?,
        ));
    }

    let metrics = if args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut table = format!("\n{:<26} {:<12}", "metric", "unit");
    for (name, _) in &results {
        let _ = write!(table, " {name:>14}");
    }
    for m in &metrics {
        let _ = write!(table, "\n{:<26} {:<12}", m.name, m.unit);
        for (_, r) in &results {
            let v = r
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(json::Json::as_f64);
            let _ = write!(table, " {:>14.6}", v.unwrap_or(f64::NAN));
        }
    }
    println!("{table}");
    let count = |k: &str| {
        results
            .iter()
            .filter_map(|(_, r)| r.get(k).and_then(json::Json::as_f64))
            .sum::<f64>()
    };
    let correct = results
        .iter()
        .all(|(_, r)| r.get("correct").and_then(json::Json::as_bool) == Some(true));
    let mut metric_json = Vec::new();
    for (name, r) in &results {
        for (k, v) in r
            .get("metrics")
            .map(json::Json::entries)
            .unwrap_or_default()
        {
            let value = v
                .get("value")
                .and_then(json::Json::as_f64)
                .unwrap_or_default();
            let unit = v
                .get("unit")
                .and_then(json::Json::as_str)
                .unwrap_or_default();
            metric_json.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                spec::json_str(&format!("{name}.{k}")),
                spec::json_str(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        count("attempted"),
        count("failed"),
        metric_json.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload web_knee --seed 7 --seconds 20 --trace 0").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("web_knee", 7, 20, false)
        );
        assert!(args("--workload mr_matrix --trace 1").expect("valid").trace);
        assert!(args("--trace").expect("valid").trace);
        let a = args("--list --json").expect("valid");
        assert!(a.list && a.list_json);
        assert_eq!(
            args("--json out.jsonl").expect("valid").json.as_deref(),
            Some("out.jsonl")
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--json").is_err());
        assert!(args("--bogus").is_err());
    }

    /// One shortened pass per workload: every point runs, twice, with the
    /// same digest and no failed check.
    #[test]
    fn one_short_pass_per_workload_is_correct() {
        for (name, _) in spec::WORKLOADS {
            let mut pts = workloads::points(name, DEFAULT_SEED).expect("known workload");
            pts.truncate(2);
            for p in &mut pts {
                if let workloads::Point::Web(cfg) = p {
                    cfg.warmup = edison_simcore::time::SimDuration::from_secs(1);
                    cfg.measure = edison_simcore::time::SimDuration::from_secs(2);
                }
            }
            let mut tally = Tally::default();
            let reference = measure::warm_up(&pts, &mut tally);
            let pass = measure::pass(&pts, &measure::digests(&reference), &mut tally);
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.messages);
            assert_eq!(tally.attempted, 2 * pts.len() as u64);
            assert!(pass.sim_s() > 0.0 && pass.run_s() > 0.0, "{name}");
        }
    }
}
