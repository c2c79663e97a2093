//! EXPERIMENTS.md is assembled by `tools/make_experiments_md.py`, which
//! reads the `repro --all` reports in the order of its `ORDER` list and
//! silently skips any report the list does not name. This test keeps that
//! list equal to the registry: every `--all` experiment except `smoke`
//! (a telemetry demo with no paper row), in registry order.

use edison_core::registry;
use std::path::Path;

/// The quoted ids of the tool's `ORDER = [ ... ]` list.
fn tool_order(src: &str) -> Vec<String> {
    let start = src.find("ORDER = [").expect("the tool defines ORDER");
    let list = &src[start + "ORDER = [".len()..];
    let list = &list[..list.find(']').expect("ORDER is closed")];
    list.split(',')
        .map(|s| s.trim().trim_matches('"'))
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn experiments_md_tool_lists_every_all_experiment_in_registry_order() {
    let tool = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tools/make_experiments_md.py");
    let src = std::fs::read_to_string(&tool).expect("read tools/make_experiments_md.py");
    let want: Vec<String> = registry::all()
        .filter(|e| e.in_all && e.id != "smoke")
        .map(|e| e.id.to_string())
        .collect();
    assert_eq!(tool_order(&src), want, "tools/make_experiments_md.py ORDER must match the registry");
}

#[test]
fn order_parser_reads_a_multi_line_list() {
    let src = "X = 1\nORDER = [\n    \"a\", \"b\",\n    \"c\",\n]\nY = [\"z\"]\n";
    assert_eq!(tool_order(src), ["a", "b", "c"]);
}
