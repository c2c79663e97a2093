//! The paper-vs-measured ledger, EXPERIMENTS.md: a fixed preamble, one
//! table row per comparison of every ledger experiment (every `--all`
//! experiment but `smoke`, `Experiment::in_ledger`), then each of those
//! reports in full. `repro --out DIR` writes it as
//! `DIR/EXPERIMENTS.md` from the reports of its run.

use crate::registry;
use crate::report::{Comparison, Report};
use std::fmt::Write as _;

/// Everything above the first ledger row. The known-deviations list in
/// it is written by hand (ROADMAP item 1).
const HEADER: &str = include_str!("ledger_header.md");

/// The ledger row of `c` in experiment `id`: the numbers `Report`'s
/// `Display` prints, at the same `{:.2}` (a `NaN` stays `NaN`).
fn row(id: &str, c: &Comparison) -> String {
    format!("| {id} | {} | {:.2} | {:.2} | {:.2} |", c.metric.trim(), c.paper, c.measured, c.ratio())
}

/// EXPERIMENTS.md over the ledger experiments among `reports`, in
/// registry order whatever the order of `reports`; experiments that did
/// not run are left out.
pub fn render(reports: &[Report]) -> String {
    let ledger: Vec<&Report> = registry::all()
        .filter(|e| e.in_ledger())
        .filter_map(|e| reports.iter().find(|r| r.id == e.id))
        .collect();
    let rows: Vec<String> =
        ledger.iter().flat_map(|r| r.comparisons.iter().map(|c| row(&r.id, c))).collect();
    let mut out = format!("{HEADER}{}\n\n## Regenerated artefacts\n\n", rows.join("\n"));
    for r in ledger {
        let _ = write!(out, "### {}\n\n```text\n{r}\n```\n\n", r.id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_carries_the_numbers_the_report_prints() {
        let wide = "work done per joule, 35 Edison web servers against 2 Dell R620 servers (req/J)";
        let comparisons = vec![
            Comparison::new("deadline misses past the knee (%)", 0.0, 3.456),
            Comparison::new("energy change under DVFS (J)", -12.345, -0.5),
            Comparison::new(wide, 3.5, 3.14159),
        ];
        let r = Report { id: "t".into(), title: "T".into(), body: String::new(), comparisons };
        let text = r.to_string();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains(" ratio ")).collect();
        assert_eq!(lines.len(), 3);
        for (line, c) in lines.iter().zip(&r.comparisons) {
            let row = row("t", c);
            let cells: Vec<&str> = row[2..row.len() - 2].split(" | ").collect();
            let [_, metric, paper, measured, ratio] = cells[..] else { panic!("{row}") };
            assert_eq!(*line, format!("    {metric:<58} paper {paper:>12}  measured {measured:>12}  ratio {ratio:>6}"));
        }
        assert_eq!(row("t", &r.comparisons[0]), "| t | deadline misses past the knee (%) | 0.00 | 3.46 | NaN |");
        assert_eq!(row("t", &r.comparisons[1]), "| t | energy change under DVFS (J) | -12.35 | -0.50 | 0.04 |");
    }

    /// The committed ledger's artefacts are the ledger experiments in
    /// registry order, so a new experiment missing from it fails here.
    #[test]
    fn committed_experiments_md_holds_every_ledger_experiment_in_registry_order() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let text = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        let headings: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("### ")).collect();
        let want: Vec<&str> = registry::all().filter(|e| e.in_ledger()).map(|e| e.id).collect();
        assert_eq!(headings, want, "regenerate EXPERIMENTS.md with `repro --all --full --out DIR`");
    }
}
