//! Integration tests of the experiment harness itself: every cheap
//! experiment renders, comparisons carry sane ratios, and the TCO chain
//! reproduces the paper to within 2 %.

use edison_core::registry::{all, find, RunBudget};
use edison_simrun::Executor;
use edison_simtel::Telemetry;

#[test]
fn cheap_experiments_render_with_close_comparisons() {
    let budget = RunBudget::quick();
    for id in ["table2", "table3", "table5", "sec41_dmips", "sec42_membw", "sec44_net", "table9", "table10"] {
        let exp = find(id).unwrap_or_else(|| panic!("missing {id}"));
        let report = (exp.run)(&budget, &Executor::serial(), &mut Telemetry::off())
            .unwrap_or_else(|e| panic!("{id} failed: {e}"));
        assert!(!report.body.is_empty(), "{id} has empty body");
        for c in &report.comparisons {
            let r = c.ratio();
            assert!(
                (0.85..1.15).contains(&r),
                "{id}/{}: ratio {r:.3} (paper {}, measured {})",
                c.metric,
                c.paper,
                c.measured
            );
        }
    }
}

#[test]
fn registry_ids_are_unique() {
    let mut ids: Vec<&str> = all().map(|e| e.id).collect();
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n, "duplicate experiment ids");
    assert!(n >= 20, "expected at least 20 experiments, got {n}");
}

#[test]
fn reports_display_cleanly() {
    let budget = RunBudget::quick();
    let exp = find("table5").unwrap();
    let report = (exp.run)(&budget, &Executor::serial(), &mut Telemetry::off()).expect("table5 runs");
    let text = format!("{report}");
    assert!(text.starts_with("==== table5"));
    assert!(text.contains("paper vs measured"));
}

/// The Figure 10/11 experiment at quick budget shows the qualitative
/// contrast: Dell spikes, Edison doesn't.
#[test]
fn delay_distribution_contrast() {
    let budget = RunBudget::quick();
    let exp = find("fig10_11").unwrap();
    let report = (exp.run)(&budget, &Executor::serial(), &mut Telemetry::off()).expect("fig10_11 runs");
    for c in &report.comparisons {
        assert!(
            (c.measured - 1.0).abs() < 1e-9,
            "{}: expected indicator 1, got {}",
            c.metric,
            c.measured
        );
    }
}
