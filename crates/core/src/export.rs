//! CSV export of reports and series — machine-readable counterparts of the
//! ASCII artefacts, for plotting the figures outside the repo.

use crate::report::{Report, Series};
use std::fmt::Write as _;

/// Escape one CSV cell (RFC 4180 quoting).
pub fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Series → CSV with an `x` column and one column per curve; missing
/// points are empty cells.
pub fn series_csv(x_label: &str, series: &[Series]) -> String {
    let mut xs: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
    // total_cmp: NaN-safe (a sweep point that went NaN upstream must not
    // panic the exporter) and gives dedup a consistent order to work with.
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| a.total_cmp(b).is_eq());
    let mut out = String::new();
    out.push_str(&csv_cell(x_label));
    for s in series {
        out.push(',');
        out.push_str(&csv_cell(&s.label));
    }
    out.push('\n');
    for &x in &xs {
        let _ = write!(out, "{x}");
        for s in series {
            out.push(',');
            // total_cmp-based match so a NaN x still finds its own points.
            if let Some(p) = s.points.iter().find(|p| p.0.total_cmp(&x).is_eq()) {
                let _ = write!(out, "{}", p.1);
            }
        }
        out.push('\n');
    }
    out
}

/// Telemetry registry → long-form CSV: one row per counter/gauge value,
/// histogram bucket, and timeseries point. The `x` column carries the
/// bucket's `le` bound (histograms) or the sim timestamp in seconds
/// (timeseries); it is empty for scalars.
pub fn telemetry_csv(tel: &edison_simtel::Telemetry) -> String {
    let fmt_labels = |labels: &edison_simtel::Labels| {
        labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(";")
    };
    let mut out = String::from("kind,name,labels,x,value\n");
    let reg = &tel.registry;
    for (name, labels, v) in reg.counters() {
        let _ = writeln!(out, "counter,{},{},,{v}", csv_cell(name), csv_cell(&fmt_labels(labels)));
    }
    for (name, labels, v) in reg.gauges() {
        let _ = writeln!(out, "gauge,{},{},,{v}", csv_cell(name), csv_cell(&fmt_labels(labels)));
    }
    for (name, labels, h) in reg.histograms() {
        let l = csv_cell(&fmt_labels(labels));
        let mut cum = 0u64;
        for (i, &n) in h.buckets().iter().enumerate() {
            cum += n;
            let le = match h.bounds().get(i) {
                Some(&b) => format!("{b}"),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "histogram_bucket,{},{l},{le},{cum}", csv_cell(name));
        }
        let _ = writeln!(out, "histogram_sum,{},{l},,{}", csv_cell(name), h.sum());
        let _ = writeln!(out, "histogram_count,{},{l},,{}", csv_cell(name), h.count());
    }
    for (name, labels, points) in reg.series() {
        let l = csv_cell(&fmt_labels(labels));
        for &(t, v) in points {
            let _ = writeln!(out, "series,{},{l},{},{v}", csv_cell(name), t.as_secs_f64());
        }
    }
    out
}

/// A report's paper-vs-measured rows as CSV.
pub fn comparisons_csv(report: &Report) -> String {
    let mut out = String::from("experiment,metric,paper,measured,ratio\n");
    for c in &report.comparisons {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            csv_cell(&report.id),
            csv_cell(&c.metric),
            c.paper,
            c.measured,
            c.ratio()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Comparison;

    #[test]
    fn cells_are_quoted_when_needed() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn series_csv_aligns_missing_points() {
        let s = vec![
            Series { label: "a".into(), points: vec![(1.0, 10.0), (2.0, 20.0)] },
            Series { label: "b".into(), points: vec![(2.0, 99.0)] },
        ];
        let csv = series_csv("x", &s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,10,");
        assert_eq!(lines[2], "2,20,99");
    }

    #[test]
    fn series_csv_survives_nan_x() {
        // Regression: partial_cmp().unwrap() used to panic on NaN sweep
        // points; total_cmp sorts them last and still matches them.
        let s = vec![Series {
            label: "a".into(),
            points: vec![(f64::NAN, 1.0), (1.0, 10.0)],
        }];
        let csv = series_csv("x", &s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "1,10");
        assert_eq!(lines[2], "NaN,1");
    }

    #[test]
    fn telemetry_csv_round_trip() {
        use edison_simtel::Telemetry;
        let mut tel = Telemetry::on();
        tel.counter_add("web_requests_total", &[("outcome", "ok")], 7);
        tel.observe("d_seconds", &[], &[1.0], 0.5);
        tel.series_push(
            "node_power_watts",
            &[("node", "0")],
            edison_simcore::SimTime::from_secs(2),
            3.25,
        );
        let csv = telemetry_csv(&tel);
        assert!(csv.starts_with("kind,name,labels,x,value\n"));
        assert!(csv.contains("counter,web_requests_total,outcome=ok,,7"));
        assert!(csv.contains("histogram_bucket,d_seconds,,1,1"));
        assert!(csv.contains("histogram_bucket,d_seconds,,+Inf,1"));
        assert!(csv.contains("series,node_power_watts,node=0,2,3.25"));
    }

    #[test]
    fn comparisons_csv_has_header_and_rows() {
        let r = Report {
            id: "t".into(),
            title: "t".into(),
            body: String::new(),
            comparisons: vec![Comparison::new("metric, with comma", 2.0, 3.0)],
        };
        let csv = comparisons_csv(&r);
        assert!(csv.starts_with("experiment,metric,paper,measured,ratio\n"));
        assert!(csv.contains("\"metric, with comma\",2,3,1.5"));
    }
}
