//! CSV export of a run's telemetry registry (`repro --telemetry-csv`), for
//! plotting outside the repo.

use std::fmt::Write as _;

/// Escape one CSV cell (RFC 4180 quoting).
pub fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_quoted_when_needed() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
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
}
