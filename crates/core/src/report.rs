//! Report rendering: ASCII tables, data series, paper-vs-measured rows.

use std::fmt;

/// A paper-value vs measured-value comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Metric label, e.g. "wordcount finish time, 35 Edison (s)".
    pub metric: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Comparison {
    /// Build a row.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64) -> Self {
        Comparison { metric: metric.into(), paper, measured }
    }

    /// measured / paper.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::NAN
        } else {
            self.measured / self.paper
        }
    }
}

/// One named data series (a curve in a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. "fig04", "table8").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Pre-rendered body text.
    pub body: String,
    /// Structured paper-vs-measured rows (feeds EXPERIMENTS.md).
    pub comparisons: Vec<Comparison>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} — {} ====", self.id, self.title)?;
        write!(f, "{}", self.body)?;
        if !self.comparisons.is_empty() {
            writeln!(f, "\n  paper vs measured:")?;
            for c in &self.comparisons {
                writeln!(
                    f,
                    "    {:<58} paper {:>12.2}  measured {:>12.2}  ratio {:>6.2}",
                    c.metric,
                    c.paper,
                    c.measured,
                    c.ratio()
                )?;
            }
        }
        Ok(())
    }
}

/// Render an ASCII table: `headers` then rows of equal arity.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:>w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Render series as a wide table with x in the first column (a figure's
/// data, one column per curve).
pub fn series_table(x_label: &str, series: &[Series]) -> String {
    let mut xs: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs.dedup();
    let mut headers: Vec<&str> = vec![x_label];
    for s in series {
        headers.push(&s.label);
    }
    let rows: Vec<Vec<String>> = xs
        .iter()
        .map(|&x| {
            let mut row = vec![trim_float(x)];
            for s in series {
                let cell = s
                    .points
                    .iter()
                    .find(|p| p.0 == x)
                    .map(|p| trim_float(p.1))
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            row
        })
        .collect();
    table(&headers, &rows)
}

/// Format a float compactly (integers without decimals).
#[expect(clippy::cast_possible_truncation, reason = "integral values below 1e12 fit an i64 exactly")]
pub fn trim_float(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v.round() as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_aligns() {
        let t = table(
            &["job", "time (s)"],
            &[
                vec!["wordcount".into(), "310".into()],
                vec!["pi".into(), "200".into()],
            ],
        );
        assert!(t.contains("| job       | time (s) |"));
        assert!(t.contains("| wordcount |      310 |"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn series_table_merges_x_values() {
        let s = vec![
            Series { label: "edison".into(), points: vec![(8.0, 50.0), (16.0, 100.0)] },
            Series { label: "dell".into(), points: vec![(16.0, 90.0)] },
        ];
        let t = series_table("conc", &s);
        assert!(t.contains("edison"));
        assert!(t.contains('-'), "missing cell shown as dash");
        assert!(t.contains("100"));
    }

    #[test]
    fn comparison_ratio() {
        let c = Comparison::new("x", 100.0, 150.0);
        assert!((c.ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn trim_float_styles() {
        assert_eq!(trim_float(310.0), "310");
        assert_eq!(trim_float(3.456), "3.46");
        assert_eq!(trim_float(345.6), "345.6");
    }

    #[test]
    fn report_displays_comparisons() {
        let r = Report {
            id: "t8".into(),
            title: "Table 8".into(),
            body: "body\n".into(),
            comparisons: vec![Comparison::new("wordcount (s)", 310.0, 290.0)],
        };
        let s = format!("{r}");
        assert!(s.contains("==== t8"));
        assert!(s.contains("paper vs measured"));
        assert!(s.contains("0.94") || s.contains("0.93"));
    }
}
