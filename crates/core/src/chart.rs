//! ASCII line/bar charts for the figure reports.
//!
//! The paper's figures are log-x throughput curves, log-y delay curves,
//! histograms and stacked timelines; a terminal rendering of each makes
//! the regenerated artefacts directly comparable to the paper's plots
//! without leaving the report text.

use crate::report::Series;

/// Marker glyphs assigned to curves in order.
const MARKS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Axis scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Linear,
    /// log10; non-positive values are clamped to the smallest positive
    /// value in the data.
    Log,
}

fn transform(v: f64, scale: Scale, floor: f64) -> f64 {
    match scale {
        Scale::Linear => v,
        Scale::Log => v.max(floor).log10(),
    }
}

/// Render `series` into a `width`×`height` character grid with legends.
///
/// Each curve is drawn as its marker at the nearest cell per point (the
/// paper's figures are point-marked curves, not dense lines). Collisions
/// show the later curve's marker.
pub fn chart(series: &[Series], width: usize, height: usize, x_scale: Scale, y_scale: Scale) -> String {
    assert!(width >= 16 && height >= 4, "chart too small");
    let pts: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if pts.is_empty() {
        return String::from("(no data)\n");
    }
    let pos_floor = |get: fn(&(f64, f64)) -> f64| {
        pts.iter().map(get).filter(|v| *v > 0.0).fold(f64::INFINITY, f64::min).min(1.0)
    };
    let fx = pos_floor(|p| p.0);
    let fy = pos_floor(|p| p.1);
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        let tx = transform(x, x_scale, fx);
        let ty = transform(y, y_scale, fy);
        x_lo = x_lo.min(tx);
        x_hi = x_hi.max(tx);
        y_lo = y_lo.min(ty);
        y_hi = y_hi.max(ty);
    }
    if (x_hi - x_lo).abs() < 1e-12 {
        x_hi = x_lo + 1.0;
    }
    if (y_hi - y_lo).abs() < 1e-12 {
        y_hi = y_lo + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in &s.points {
            let tx = transform(x, x_scale, fx);
            let ty = transform(y, y_scale, fy);
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "points lie inside the axis range, so the column is in [0, width - 1]")]
            let col = ((tx - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "points lie inside the axis range, so the row is in [0, height - 1]")]
            let row = ((ty - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row][col.min(width - 1)] = mark;
        }
    }
    let y_label = |frac: f64| -> f64 {
        let t = y_lo + frac * (y_hi - y_lo);
        match y_scale {
            Scale::Linear => t,
            Scale::Log => 10f64.powf(t),
        }
    };
    let mut out = String::new();
    for (ri, row) in grid.iter().enumerate() {
        let frac = 1.0 - ri as f64 / (height - 1) as f64;
        // label the top, middle and bottom rows
        let label = if ri == 0 || ri == height - 1 || ri == height / 2 {
            format!("{:>10.6}", compact(y_label(frac)))
        } else {
            " ".repeat(10)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(10));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let x_at = |frac: f64| -> f64 {
        let t = x_lo + frac * (x_hi - x_lo);
        match x_scale {
            Scale::Linear => t,
            Scale::Log => 10f64.powf(t),
        }
    };
    out.push_str(&format!(
        "{:>11}{:<.6}{:>width$.6}\n",
        "",
        compact(x_at(0.0)),
        compact(x_at(1.0)),
        width = width - 6
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", MARKS[si % MARKS.len()], s.label));
    }
    out
}

/// Compact numeric label.
fn compact(v: f64) -> f64 {
    if v.abs() >= 100.0 {
        v.round()
    } else {
        (v * 100.0).round() / 100.0
    }
}

/// A horizontal bar histogram (Figures 10–11): one row per bucket group.
pub fn bar_chart(buckets: &[(f64, u64)], width: usize) -> String {
    let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(0).max(1);
    let mut out = String::new();
    for &(mid, count) in buckets {
        #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "count <= max puts the bar in [0, width]")]
        let bar = (count as f64 / max as f64 * width as f64).round() as usize;
        out.push_str(&format!("{mid:>6.2}s |{} {count}\n", "#".repeat(bar)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Vec<Series> {
        vec![
            Series { label: "a".into(), points: (0..8).map(|i| (2f64.powi(i + 3), (i as f64 + 1.0) * 100.0)).collect() },
            Series { label: "b".into(), points: (0..8).map(|i| (2f64.powi(i + 3), 800.0 - i as f64 * 100.0)).collect() },
        ]
    }

    #[test]
    fn chart_renders_with_legend_and_axes() {
        let c = chart(&sample_series(), 48, 12, Scale::Log, Scale::Linear);
        assert!(c.contains("  * a"));
        assert!(c.contains("  o b"));
        assert!(c.lines().count() >= 14);
        assert!(c.contains('|'));
        assert!(c.contains('+'));
    }

    #[test]
    fn monotone_series_fills_both_corners() {
        let s = vec![Series { label: "up".into(), points: vec![(1.0, 1.0), (100.0, 100.0)] }];
        let c = chart(&s, 40, 8, Scale::Linear, Scale::Linear);
        let rows: Vec<&str> = c.lines().collect();
        // the first grid row (max y) holds the high point, the last grid
        // row (min y) the low point
        assert!(rows[0].ends_with('*'), "top row: {:?}", rows[0]);
        assert!(rows[7].contains('*'), "bottom row: {:?}", rows[7]);
    }

    #[test]
    fn log_scale_handles_zeroes() {
        let s = vec![Series { label: "z".into(), points: vec![(8.0, 0.0), (16.0, 10.0)] }];
        let c = chart(&s, 30, 6, Scale::Log, Scale::Log);
        assert!(c.contains('*'));
    }

    #[test]
    fn empty_series_is_graceful() {
        assert_eq!(chart(&[], 30, 6, Scale::Linear, Scale::Linear), "(no data)\n");
    }

    #[test]
    fn bars_scale_to_max() {
        let b = bar_chart(&[(0.5, 10), (1.5, 5), (2.5, 0)], 20);
        let lines: Vec<&str> = b.lines().collect();
        assert!(lines[0].contains(&"#".repeat(20)));
        assert!(lines[1].contains(&"#".repeat(10)));
        assert!(!lines[2].contains('#'));
    }
}
