//! ASCII rendering of the paper's figures.
//!
//! Each figure in the repro harness is printed as a terminal plot — enough
//! to judge shape (bursts, dips, distributions) at a glance; `report::to_csv`
//! provides the exact data for external plotting.

use std::fmt::Write as _;

/// Renders a line series as a fixed-size ASCII chart.
///
/// `ys` is downsampled (by bucket max, preserving spikes) to `width`
/// columns; the y axis is scaled to `[0, max]` over `height` rows.
pub fn line_chart(title: &str, ys: &[f64], width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2);
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if ys.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let cols = downsample_max(ys, width);
    let max = cols.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    let mut grid = vec![vec![' '; cols.len()]; height];
    for (x, &v) in cols.iter().enumerate() {
        let level = ((v / max) * (height as f64 - 1.0)).round() as usize;
        for (y, row) in grid.iter_mut().enumerate() {
            let from_bottom = height - 1 - y;
            if from_bottom == level {
                row[x] = if v == 0.0 { '_' } else { '*' };
            } else if from_bottom < level {
                row[x] = '.';
            }
        }
    }
    for (y, row) in grid.iter().enumerate() {
        let label = if y == 0 {
            format!("{max:>10.1} |")
        } else if y == height - 1 {
            format!("{:>10.1} |", 0.0)
        } else {
            format!("{:>10} |", "")
        };
        let _ = writeln!(out, "{label}{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>11}+{}", "", "-".repeat(cols.len()));
    let _ = writeln!(out, "{:>12}0..{} ({} samples)", "", ys.len(), ys.len());
    out
}

/// Renders a histogram as horizontal bars, one per (label, count).
pub fn bar_chart(title: &str, bars: &[(String, u64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if bars.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let max = bars.iter().map(|b| b.1).max().unwrap_or(0).max(1);
    let label_w = bars.iter().map(|b| b.0.len()).max().unwrap_or(0);
    for (label, count) in bars {
        let n = (*count as f64 / max as f64 * width as f64).round() as usize;
        let _ = writeln!(out, "{label:>label_w$} | {} {count}", "#".repeat(n));
    }
    out
}

/// Buckets `ys` into at most `width` columns, taking each bucket's max —
/// spikes (the interesting feature of game traffic) survive downsampling.
fn downsample_max(ys: &[f64], width: usize) -> Vec<f64> {
    if ys.len() <= width {
        return ys.to_vec();
    }
    let mut out = Vec::with_capacity(width);
    for i in 0..width {
        let lo = i * ys.len() / width;
        let hi = ((i + 1) * ys.len() / width).max(lo + 1);
        let m = ys[lo..hi].iter().cloned().fold(f64::MIN, f64::max);
        out.push(m);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_renders() {
        let ys: Vec<f64> = (0..100)
            .map(|i| (i as f64 / 10.0).sin().abs() * 50.0)
            .collect();
        let s = line_chart("test", &ys, 40, 8);
        assert!(s.starts_with("test\n"));
        assert!(s.contains('*'));
        let plot_lines = s.lines().filter(|l| l.contains('|')).count();
        assert_eq!(plot_lines, 8);
    }

    #[test]
    fn line_chart_empty() {
        let s = line_chart("empty", &[], 40, 8);
        assert!(s.contains("(no data)"));
    }

    #[test]
    fn line_chart_handles_all_zero() {
        let s = line_chart("zero", &[0.0; 10], 20, 4);
        assert!(s.contains('_'));
        assert!(!s.contains('*'));
    }

    #[test]
    fn downsample_preserves_spikes() {
        let mut ys = vec![1.0; 1000];
        ys[777] = 100.0;
        let d = downsample_max(&ys, 50);
        assert_eq!(d.len(), 50);
        assert!(d.iter().cloned().fold(f64::MIN, f64::max) == 100.0);
    }

    #[test]
    fn downsample_short_input_passthrough() {
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(downsample_max(&ys, 10), ys.to_vec());
    }

    #[test]
    fn bar_chart_renders() {
        let bars = vec![
            ("0-20k".to_string(), 5),
            ("20-40k".to_string(), 50),
            ("40-60k".to_string(), 10),
        ];
        let s = bar_chart("bw", &bars, 20);
        assert!(s.contains("20-40k | #################### 50"));
        assert!(s.contains("0-20k"));
    }

    #[test]
    fn bar_chart_empty() {
        assert!(bar_chart("x", &[], 10).contains("(no data)"));
    }
}
