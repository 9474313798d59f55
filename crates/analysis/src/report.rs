//! Text rendering of tables and comparisons.
//!
//! The repro harness prints each paper artifact as an aligned text table,
//! with a `paper` column next to the `measured` column wherever the paper
//! reports a number. CSV output is provided for plotting externally.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title.
    pub fn new(title: &str) -> Self {
        TextTable {
            title: title.to_string(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header row.
    pub fn header<S: Into<String>>(mut self, cols: Vec<S>) -> Self {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<S: Into<String>>(&mut self, cols: Vec<S>) -> &mut Self {
        self.rows.push(cols.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let mut measure = |cols: &[String]| {
            for (i, c) in cols.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        };
        measure(&self.header);
        for r in &self.rows {
            measure(r);
        }

        let mut out = String::new();
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(self.title.len().max(total)));
        let render_row = |cols: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cols.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == widths.len() {
                    let _ = write!(line, "{cell:<w$}");
                } else {
                    let _ = write!(line, "{cell:<w$}  ");
                }
            }
            line.trim_end().to_string()
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", render_row(&self.header));
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for r in &self.rows {
            let _ = writeln!(out, "{}", render_row(r));
        }
        out
    }
}

/// Formats a count with thousands separators (`1234567` → `1,234,567`).
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    let bytes = s.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Formats a float with the given number of decimals.
pub fn fmt_f64(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Relative deviation of `measured` from `paper` as a signed percentage
/// string; `paper == 0` renders as "n/a".
pub fn fmt_delta(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (measured - paper) / paper * 100.0)
    }
}

/// Serializes series columns as CSV (header + one row per index).
pub fn to_csv(headers: &[&str], columns: &[&[f64]]) -> String {
    assert_eq!(headers.len(), columns.len());
    let rows = columns.iter().map(|c| c.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for i in 0..rows {
        let row: Vec<String> = columns
            .iter()
            .map(|c| c.get(i).map(|v| format!("{v}")).unwrap_or_default())
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new("Demo").header(vec!["metric", "value"]);
        t.row(vec!["packets", "500"]);
        t.row(vec!["very long metric name", "1"]);
        let s = t.render();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title + underline
        assert_eq!(lines.len(), 6);
        assert!(lines[2].starts_with("metric"));
        assert!(lines[4].starts_with("packets"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn table_without_header() {
        let mut t = TextTable::new("T");
        t.row(vec!["a", "b"]);
        let s = t.render();
        assert!(!s.contains("--"));
        assert!(s.contains("a  b"));
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(500_000_000), "500,000,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn float_and_delta_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_delta(110.0, 100.0), "+10.0%");
        assert_eq!(fmt_delta(90.0, 100.0), "-10.0%");
        assert_eq!(fmt_delta(1.0, 0.0), "n/a");
    }

    #[test]
    fn csv_output() {
        let csv = to_csv(&["t", "pps"], &[&[0.0, 1.0], &[10.0, 20.0]]);
        assert_eq!(csv, "t,pps\n0,10\n1,20\n");
    }

    #[test]
    fn csv_ragged_columns() {
        let csv = to_csv(&["a", "b"], &[&[1.0], &[2.0, 3.0]]);
        assert_eq!(csv, "a,b\n1,2\n,3\n");
    }
}
