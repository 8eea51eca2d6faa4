//! Plain-text aligned table rendering for benchmark and experiment reports.
//!
//! Every paper-figure scenario (`scenarios --only NAME`) prints a "paper vs
//! measured" block; this module keeps that output consistent and greppable.

/// A simple left/right aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with a header separator; first column left-aligned, the rest
    /// right-aligned (numeric convention).
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Render `(x, y)` series as CSV with the given column names.
#[must_use]
pub fn series_csv(names: (&str, &str), points: &[(f64, f64)]) -> String {
    let mut out = format!("{},{}\n", names.0, names.1);
    for (x, y) in points {
        out.push_str(&format!("{x},{y}\n"));
    }
    out
}

/// Render aligned multi-series CSV: one `t` column plus one column per series.
/// Series are sampled at the union of provided times with empty cells where a
/// series has no point at that time.
#[must_use]
pub fn multi_series_csv(t_name: &str, series: &[(&str, &[(f64, f64)])]) -> String {
    use std::collections::BTreeMap;
    let mut grid: BTreeMap<u64, Vec<Option<f64>>> = BTreeMap::new();
    let key = |t: f64| (t * 1e6).round() as u64;
    for (si, (_, pts)) in series.iter().enumerate() {
        for &(t, v) in *pts {
            grid.entry(key(t))
                .or_insert_with(|| vec![None; series.len()])[si] = Some(v);
        }
    }
    let mut out = String::from(t_name);
    for (name, _) in series {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for (tk, vals) in grid {
        out.push_str(&format!("{}", tk as f64 / 1e6));
        for v in vals {
            out.push(',');
            if let Some(v) = v {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["metric", "paper", "measured"]);
        t.row(["detection (ms)", "1205", "1198.4"]);
        t.row(["ots (ms)", "1449", "1502.1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("metric"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // right alignment of numeric columns
        assert!(lines[2].ends_with("1198.4"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only"]);
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(s.contains("only"));
    }

    #[test]
    fn series_csv_format() {
        let csv = series_csv(("t", "v"), &[(1.0, 2.0), (3.0, 4.5)]);
        assert_eq!(csv, "t,v\n1,2\n3,4.5\n");
    }

    #[test]
    fn multi_series_csv_merges_times() {
        let a = [(1.0, 10.0), (2.0, 20.0)];
        let b = [(2.0, 200.0), (3.0, 300.0)];
        let csv = multi_series_csv("t", &[("a", &a), ("b", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,a,b");
        assert_eq!(lines[1], "1,10,");
        assert_eq!(lines[2], "2,20,200");
        assert_eq!(lines[3], "3,,300");
    }
}
