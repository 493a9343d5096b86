//! Plain-text table and CSV rendering for the experiment binaries.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use gpm_harness::report::Table;
///
/// let mut t = Table::new(vec!["benchmark", "savings (%)"]);
/// t.row(vec!["kmeans".into(), "24.8".into()]);
/// let text = t.render();
/// assert!(text.contains("kmeans"));
/// assert!(text.contains("benchmark"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        let _ = cols;
        out
    }

    /// Renders as RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a percentage with sign, one decimal.
pub fn pct(value: f64) -> String {
    format!("{value:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["b".into(), "22".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(24.81), "+24.8%");
        assert_eq!(pct(-1.84), "-1.8%");
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new(vec!["x"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
