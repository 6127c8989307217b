//! Minimal aligned-text table rendering for the reproduction harness.

/// A simple left-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// If the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "Table::row: expected {} cells, got {}", self.headers.len(), cells.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Formats a metric with 3 decimals (the paper's precision).
pub fn fmt_metric(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["Model", "HR", "NDCG"]);
        t.row(&["BiasMF".into(), "0.767".into(), "0.490".into()]);
        t.row(&["GNMR".into(), "0.857".into(), "0.575".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("BiasMF"));
        // Columns align: "HR" header column starts at the same offset in rows.
        let hr_col = lines[0].find("HR").unwrap();
        assert_eq!(&lines[2][hr_col..hr_col + 5], "0.767");
    }

    #[test]
    #[should_panic(expected = "expected 2 cells")]
    fn wrong_arity_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn metric_formatting() {
        assert_eq!(fmt_metric(0.857312), "0.857");
        assert_eq!(fmt_metric(0.5), "0.500");
    }
}
