//! Tabular experiment results: the rows/series each paper figure plots.

/// A numeric result table. The first column is the x-axis (e.g. `k` or
/// "number of nodes"); each further column is one plotted series.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Short identifier, e.g. `"fig08"`.
    pub id: &'static str,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    /// Column headers; `columns[0]` names the x-axis.
    pub columns: Vec<String>,
    /// Data rows; every row has `columns.len()` entries. `NaN` renders
    /// as an empty cell (series without a value at that x).
    pub rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates an empty table and validates nothing yet.
    pub fn new(id: &'static str, title: impl Into<String>, columns: Vec<String>) -> Self {
        Table {
            id,
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics unless its width matches the header.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(row);
    }

    /// The table as CSV (header + rows, `NaN` as empty cells).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.columns.join(","));
        s.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.is_nan() {
                        String::new()
                    } else if (v.fract()).abs() < 1e-9 && v.abs() < 1e12 {
                        format!("{}", *v as i64)
                    } else {
                        format!("{v:.4}")
                    }
                })
                .collect();
            s.push_str(&cells.join(","));
            s.push('\n');
        }
        s
    }

    /// The table as an aligned ASCII block with its title.
    pub fn to_ascii(&self) -> String {
        let fmt_cell = |v: &f64| -> String {
            if v.is_nan() {
                "-".to_owned()
            } else if v.fract().abs() < 1e-9 && v.abs() < 1e12 {
                format!("{}", *v as i64)
            } else {
                format!("{v:.2}")
            }
        };
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(fmt_cell).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut s = format!("== {} — {} ==\n", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        s.push_str(&header.join("  "));
        s.push('\n');
        s.push_str(&"-".repeat(header.join("  ").len()));
        s.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            s.push_str(&line.join("  "));
            s.push('\n');
        }
        s
    }

    /// The series (column) with the given header, without the x column.
    #[cfg(test)]
    pub(crate) fn series(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| r[idx]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("figX", "demo", vec!["k".into(), "a".into(), "b".into()]);
        t.push_row(vec![1.0, 10.0, 0.5]);
        t.push_row(vec![2.0, 20.0, f64::NAN]);
        t
    }

    #[test]
    fn csv_renders_integers_and_blanks() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "k,a,b");
        assert_eq!(lines[1], "1,10,0.5000");
        assert_eq!(lines[2], "2,20,");
    }

    #[test]
    fn ascii_contains_all_cells() {
        let a = sample().to_ascii();
        assert!(a.contains("figX"));
        assert!(a.contains("10"));
        assert!(a.contains("0.50"));
        assert!(a.contains('-'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", "t", vec!["x".into()]);
        t.push_row(vec![1.0, 2.0]);
    }
}
