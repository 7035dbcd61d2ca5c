//! Fixed-width text tables (and CSV / JSON) for the paper ledger, so every
//! claim `garlic-bench`'s `paper` runner checks prints paper-style rows.

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a fixed-width text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (no quoting — the harness only emits plain cells).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as a machine-readable JSON document: one object per row,
    /// keyed by header. Numeric-looking cells are emitted as numbers so CI
    /// consumers can plot trajectories without re-parsing strings.
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn cell_json(s: &str) -> String {
            // Cells are produced by the harness itself (numbers or plain
            // labels). Re-serialise through f64 so the emitted token is a
            // lawful JSON number (Rust accepts "007"/".5"/"+1"; JSON
            // does not).
            match s.parse::<f64>() {
                Ok(v) if v.is_finite() && !s.is_empty() => format!("{v}"),
                _ => format!("\"{}\"", escape(s)),
            }
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = self
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, cell)| format!("\"{}\": {}", escape(h), cell_json(cell)))
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }
}

/// Formats a probability in compact scientific notation.
pub fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_owned()
    } else if p >= 0.001 {
        format!("{p:.4}")
    } else {
        format!("{p:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["N", "cost"]);
        t.add_row(vec!["1000".into(), "63.2".into()]);
        t.add_row(vec!["2000".into(), "90.1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('N') && lines[0].contains("cost"));
        assert!(lines[2].trim_start().starts_with("1000"));
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn json_output_types_cells() {
        let mut t = Table::new(&["N", "strategy", "cost"]);
        t.add_row(vec!["1000".into(), "FaMin".into(), "63.2".into()]);
        let json = t.to_json();
        assert!(json.contains("\"N\": 1000"));
        assert!(json.contains("\"strategy\": \"FaMin\""));
        assert!(json.contains("\"cost\": 63.2"));
        assert!(json.starts_with("{\n  \"rows\": ["));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new(&["a"]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_prob(0.5), "0.5000");
        assert_eq!(fmt_prob(1e-9), "1.00e-9");
        assert_eq!(fmt_prob(0.0), "0");
    }
}
