//! Plain-text table rendering for experiment output.

/// A simple aligned text table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
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

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        out.push_str(&sep);
        out.push('\n');
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a proportion like the paper's tables ("0.945").
pub fn fmt3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["Resource", "NE"]);
        t.row(&["Google".into(), "0.529".into()]);
        t.row(&["Wikipedia Graph".into(), "0.632".into()]);
        let text = t.render();
        assert!(text.contains("Demo"));
        assert!(text.contains("Google"));
        let lines: Vec<&str> = text.lines().collect();
        // Data lines must be equal width.
        assert_eq!(lines[4].len(), lines[5].len());
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(0.9449), "0.945");
    }
}
