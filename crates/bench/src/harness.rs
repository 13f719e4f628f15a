//! Plain-text table rendering for the experiments and the `pcnn` reports,
//! and the benchmarks' one timing loop.

/// Accumulates rows and prints an aligned ASCII table.
///
/// # Example
///
/// ```
/// use pcnn_bench::TableWriter;
///
/// let mut t = TableWriter::new(vec!["net", "latency"]);
/// t.row(vec!["AlexNet".into(), "3.1".into()]);
/// let s = t.render();
/// assert!(s.contains("AlexNet"));
/// ```
#[derive(Debug, Clone)]
pub struct TableWriter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Starts a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Self {
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders under a title banner, as [`print`](Self::print) prints it.
    pub fn render_titled(&self, title: &str) -> String {
        format!("\n== {title} ==\n{}\n", self.render())
    }

    /// Renders and prints with a title banner.
    pub fn print(&self, title: &str) {
        print!("{}", self.render_titled(title));
    }
}

/// Formats a float with 3 significant-ish decimals, or `"x"` for `None`
/// (the paper's out-of-memory marker).
pub fn cell(value: Option<f64>) -> String {
    match value {
        Some(v) if v >= 100.0 => format!("{v:.0}"),
        Some(v) if v >= 10.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.2}"),
        None => "x".to_string(),
    }
}

/// Best-of-`reps` (at least one) wall time of `f`, in seconds.
pub(crate) fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TableWriter::new(vec!["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a   "));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TableWriter::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn cell_formats() {
        assert_eq!(cell(Some(1269.4)), "1269");
        assert_eq!(cell(Some(31.2)), "31.2");
        assert_eq!(cell(Some(3.1400001)), "3.14");
        assert_eq!(cell(None), "x");
    }
}
