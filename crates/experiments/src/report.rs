//! ASCII report rendering and summary statistics.

/// Geometric mean of strictly positive values; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// let g = mab_experiments::report::gmean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Minimum of a slice (0.0 if empty).
pub fn min(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Maximum of a slice (0.0 if empty).
pub fn max(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Index and value of the largest element, the lowest index on ties;
/// `(0, f64::NEG_INFINITY)` for an empty slice.
pub fn best(values: &[f64]) -> (usize, f64) {
    let mut best = (0, f64::NEG_INFINITY);
    for (i, &v) in values.iter().enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    best
}

/// A simple right-aligned ASCII table.
///
/// # Example
///
/// ```
/// use mab_experiments::report::Table;
///
/// let mut t = Table::new(vec!["app".into(), "ipc".into()]);
/// t.row(vec!["mcf".into(), "0.42".into()]);
/// let s = t.render();
/// assert!(s.contains("mcf"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Tables 8 and 9's summary: the min, max and gmean of each column's
/// values, as percentages.
pub fn pct_summary<'a>(columns: impl IntoIterator<Item = &'a str>, values: &[Vec<f64>]) -> Table {
    let mut table = Table::new(
        std::iter::once("metric")
            .chain(columns)
            .map(String::from)
            .collect(),
    );
    for (metric, f) in [
        ("min", min as fn(&[f64]) -> f64),
        ("max", max),
        ("gmean", gmean),
    ] {
        table.row(
            std::iter::once(metric.to_string())
                .chain(values.iter().map(|v| pct(f(v))))
                .collect(),
        );
    }
    table
}

/// Formats a ratio as a signed percentage change, e.g. `+2.6%`.
pub fn pct_change(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Formats a fraction as a percentage, e.g. `98.4`.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// Prints a labelled data series (one `x y` pair per line) — the textual
/// equivalent of one curve in a paper figure.
pub fn print_series(label: &str, points: &[(String, f64)]) {
    println!("# series: {label}");
    for (x, y) in points {
        println!("{x}\t{y:.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_identical_values() {
        assert!((gmean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_of_empty_is_zero() {
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn gmean_is_below_arithmetic_mean() {
        let vals = [1.0, 2.0, 10.0];
        let am: f64 = vals.iter().sum::<f64>() / 3.0;
        assert!(gmean(&vals) < am);
    }

    #[test]
    fn best_is_the_largest_value_and_the_lowest_index_on_ties() {
        assert_eq!(best(&[1.0, 3.0, 2.0, 3.0]), (1, 3.0));
        assert_eq!(best(&[-2.0, -1.0]), (1, -1.0));
        assert_eq!(best(&[]), (0, f64::NEG_INFINITY));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct_change(1.026), "+2.6%");
        assert_eq!(pct_change(0.978), "-2.2%");
        assert_eq!(pct(0.984), "98.4");
    }
}
