//! Rendering-neutral experiment output: column-aligned text tables (with a
//! CSV form) and chart descriptions. The experiment registry produces
//! these; `coaxial exp` prints them and the `paper` bench also
//! writes them to disk (CSV, and SVG via `coaxial-bench`'s plotter).

use std::fmt;

/// Column-aligned plain-text table with a CSV twin.
#[derive(Debug, Clone)]
pub struct Table {
    /// File stem of the CSV copy (`<name>.csv`).
    pub name: String,
    /// Heading printed above the table (empty for none).
    pub caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(name: &str, headers: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            caption: String::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The same table with a heading printed above it.
    pub fn captioned(mut self, caption: impl Into<String>) -> Self {
        self.caption = caption.into();
        self
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// The table as CSV: a header line, then one line per row.
    pub fn csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains([',', '"']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&cells.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Caption, header, rule, then rows; the first column left-aligned and
/// the rest right-aligned.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        if !self.caption.is_empty() {
            writeln!(f, "{}\n", self.caption)?;
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (c, &width)) in cells.iter().zip(&widths).enumerate() {
                if i == 0 {
                    write!(f, "{c:<width$}")?;
                } else {
                    write!(f, "  {c:>width$}")?;
                }
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        writeln!(f, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// One named series of y-values.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub values: Vec<f64>,
}

impl Series {
    pub fn new(name: &str, values: Vec<f64>) -> Self {
        Self { name: name.to_string(), values }
    }
}

/// What a chart's x-axis is.
#[derive(Debug, Clone)]
pub enum ChartKind {
    /// Grouped bars, one cluster per category (Figs. 5–11).
    Bar(Vec<String>),
    /// Lines over shared numeric x-values (Figs. 1, 2a).
    Line(Vec<f64>),
}

/// A figure's data and labels, independent of how it is drawn.
#[derive(Debug, Clone)]
pub struct Chart {
    /// File stem of the rendered copy (`<name>.svg`).
    pub name: String,
    pub title: String,
    pub y_label: String,
    pub kind: ChartKind,
    pub series: Vec<Series>,
    /// Draw a horizontal reference line (e.g. speedup = 1.0).
    pub reference_line: Option<f64>,
    /// Use a log10 y-axis.
    pub log_y: bool,
}

impl Chart {
    /// A bar chart of speedups with the 1.0 reference line.
    pub fn speedup_bars(
        name: &str,
        title: &str,
        categories: Vec<String>,
        series: Vec<Series>,
    ) -> Self {
        Self {
            name: name.to_string(),
            title: title.to_string(),
            y_label: "speedup".into(),
            kind: ChartKind::Bar(categories),
            series,
            reference_line: Some(1.0),
            log_y: false,
        }
    }

    /// A log-y line chart.
    pub fn log_lines(
        name: &str,
        title: &str,
        y_label: &str,
        xs: Vec<f64>,
        series: Vec<Series>,
    ) -> Self {
        Self {
            name: name.to_string(),
            title: title.to_string(),
            y_label: y_label.to_string(),
            kind: ChartKind::Line(xs),
            series,
            reference_line: None,
            log_y: true,
        }
    }
}

/// Format helpers shared by every experiment table.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text_and_escaped_csv() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["x".into(), "1.00".into()]);
        t.row(&["y,z".into(), "say \"hi\"".into()]);
        assert_eq!(t.to_string(), "a           b\n-------------\nx        1.00\ny,z  say \"hi\"\n");
        assert_eq!(t.csv(), "a,b\nx,1.00\n\"y,z\",\"say \"\"hi\"\"\"\n");
        assert!(t.clone().captioned("cap").to_string().starts_with("cap\n\na"));
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.41), "41%");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
