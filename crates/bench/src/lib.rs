//! Shared infrastructure for the paper-reproduction bench targets.
//!
//! Each bench target (`cargo bench -p coaxial-bench --bench <name>`)
//! regenerates one table or figure of the paper and prints it in a shape
//! directly comparable to the published one. Results are also written as
//! CSV under `target/paper-results/` so plots can be produced externally.
//!
//! Budgets: every bench honours `COAXIAL_INSTR` / `COAXIAL_WARMUP`
//! (instructions per core). The defaults are laptop-scale; raising
//! `COAXIAL_INSTR` toward the paper's 200 M tightens the numbers at
//! proportional cost.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

pub mod plot;

/// Column-aligned plain-text table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Print with per-column alignment.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<width$}", c, width = widths[i]));
                } else {
                    s.push_str(&format!("  {:>width$}", c, width = widths[i]));
                }
            }
            s
        };
        println!("{}", line(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            println!("{}", line(row));
        }
    }

    /// Write the table as CSV under `target/paper-results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.csv"));
        let mut f = match fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("warning: cannot write {path:?}: {e}");
                return;
            }
        };
        let esc = |s: &str| {
            if s.contains([',', '"']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ =
            writeln!(f, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(f, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        println!("\n[csv written to {}]", path.display());
    }
}

/// Directory that bench targets write CSV/SVG results into — anchored at
/// the workspace root regardless of the CWD cargo gives bench binaries.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/paper-results"))
}

/// Print a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("\n=== {id} — {caption} ===");
    println!("(paper: COAXIAL, SC 2024; reproduction values — shapes, not absolutes)\n");
}

/// Format helpers.
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
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x".into(), "1.00".into()]);
        t.print(); // should not panic
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.41), "41%");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
