#![forbid(unsafe_code)]
//! `coaxial-lint` CLI. Usage:
//!
//! ```text
//! coaxial-lint [--root <dir>] [--format text|json|sarif] [--list]
//!              [--explain <ID>]
//! ```
//!
//! With no flags: lint the workspace, print findings as
//! `path:line: [ID] message`, and exit 1 on any unsuppressed finding or
//! stale suppression (so `scripts/check.sh` and CI can gate on it).
//!
//! `--format json` emits one machine-readable report object (consumed by
//! the GitHub Actions problem matcher pipeline and editor integrations);
//! `--format sarif` emits the same findings as a SARIF 2.1.0 log for
//! code-scanning UIs (uploaded as a CI artifact next to the JSON one).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    enum Format {
        Text,
        Json,
        Sarif,
    }
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some("text") => format = Format::Text,
                _ => return usage("--format needs `text`, `json`, or `sarif`"),
            },
            "--list" => {
                for l in coaxial_lint::CATALOG {
                    println!("{}  {}", l.id, l.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let Some(id) = args.next() else { return usage("--explain needs a lint ID") };
                return match coaxial_lint::catalog_entry(&id) {
                    Some(l) => {
                        println!("{}: {}\n\n{}", l.id, l.summary, l.rationale);
                        ExitCode::SUCCESS
                    }
                    None => usage(&format!("unknown lint ID `{id}`")),
                };
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Default root: the workspace containing this crate (CARGO_MANIFEST_DIR
    // is crates/lint), falling back to the current directory for a copied
    // binary.
    let root = root.unwrap_or_else(|| {
        option_env!("CARGO_MANIFEST_DIR")
            .map(|m| PathBuf::from(m).join("../.."))
            .filter(|p| p.join("Cargo.toml").exists())
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let report = match coaxial_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coaxial-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    match format {
        Format::Json => println!("{}", report.to_json()),
        Format::Sarif => println!("{}", report.to_sarif()),
        Format::Text => {
            for f in &report.findings {
                println!("{f}");
            }
            for s in &report.stale_suppressions {
                println!(
                    "lint-allow.toml:{}: stale suppression ({} @ {}) matches no finding — remove it",
                    s.line, s.lint, s.path
                );
            }
        }
    }
    let status = if report.clean() { "clean" } else { "FAILED" };
    eprintln!(
        "coaxial-lint: {} files, {} findings, {} suppressed, {} stale suppressions — \
         {status}",
        report.files,
        report.findings.len(),
        report.suppressed,
        report.stale_suppressions.len(),
    );
    if !report.timings.is_empty() {
        // Slowest first, so the rule to optimize when the check.sh wall-time
        // budget trips is the first thing printed.
        let mut by_cost: Vec<_> = report.timings.iter().collect();
        by_cost.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
        let total: std::time::Duration = by_cost.iter().map(|(_, d)| *d).sum();
        let cols: Vec<String> =
            by_cost.iter().map(|(id, d)| format!("{id} {:.1}ms", d.as_secs_f64() * 1e3)).collect();
        eprintln!(
            "coaxial-lint: rule wall time {:.1}ms — {}",
            total.as_secs_f64() * 1e3,
            cols.join(", ")
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "coaxial-lint: {err}\nusage: coaxial-lint [--root <dir>] [--format text|json|sarif] \
         [--list] [--explain <ID>]"
    );
    ExitCode::FAILURE
}
