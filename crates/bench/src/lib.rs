//! Bench harness for the COAXIAL reproduction.
//!
//! `cargo bench -p coaxial-bench --bench paper [-- <name>...]` runs every
//! entry of the experiment registry (`coaxial_system::experiments`), or
//! the named ones, at `Budget::default()` (`COAXIAL_INSTR` /
//! `COAXIAL_WARMUP`). It prints what `coaxial exp <name>` prints and
//! writes each table as CSV and each figure as SVG under
//! `target/paper-results/`. `micro_substrates` and `sim_throughput` are
//! self-timed host benchmarks of the substrates and of the engine.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod plot;

/// Directory that the `paper` bench writes CSV/SVG results into —
/// anchored at the workspace root regardless of the CWD cargo gives bench
/// binaries.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/paper-results"))
}

/// Write `contents` to `results_dir()/<file>`, announcing the path; a
/// write failure is a warning, not an abort.
pub fn write_result(file: &str, contents: &str) {
    let dir = results_dir();
    let path: &Path = &dir.join(file);
    match fs::create_dir_all(&dir).and_then(|()| fs::write(path, contents)) {
        Ok(()) => println!("[written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Print a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("\n=== {id} — {caption} ===");
    println!("(paper: COAXIAL, SC 2024; reproduction values — shapes, not absolutes)\n");
}
