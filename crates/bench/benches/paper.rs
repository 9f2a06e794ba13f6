//! Regenerate the paper's tables and figures from the experiment registry.
//!
//! ```text
//! cargo bench -p coaxial-bench --bench paper                # every entry
//! cargo bench -p coaxial-bench --bench paper -- fig5 fig8   # named entries
//! ```
//!
//! Each entry runs at `Budget::default()` (`COAXIAL_INSTR` /
//! `COAXIAL_WARMUP`), prints what `coaxial exp <name>` prints, and writes
//! its tables as CSV and its figures as SVG under `target/paper-results/`.

use coaxial_bench::{banner, plot, write_result};
use coaxial_system::experiments::{registry, Budget};

fn main() {
    // cargo passes `--bench`; everything else names an entry.
    let names: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    let entries = registry();
    if let Some(unknown) = names.iter().find(|n| !entries.iter().any(|e| e.name == n.as_str())) {
        let known: Vec<&str> = entries.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment '{unknown}' — available: {}", known.join(", "));
        std::process::exit(2);
    }
    for e in entries.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.name)) {
        banner(e.name, e.title);
        let out = (e.run)(Budget::default());
        print!("{out}");
        println!();
        for t in &out.tables {
            write_result(&format!("{}.csv", t.name), &t.csv());
        }
        for c in &out.charts {
            write_result(&format!("{}.svg", c.name), &plot::render(c));
        }
    }
}
