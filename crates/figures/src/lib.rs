//! # sirum_figures
//!
//! The paper-figure reproducer — not the repo's perf surface, which is
//! the end-to-end `sirum-bench/` package named by `BENCHMARK.json`. The
//! `figures` binary regenerates every figure of the thesis evaluation
//! (Figs 3.1–5.18); this library holds its workloads and reporting
//! helpers.
//!
//! Dataset sizes are scaled from the paper's cluster-scale inputs to
//! laptop-scale (see DESIGN.md, substitution 3); the shapes — who wins and
//! by roughly what factor — are what the harness reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

pub use sirum_baselines as baselines;
pub use sirum_core as core;
pub use sirum_dataflow as dataflow;
pub use sirum_table as table;

/// Standard workloads (scaled-down versions of the paper's datasets).
pub mod workloads {
    use sirum_table::{generators, Table};

    /// Fixed seed for all workloads (runs are deterministic).
    pub const SEED: u64 = 2016;

    /// Income: 20k × 9 dims, binary measure (paper: 1.5M).
    pub fn income() -> Table {
        generators::income_like(20_000, SEED)
    }

    /// GDELT: 20k × 9 dims, numeric measure (paper: 3.8M).
    pub fn gdelt() -> Table {
        generators::gdelt_like(20_000, SEED)
    }

    /// SUSY: 300 × 18 dims, binary measure (paper: 5M). Scaled far below the
    /// other workloads because 18 dimensions make ancestor generation
    /// explode combinatorially — exactly the effect Figs 3.2/5.6/5.7
    /// measure — and this harness runs on a single core.
    pub fn susy() -> Table {
        generators::susy_like(300, SEED)
    }

    /// TLC sample of `n` rows, numeric measure (paper: TLC_2m…TLC_160m).
    pub fn tlc(n: usize) -> Table {
        generators::tlc_like(n, SEED)
    }
}

/// Where figure TSVs are written.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// A printed + persisted result table for one figure.
pub struct FigureReport {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl FigureReport {
    /// Start a report for figure `name` with the given column header.
    pub fn new(name: &str, header: &[&str]) -> Self {
        FigureReport {
            name: name.to_string(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Print the table to stdout and write `target/figures/<name>.tsv`.
    pub fn finish(&self) {
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.name));
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        print!("{out}");
        std::io::stdout().flush().ok();

        let path = figures_dir().join(format!("{}.tsv", self.name));
        let mut tsv = String::new();
        tsv.push_str(&self.header.join("\t"));
        tsv.push('\n');
        for r in &self.rows {
            tsv.push_str(&r.join("\t"));
            tsv.push('\n');
        }
        std::fs::write(&path, tsv).expect("write figure TSV");
    }
}

/// Time a closure, returning its value and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// Format seconds with 2 decimals.
pub fn secs(s: f64) -> String {
    format!("{s:.2}")
}

/// Format a ratio as `N.Nx`.
pub fn speedup(base: f64, fast: f64) -> String {
    if fast <= 0.0 {
        return "-".into();
    }
    format!("{:.1}x", base / fast)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_to_tsv() {
        let mut r = FigureReport::new("test_report", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        r.finish();
        let tsv = std::fs::read_to_string(figures_dir().join("test_report.tsv")).unwrap();
        assert_eq!(tsv, "a\tb\n1\t2\n");
    }

    #[test]
    fn helpers_format() {
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(speedup(10.0, 2.0), "5.0x");
        assert_eq!(speedup(10.0, 0.0), "-");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn report_checks_arity() {
        let mut r = FigureReport::new("x", &["a", "b"]);
        r.row(vec!["1".into()]);
    }
}
