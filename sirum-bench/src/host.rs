//! Facts about the host a result was taken on: two calibration kernels
//! (so a reader can normalise, or refuse, a cross-host comparison), the
//! core count, the process's peak memory and the source revision.

use crate::report::Metrics;
use sirum::dataflow::EngineConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Memory-bound kernel: sum a 64 MB `u32` column, best of three, in GB/s.
fn scan_gb_per_s() -> f64 {
    let column: Vec<u32> = (0..16u32 << 20).collect();
    let best = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let sum: u64 = black_box(&column).iter().map(|&v| u64::from(v)).sum();
            black_box(sum);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (column.len() * 4) as f64 / 1e9 / best
}

/// Compute-bound kernel: an FNV-1a fold over 16 M words (a serial
/// multiply chain, like the fingerprint and hash-combine paths), in
/// million words per second.
fn hash_mops() -> f64 {
    const WORDS: u64 = 16 << 20;
    let t0 = Instant::now();
    let mut state = 0xcbf2_9ce4_8422_2325_u64;
    for word in 0..black_box(WORDS) {
        state = (state ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box(state);
    WORDS as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The four `host.*` layer metrics.
pub fn calibrate(metrics: &mut Metrics, engine: &EngineConfig) {
    metrics.set("host.scan_gb_per_s", scan_gb_per_s());
    metrics.set("host.hash_mops", hash_mops());
    metrics.set("host.cores", cores() as f64);
    metrics.set("host.effective_workers", engine.effective_workers() as f64);
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` does
/// not offer it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `HEAD` of the git repository at `root`, read from its files (no
/// subprocess); `"unknown"` outside a repository.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(&git.join("HEAD")).and_then(|head| match head.strip_prefix("ref: ") {
        Some(reference) => read(&git.join(reference)),
        None => Some(head),
    });
    rev.unwrap_or_else(|| "unknown".to_string())
}
