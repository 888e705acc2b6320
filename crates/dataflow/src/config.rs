//! Engine configuration: execution mode, parallelism, memory budget.

use crate::error::DataflowError;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// Which of the paper's three data processing platforms the engine emulates
/// (§2.6 / §5.2 of the thesis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Spark-like: partitions processed in parallel, intermediate results kept
    /// in memory (subject to the block-store budget).
    InMemory,
    /// Hive-on-MapReduce-like: every stage output partition and every
    /// shuffle bucket is serialized, written to disk and read back. This is
    /// the disk-materialization bottleneck Figure 5.2 measures; job startup
    /// is not emulated.
    DiskMr,
    /// PostgreSQL-like: a single worker executes every task sequentially
    /// (PostgreSQL 9.4 had no intra-query parallelism, §2.6.1). Data stays
    /// in memory, isolating the parallelism effect Figure 5.1 measures.
    SingleThread,
}

impl EngineMode {
    /// Canonical CLI spelling of the mode (`in-memory`, `disk-mr`,
    /// `single-thread`); round-trips through [`EngineMode::from_str`].
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EngineMode::InMemory => "in-memory",
            EngineMode::DiskMr => "disk-mr",
            EngineMode::SingleThread => "single-thread",
        }
    }
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineMode {
    type Err = DataflowError;

    /// Parse the CLI spelling of a mode. Unknown spellings map to
    /// [`DataflowError::UnknownMode`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-memory" | "spark" => Ok(EngineMode::InMemory),
            "disk-mr" | "hive" => Ok(EngineMode::DiskMr),
            "single-thread" | "postgres" => Ok(EngineMode::SingleThread),
            other => Err(DataflowError::UnknownMode {
                name: other.to_string(),
            }),
        }
    }
}

/// Tuning knobs for the [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Platform emulation mode.
    pub mode: EngineMode,
    /// Number of OS worker threads used to execute tasks. Forced to 1 in
    /// [`EngineMode::SingleThread`].
    pub workers: usize,
    /// Default number of partitions for new datasets (the paper uses 384
    /// Spark tasks; scale to taste).
    pub partitions: usize,
    /// Memory budget in bytes for cached blocks. `None` = unbounded.
    /// Mirrors Spark's executor storage memory (Figs 4.3/4.4).
    ///
    /// For a mine this bounds the cached blocks of the live generation of
    /// the mining dataset: the miner frees each generation before caching
    /// its successor, so the store holds one at a time, and a budget that
    /// holds one generation never spills. A block of a compressed frame is
    /// charged its overlapping segments whole. Nothing else a mine
    /// allocates is charged.
    pub memory_budget: Option<usize>,
    /// Directory for spill files and DiskMr intermediate results.
    pub spill_dir: PathBuf,
}

impl EngineConfig {
    /// Spark-like defaults: parallel, in-memory, unbounded budget.
    pub fn in_memory() -> Self {
        EngineConfig {
            mode: EngineMode::InMemory,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            partitions: 16,
            memory_budget: None,
            spill_dir: std::env::temp_dir().join("sirum-dataflow"),
        }
    }

    /// Hive-like: disk-materialized stage outputs and shuffle buckets.
    pub fn disk_mr() -> Self {
        EngineConfig {
            mode: EngineMode::DiskMr,
            ..Self::in_memory()
        }
    }

    /// PostgreSQL-like: one worker, no intra-query parallelism.
    pub fn single_thread() -> Self {
        EngineConfig {
            mode: EngineMode::SingleThread,
            workers: 1,
            ..Self::in_memory()
        }
    }

    /// Builder-style override of the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style override of the default partition count.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions.max(1);
        self
    }

    /// Builder-style override of the cache memory budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Builder-style override of the spill directory.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = dir;
        self
    }

    /// Effective worker count after applying mode and hardware
    /// constraints: `SingleThread` always runs one worker, and other modes
    /// cap the requested count at the machine's available parallelism —
    /// stage tasks are CPU-bound, so threads beyond the core count only
    /// thrash caches (measured ~10% on the gain-sweep workload). The cap
    /// keeps a floor of 2 so the multi-worker execution path stays
    /// exercised even on single-core CI runners; results are unaffected
    /// either way, since every stage's reduction is partition-ordered.
    pub fn effective_workers(&self) -> usize {
        match self.mode {
            EngineMode::SingleThread => 1,
            _ => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                self.workers.clamp(1, cores.max(2))
            }
        }
    }

    /// Validate the configuration, naming the offending field. Called by
    /// [`crate::Engine::try_new`] so invalid combinations are rejected at
    /// construction time rather than mid-job.
    pub(crate) fn validate(&self) -> Result<(), DataflowError> {
        let invalid = |field: &'static str, reason: String| {
            Err(DataflowError::InvalidConfig { field, reason })
        };
        if self.workers == 0 {
            return invalid("workers", "must be ≥ 1".into());
        }
        if self.partitions == 0 {
            return invalid("partitions", "must be ≥ 1".into());
        }
        if self.memory_budget == Some(0) {
            return invalid(
                "memory_budget",
                "must be > 0 bytes (use None for unbounded)".into(),
            );
        }
        if self.spill_dir.as_os_str().is_empty() {
            return invalid("spill_dir", "must not be empty".into());
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::in_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_forces_one_worker() {
        let cfg = EngineConfig::single_thread().with_workers(8);
        // with_workers sets the field, but the mode clamps the effective count.
        assert_eq!(cfg.effective_workers(), 1);
    }

    #[test]
    fn builders_compose() {
        let cfg = EngineConfig::in_memory()
            .with_workers(3)
            .with_partitions(7)
            .with_memory_budget(1 << 20);
        assert_eq!(cfg.workers, 3);
        // The effective count is hardware-capped (floor 2, ceiling the
        // requested 3), so it depends on the machine running the tests.
        assert!((2..=3).contains(&cfg.effective_workers()));
        assert_eq!(cfg.partitions, 7);
        assert_eq!(cfg.memory_budget, Some(1 << 20));
    }

    #[test]
    fn effective_workers_cap_keeps_the_parallel_path_alive() {
        // Oversubscribing far beyond any machine's cores is clamped, but
        // never below 2 (outside SingleThread): the multi-worker execution
        // path must stay exercised even on a single-core runner.
        let cfg = EngineConfig::in_memory().with_workers(10_000);
        let eff = cfg.effective_workers();
        assert!(eff >= 2);
        assert!(eff <= 10_000);
        assert_eq!(
            EngineConfig::in_memory()
                .with_workers(1)
                .effective_workers(),
            1
        );
    }

    #[test]
    fn mode_parse_round_trips() {
        for mode in [
            EngineMode::InMemory,
            EngineMode::DiskMr,
            EngineMode::SingleThread,
        ] {
            assert_eq!(mode.name().parse::<EngineMode>().unwrap(), mode);
        }
        assert!(matches!(
            "bogus".parse::<EngineMode>(),
            Err(DataflowError::UnknownMode { name }) if name == "bogus"
        ));
    }

    #[test]
    fn validate_names_the_offending_field() {
        assert!(EngineConfig::in_memory().validate().is_ok());
        let field = |cfg: EngineConfig| match cfg.validate() {
            Err(DataflowError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let mut cfg = EngineConfig::in_memory();
        cfg.workers = 0;
        assert_eq!(field(cfg), "workers");
        let mut cfg = EngineConfig::in_memory();
        cfg.partitions = 0;
        assert_eq!(field(cfg), "partitions");
        let mut cfg = EngineConfig::in_memory();
        cfg.memory_budget = Some(0);
        assert_eq!(field(cfg), "memory_budget");
        let mut cfg = EngineConfig::in_memory();
        cfg.spill_dir = PathBuf::new();
        assert_eq!(field(cfg), "spill_dir");
    }
}
