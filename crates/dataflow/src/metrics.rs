//! Execution metrics: per-stage task records, shuffle volumes, disk I/O.
//!
//! The profiling figures (Figs 3.1, 3.2, 4.3, 4.4) and the benchmark's
//! per-layer counters read them.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Measurement of a single task (one partition of one stage; the
/// partition's index is the task's position in [`StageRecord::tasks`]).
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Records consumed by the task.
    pub records_in: u64,
    /// Records produced by the task.
    pub records_out: u64,
    /// Wall-clock nanoseconds spent inside the task body.
    pub nanos: u64,
}

/// Measurement of one stage (one parallel operator execution).
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Human-readable operator label, e.g. `"lca-join"`.
    pub label: String,
    /// Per-task measurements.
    pub tasks: Vec<TaskRecord>,
    /// Records that crossed a shuffle boundary in this stage.
    pub shuffled_records: u64,
    /// Bytes that crossed a shuffle boundary in this stage.
    pub shuffled_bytes: u64,
}

impl StageRecord {
    /// Total records produced by the stage.
    pub fn records_out(&self) -> u64 {
        self.tasks.iter().map(|t| t.records_out).sum()
    }
}

#[derive(Default)]
struct Counters {
    disk_bytes_written: AtomicU64,
    disk_bytes_read: AtomicU64,
    disk_writes: AtomicU64,
    disk_reads: AtomicU64,
}

/// Snapshot of the global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Bytes written to spill / intermediate files.
    pub disk_bytes_written: u64,
    /// Bytes read back from spill / intermediate files.
    pub disk_bytes_read: u64,
    /// Number of file writes.
    pub disk_writes: u64,
    /// Number of file reads.
    pub disk_reads: u64,
}

/// Thread-safe registry collecting stage records and I/O counters for one
/// engine. Cheap to clone (shared interior).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    stages: Arc<Mutex<Vec<StageRecord>>>,
    counters: Arc<Counters>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a completed stage.
    pub fn push_stage(&self, record: StageRecord) {
        self.stages.lock().push(record);
    }

    /// All stages recorded since construction.
    pub fn stages(&self) -> Vec<StageRecord> {
        self.stages.lock().clone()
    }

    /// Number of stages executed so far.
    pub fn stage_count(&self) -> usize {
        self.stages.lock().len()
    }

    /// Record one file write of `bytes` bytes.
    pub(crate) fn add_disk_write(&self, bytes: u64) {
        self.counters
            .disk_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        self.counters.disk_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one file read of `bytes` bytes.
    pub(crate) fn add_disk_read(&self, bytes: u64) {
        self.counters
            .disk_bytes_read
            .fetch_add(bytes, Ordering::Relaxed);
        self.counters.disk_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the I/O counters.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            disk_bytes_written: self.counters.disk_bytes_written.load(Ordering::Relaxed),
            disk_bytes_read: self.counters.disk_bytes_read.load(Ordering::Relaxed),
            disk_writes: self.counters.disk_writes.load(Ordering::Relaxed),
            disk_reads: self.counters.disk_reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(label: &str, nanos: &[u64]) -> StageRecord {
        StageRecord {
            label: label.to_string(),
            tasks: nanos
                .iter()
                .map(|&n| TaskRecord {
                    records_in: 10,
                    records_out: 5,
                    nanos: n,
                })
                .collect(),
            shuffled_records: 0,
            shuffled_bytes: 0,
        }
    }

    #[test]
    fn push_records_stages_in_order() {
        let m = MetricsRegistry::new();
        m.push_stage(stage("a", &[1_000_000_000]));
        m.push_stage(stage("b", &[500_000_000, 500_000_000]));
        assert_eq!(m.stage_count(), 2);
        let stages = m.stages();
        assert_eq!(stages[0].label, "a");
        assert_eq!(stages[1].label, "b");
        assert_eq!(stages[1].tasks.len(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.add_disk_write(100);
        m.add_disk_write(50);
        m.add_disk_read(30);
        let c = m.counters();
        assert_eq!(c.disk_bytes_written, 150);
        assert_eq!(c.disk_writes, 2);
        assert_eq!(c.disk_bytes_read, 30);
        assert_eq!(c.disk_reads, 1);
    }

    #[test]
    fn clones_share_state() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.push_stage(stage("x", &[1]));
        assert_eq!(m.stage_count(), 1);
    }

    #[test]
    fn stage_record_aggregates() {
        let s = stage("s", &[100, 200, 300]);
        assert_eq!(s.records_out(), 15);
    }
}
