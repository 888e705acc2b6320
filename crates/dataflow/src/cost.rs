//! Deterministic cluster cost model.
//!
//! The thesis evaluates SIRUM on a 16-node Spark/YARN cluster; this
//! reproduction runs on a single machine. The engine measures exact per-task
//! work (wall time of each partition's task, shuffle volumes, stage counts),
//! and this module replays those measurements through a schedule for a
//! hypothetical cluster of `E` executors × `C` cores: tasks are placed with a
//! greedy longest-processing-time (LPT) heuristic, shuffles are charged
//! network time proportional to volume divided by the executor count, every
//! stage pays a scheduling overhead, and an optional straggler inflates one
//! executor. This reproduces the *shapes* of the strong/weak-scaling figures
//! (5.16/5.17) — sub-linear scaling for small inputs, stragglers bending the
//! weak-scaling line — without needing 16 physical nodes.
//!
//! Beside the replay sit the two prices a planner needs before anything
//! has run: [`modeled_sweep_stage`] (a fused, shuffle-free sweep stage) and
//! [`scan_record_nanos`] (one columnar scan pass, raw or compressed).

use crate::metrics::StageRecord;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A hypothetical cluster to replay measured stages onto.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of executors (the paper scales 2..16).
    pub executors: usize,
    /// Task slots per executor (the paper's nodes have 24 cores).
    pub cores_per_executor: usize,
    /// Scheduling/launch overhead charged once per stage, seconds.
    pub stage_startup_secs: f64,
    /// Network transfer time per megabyte of shuffled data, divided by the
    /// executor count (more executors = more aggregate bandwidth).
    pub shuffle_secs_per_mb: f64,
    /// Slowdown multiplier applied to one executor's slots (§5.7.2 observes
    /// stragglers breaking weak scaling; 1.0 disables).
    pub straggler_slowdown: f64,
}

impl ClusterSpec {
    /// The paper's cluster: 16 executors, 24 cores each.
    pub fn paper_cluster() -> Self {
        ClusterSpec {
            executors: 16,
            cores_per_executor: 24,
            stage_startup_secs: 0.05,
            shuffle_secs_per_mb: 0.01,
            straggler_slowdown: 1.0,
        }
    }

    /// Same cluster with `executors` nodes.
    pub fn with_executors(mut self, executors: usize) -> Self {
        self.executors = executors.max(1);
        self
    }

    /// Enable a straggler node with the given slowdown factor.
    pub fn with_straggler(mut self, slowdown: f64) -> Self {
        self.straggler_slowdown = slowdown.max(1.0);
        self
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// Ordered slot load for the LPT heap (f64 loads via total_cmp).
#[derive(PartialEq)]
struct Slot {
    load: f64,
    /// Work-time multiplier (straggler slots > 1.0).
    slow: f64,
}

impl Eq for Slot {}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load.total_cmp(&other.load)
    }
}

/// Modeled completion time of a single stage on the given cluster.
pub fn stage_makespan(stage: &StageRecord, spec: &ClusterSpec) -> f64 {
    let slots_n = spec.executors * spec.cores_per_executor.max(1);
    let mut tasks: Vec<f64> = stage.tasks.iter().map(|t| t.nanos as f64 / 1e9).collect();
    tasks.sort_by(|a, b| b.total_cmp(a));

    // Min-heap of slot loads; first executor's slots run slower if a
    // straggler is configured.
    let mut heap: BinaryHeap<Reverse<Slot>> = (0..slots_n)
        .map(|i| {
            let slow = if i < spec.cores_per_executor {
                spec.straggler_slowdown
            } else {
                1.0
            };
            Reverse(Slot { load: 0.0, slow })
        })
        .collect();
    for t in tasks {
        let Some(Reverse(mut slot)) = heap.pop() else {
            unreachable!("cluster specs have at least one slot");
        };
        slot.load += t * slot.slow;
        heap.push(Reverse(slot));
    }
    let compute = heap
        .into_iter()
        .map(|Reverse(s)| s.load)
        .fold(0.0f64, f64::max);

    let shuffle_mb = stage.shuffled_bytes as f64 / (1024.0 * 1024.0);
    let shuffle = shuffle_mb * spec.shuffle_secs_per_mb / spec.executors as f64;
    spec.stage_startup_secs + compute + shuffle
}

/// Modeled completion time of a whole run (sequence of stages).
pub fn makespan(stages: &[StageRecord], spec: &ClusterSpec) -> f64 {
    stages.iter().map(|s| stage_makespan(s, spec)).sum()
}

/// Build the modeled [`StageRecord`] of a **fused partition-parallel
/// sweep**: `records` units of per-tuple work split evenly over
/// `partitions` tasks at `nanos_per_record` each, with **zero shuffle
/// volume** — the sweep's reduction is a driver-side, partition-ordered
/// fold of per-partition accumulators, so nothing crosses a shuffle
/// boundary. Planners (e.g. `service.explain()`) replay this record
/// through [`stage_makespan`] alongside measured/modeled staged pipelines
/// to predict what fusing the candidate evaluation saves.
pub fn modeled_sweep_stage(records: u64, partitions: usize, nanos_per_record: f64) -> StageRecord {
    use crate::metrics::TaskRecord;
    let partitions = partitions.max(1);
    let per_task = records.div_ceil(partitions as u64);
    StageRecord {
        label: "gain-sweep".to_string(),
        tasks: (0..partitions)
            .map(|p| TaskRecord {
                partition: p,
                records_in: per_task,
                records_out: 1,
                nanos: (per_task as f64 * nanos_per_record) as u64,
            })
            .collect(),
        shuffled_records: 0,
        shuffled_bytes: 0,
    }
}

/// Modeled DRAM streaming bandwidth of one scan thread, in bytes per
/// nanosecond (≈ 8 GB/s per core on the calibration container) — what a
/// sequential columnar pass moves when the working set exceeds cache.
pub const SCAN_BANDWIDTH_BYTES_PER_NANO: f64 = 8.0;

/// Modeled per-value cost of unpacking one compressed dimension code
/// (bit-packed word extraction or RLE run lookup) into the morsel scratch
/// buffer during a compressed columnar scan.
pub const DECODE_NANOS_PER_VALUE: f64 = 0.4;

/// Modeled per-record nanoseconds of one columnar scan pass over `dims`
/// dimension columns carrying `bytes_per_row` of dimension payload: memory
/// traffic at streaming [`SCAN_BANDWIDTH_BYTES_PER_NANO`], plus a
/// per-value decode tax when the columns are `compressed`.
///
/// This is the compressed-vs-raw trade `explain()` prices: compression
/// shrinks the traffic term (a packed column moves `ceil(log2 card)` bits
/// per value instead of 32) but pays [`DECODE_NANOS_PER_VALUE`] per value
/// to fill the scratch buffer, so narrow dictionaries win on big tables
/// while already-cache-resident tables gain nothing.
pub fn scan_record_nanos(dims: usize, bytes_per_row: f64, compressed: bool) -> f64 {
    let traffic = bytes_per_row / SCAN_BANDWIDTH_BYTES_PER_NANO;
    if compressed {
        traffic + dims as f64 * DECODE_NANOS_PER_VALUE
    } else {
        traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TaskRecord;

    fn stage(task_secs: &[f64], shuffled_bytes: u64) -> StageRecord {
        StageRecord {
            label: "s".into(),
            tasks: task_secs
                .iter()
                .enumerate()
                .map(|(i, &s)| TaskRecord {
                    partition: i,
                    records_in: 0,
                    records_out: 0,
                    nanos: (s * 1e9) as u64,
                })
                .collect(),
            shuffled_records: 0,
            shuffled_bytes,
        }
    }

    fn spec(executors: usize, cores: usize) -> ClusterSpec {
        ClusterSpec {
            executors,
            cores_per_executor: cores,
            stage_startup_secs: 0.0,
            shuffle_secs_per_mb: 0.0,
            straggler_slowdown: 1.0,
        }
    }

    #[test]
    fn single_slot_is_sequential() {
        let s = stage(&[1.0, 2.0, 3.0], 0);
        assert!((stage_makespan(&s, &spec(1, 1)) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn equal_tasks_divide_evenly() {
        let s = stage(&[1.0; 8], 0);
        assert!((stage_makespan(&s, &spec(4, 2)) - 1.0).abs() < 1e-9);
        assert!((stage_makespan(&s, &spec(2, 2)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_executors_never_slower() {
        let s = stage(&[0.5, 1.0, 0.25, 2.0, 0.75, 1.5, 0.1, 0.9], 0);
        let mut last = f64::INFINITY;
        for e in [1, 2, 4, 8] {
            let m = stage_makespan(&s, &spec(e, 1));
            assert!(m <= last + 1e-12, "executors={e}");
            last = m;
        }
    }

    #[test]
    fn scaling_is_sublinear_with_skewed_tasks() {
        // One dominant task bounds the makespan from below.
        let s = stage(&[4.0, 0.5, 0.5, 0.5, 0.5], 0);
        assert!((stage_makespan(&s, &spec(8, 1)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_cost_shrinks_with_executors() {
        let mut sp = spec(2, 1);
        sp.shuffle_secs_per_mb = 1.0;
        let s = stage(&[], 4 * 1024 * 1024);
        let m2 = stage_makespan(&s, &sp);
        let m4 = stage_makespan(&s, &sp.with_executors(4));
        assert!((m2 - 2.0).abs() < 1e-9);
        assert!((m4 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn straggler_inflates_makespan() {
        let s = stage(&[1.0; 4], 0);
        let base = stage_makespan(&s, &spec(4, 1));
        let strag = stage_makespan(&s, &spec(4, 1).with_straggler(1.5));
        assert!((base - 1.0).abs() < 1e-9);
        assert!((strag - 1.5).abs() < 1e-9);
    }

    #[test]
    fn modeled_sweep_stage_parallelizes_and_never_shuffles() {
        let s = modeled_sweep_stage(8_000_000, 8, 100.0);
        assert_eq!(s.tasks.len(), 8);
        assert_eq!(s.shuffled_records, 0);
        assert_eq!(s.shuffled_bytes, 0);
        // 8 × 0.1s tasks: 4 dual-core executors finish in one task's time.
        let par = stage_makespan(&s, &spec(4, 2));
        let seq = stage_makespan(&s, &spec(1, 1));
        assert!((par - 0.1).abs() < 1e-9, "par = {par}");
        assert!((seq - 0.8).abs() < 1e-9, "seq = {seq}");
    }

    #[test]
    fn compressed_scan_pricing_trades_bandwidth_for_decode() {
        // Raw scans are pure bandwidth: cost scales with row bytes.
        let raw_narrow = scan_record_nanos(3, 12.0, false);
        let raw_wide = scan_record_nanos(9, 36.0, false);
        assert!(raw_wide > raw_narrow);
        // The same payload compressed pays the per-value decode tax on top.
        assert!(scan_record_nanos(9, 36.0, true) > raw_wide);
        // A well-packed wide row (9 dims in < 4 bytes vs 36 raw) still
        // scans cheaper than its raw representation — the tlc-shaped case.
        assert!(scan_record_nanos(9, 3.75, true) < raw_wide);
        // But a narrow cache-friendly table gains next to nothing: the
        // per-value decode tax roughly cancels the bandwidth saving —
        // which is why `Compression::Auto` leaves small tables raw.
        assert!((scan_record_nanos(3, 2.0, true) - raw_narrow).abs() < 0.1);
    }

    #[test]
    fn startup_charged_per_stage() {
        let mut sp = spec(1, 1);
        sp.stage_startup_secs = 0.1;
        let stages = vec![stage(&[1.0], 0), stage(&[1.0], 0)];
        assert!((makespan(&stages, &sp) - 2.2).abs() < 1e-9);
    }
}
