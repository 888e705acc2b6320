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
    fn startup_charged_per_stage() {
        let mut sp = spec(1, 1);
        sp.stage_startup_secs = 0.1;
        let stages = vec![stage(&[1.0], 0), stage(&[1.0], 0)];
        assert!((makespan(&stages, &sp) - 2.2).abs() < 1e-9);
    }
}
