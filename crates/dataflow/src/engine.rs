//! The execution engine: a thread pool running per-partition tasks with
//! metrics collection.

use crate::config::{EngineConfig, EngineMode};
#[cfg(test)]
use crate::dataset::{Dataset, Part};
use crate::error::DataflowError;
use crate::memory::BlockStore;
use crate::metrics::{MetricsRegistry, StageRecord, TaskRecord};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Handle to a dataflow engine. Cheap to clone; all clones share the same
/// block store, metrics and configuration.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

pub(crate) struct EngineInner {
    pub(crate) config: EngineConfig,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) store: BlockStore,
}

/// Result of one task: the produced value plus record accounting.
pub(crate) struct TaskOutput<O> {
    /// Value produced by the task (e.g. an output partition).
    pub(crate) value: O,
    /// Records the task consumed.
    pub(crate) records_in: u64,
    /// Records the task produced.
    pub(crate) records_out: u64,
}

impl Engine {
    /// Build an engine from a configuration: validates it
    /// ([`DataflowError::InvalidConfig`]) and verifies the spill directory
    /// is usable ([`DataflowError::Spill`]) before any job runs.
    pub fn try_new(config: EngineConfig) -> Result<Self, DataflowError> {
        config.validate()?;
        let metrics = MetricsRegistry::new();
        let store = BlockStore::new(
            config.memory_budget,
            config.spill_dir.clone(),
            metrics.clone(),
        );
        let engine = Engine {
            inner: Arc::new(EngineInner {
                config,
                metrics,
                store,
            }),
        };
        engine.health()?;
        Ok(engine)
    }

    /// Fork a per-job view of this engine: the clone shares the
    /// configuration and block store (so cached/spilled partitions and the
    /// memory budget stay global) but records stages into a **fresh**
    /// [`MetricsRegistry`].
    ///
    /// An ordinary [`Engine::clone`] shares the metrics too, which is what
    /// a single driver wants — but concurrent drivers on one engine would
    /// interleave their stage records, and anything derived from "the last
    /// stage" (candidate totals, ancestor counts) would become racy.
    /// Serving layers therefore give each concurrent job a fork, keeping
    /// per-job metrics deterministic while all jobs share one store.
    ///
    /// Disk I/O counters still accumulate in the *original* engine's
    /// registry (the block store keeps its metrics handle); `health()` is
    /// likewise store-global, so a poisoning spill failure surfaces to
    /// every fork.
    pub fn fork(&self) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                config: self.inner.config.clone(),
                metrics: MetricsRegistry::new(),
                store: self.inner.store.clone(),
            }),
        }
    }

    /// Surface the first deferred dataflow failure (today: spill I/O errors
    /// recorded by the block store while workers degraded gracefully),
    /// clearing it. Drivers should check between stages and abort the run
    /// on `Err`, since partitions produced after a poisoning event may be
    /// placeholders.
    pub fn health(&self) -> Result<(), DataflowError> {
        match self.inner.store.take_poison() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The platform emulation mode.
    pub fn mode(&self) -> EngineMode {
        self.inner.config.mode
    }

    /// The metrics registry shared by all operators of this engine.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The block store backing cached and disk-materialized partitions.
    pub fn store(&self) -> &BlockStore {
        &self.inner.store
    }

    /// Distribute `data` over `partitions` in-memory partitions of
    /// `⌈n / partitions⌉` records each, trailing ones possibly empty.
    #[cfg(test)]
    pub(crate) fn parallelize<T: Send + Sync + 'static>(
        &self,
        data: Vec<T>,
        partitions: usize,
    ) -> Dataset<T> {
        let partitions = partitions.max(1);
        let n = data.len();
        let chunk = n.div_ceil(partitions).max(1);
        let mut parts = Vec::with_capacity(partitions);
        let mut iter = data.into_iter();
        for _ in 0..partitions {
            let part: Vec<T> = iter.by_ref().take(chunk).collect();
            parts.push(Part::Mem(Arc::new(part)));
        }
        Dataset::from_parts(self.clone(), parts)
    }

    /// Execute one stage: apply `f` to every input in parallel, recording a
    /// [`StageRecord`]. `shuffle` carries (records, bytes) that crossed a
    /// shuffle boundary into this stage, for metric purposes.
    pub(crate) fn run_stage<I, O, F>(
        &self,
        label: &str,
        inputs: Vec<I>,
        shuffle: (u64, u64),
        f: F,
    ) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> TaskOutput<O> + Send + Sync,
    {
        let workers = self
            .inner
            .config
            .effective_workers()
            .min(inputs.len().max(1));
        let n = inputs.len();
        let slots: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let outputs: Vec<Mutex<Option<(O, TaskRecord)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        let run_task = |idx: usize| {
            let Some(input) = slots[idx].lock().take() else {
                unreachable!("task input taken once");
            };
            let start = Instant::now();
            let out = f(idx, input);
            let nanos = start.elapsed().as_nanos() as u64;
            *outputs[idx].lock() = Some((
                out.value,
                TaskRecord {
                    records_in: out.records_in,
                    records_out: out.records_out,
                    nanos,
                },
            ));
        };

        if workers <= 1 {
            for idx in 0..n {
                run_task(idx);
            }
        } else {
            let next = AtomicUsize::new(0);
            let scope_result = crossbeam::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|_| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        run_task(idx);
                    });
                }
            });
            if let Err(payload) = scope_result {
                // A worker thread died while running a task closure; carry
                // the original panic to the driver instead of masking it.
                std::panic::resume_unwind(payload);
            }
        }

        let mut values = Vec::with_capacity(n);
        let mut tasks = Vec::with_capacity(n);
        for slot in outputs {
            let Some((value, record)) = slot.into_inner() else {
                unreachable!("every task completed");
            };
            values.push(value);
            tasks.push(record);
        }
        self.inner.metrics.push_stage(StageRecord {
            label: label.to_string(),
            tasks,
            shuffled_records: shuffle.0,
            shuffled_bytes: shuffle.1,
        });
        values
    }
}

// The service layer shares one engine across threads; keep that a compile-
// time guarantee rather than an accident of field types.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_isolates_stage_metrics_but_shares_the_store() {
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let ds = engine.parallelize((0..10u32).collect(), 2).cache();
        assert!(engine.metrics().stage_count() > 0);
        let fork = engine.fork();
        assert_eq!(fork.metrics().stage_count(), 0, "fresh registry");
        let _ = fork.parallelize((0..4u32).collect(), 2).map("id", |&x| x);
        assert_eq!(fork.metrics().stage_count(), 1);
        // The parent's registry did not see the fork's stage.
        assert!(engine.metrics().stages().iter().all(|s| s.label != "id"));
        // One shared store: the fork sees the parent's cached bytes.
        assert!(fork.store().memory_stats().resident_bytes > 0);
        ds.free();
        assert_eq!(fork.store().memory_stats().resident_bytes, 0);
    }

    #[test]
    fn run_stage_preserves_order_and_records_metrics() {
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(4)).unwrap();
        let outs = engine.run_stage("square", (0..10u64).collect(), (0, 0), |_, x| TaskOutput {
            value: x * x,
            records_in: 1,
            records_out: 1,
        });
        assert_eq!(outs, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
        let stages = engine.metrics().stages();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].label, "square");
        assert_eq!(stages[0].tasks.len(), 10);
    }

    #[test]
    fn single_thread_mode_runs_inline() {
        let engine = Engine::try_new(EngineConfig::single_thread()).unwrap();
        let outs = engine.run_stage("id", vec![1, 2, 3], (0, 0), |_, x| TaskOutput {
            value: x,
            records_in: 1,
            records_out: 1,
        });
        assert_eq!(outs, vec![1, 2, 3]);
    }

    #[test]
    fn parallelize_splits_evenly() {
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let ds = engine.parallelize((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(ds.num_partitions(), 3);
        assert_eq!(ds.collect(), (0..10).collect::<Vec<i32>>());
    }

    #[test]
    fn parallelize_handles_empty_input() {
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let ds = engine.parallelize(Vec::<u32>::new(), 4);
        assert_eq!(ds.collect(), Vec::<u32>::new());
        assert_eq!(ds.len(), 0);
    }
}
