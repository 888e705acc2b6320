//! `Dataset<T>`: a partitioned, immutable collection with Spark-like
//! coarse-grained transformations (map / filter / reduce-by-key / sample /
//! cache), executed by the [`Engine`].

use crate::config::EngineMode;
use crate::encode::{decode_records, Encode};
use crate::engine::{Engine, TaskOutput};
use crate::hash::FxHashMap;
use crate::memory::BlockId;
use std::hash::Hash;
use std::sync::Arc;

/// Bound alias for element types that can flow through the engine: they must
/// be encodable (shuffles, spill), cloneable and thread-safe.
pub trait Record: Encode + Clone + Send + Sync + 'static {}
impl<T: Encode + Clone + Send + Sync + 'static> Record for T {}

/// The sample-selection protocol: the sorted global row indices of a
/// uniform without-replacement draw of `min(n, total)` rows, deterministic
/// in `seed` (all rows when `n >= total`). Rows are numbered across
/// partitions in order, so the indices name the same rows in a dataset of
/// any partitioning and in the table it was split from (the miner gathers
/// its sample from the latter).
pub fn sample_row_indices(total: usize, n: usize, seed: u64) -> Vec<usize> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    if n >= total {
        return (0..total).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen: Vec<usize> = rand::seq::index::sample(&mut rng, total, n).into_vec();
    chosen.sort_unstable();
    chosen
}

/// One partition of a dataset: either resident in memory or a handle into
/// the block store (cached or disk-materialized).
pub(crate) enum Part<T> {
    Mem(Arc<Vec<T>>),
    Stored(BlockId),
}

impl<T: Record> Part<T> {
    /// Materialize this partition: an `Arc` bump when resident, a block-store
    /// read (decoding, from disk if spilled) when stored.
    fn load(&self, engine: &Engine) -> Arc<Vec<T>> {
        match self {
            Part::Mem(a) => Arc::clone(a),
            Part::Stored(id) => engine.store().get::<T>(*id),
        }
    }

    /// Consume this partition for its records: a resident one moves them
    /// out (cloning only while another handle shares them), a stored one
    /// is read back and its block freed.
    fn take(self, engine: &Engine) -> Vec<T> {
        let data = match self {
            Part::Mem(a) => a,
            Part::Stored(id) => {
                let data = engine.store().get::<T>(id);
                engine.store().free(id);
                data
            }
        };
        Arc::try_unwrap(data).unwrap_or_else(|a| a.as_ref().clone())
    }
}

impl<T> Clone for Part<T> {
    fn clone(&self) -> Self {
        match self {
            Part::Mem(a) => Part::Mem(Arc::clone(a)),
            Part::Stored(id) => Part::Stored(*id),
        }
    }
}

/// A partitioned immutable collection bound to an [`Engine`].
pub struct Dataset<T> {
    engine: Engine,
    parts: Vec<Part<T>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            engine: self.engine.clone(),
            parts: self.parts.clone(),
        }
    }
}

impl<T: Send + Sync + 'static> Dataset<T> {
    pub(crate) fn from_parts(engine: Engine, parts: Vec<Part<T>>) -> Self {
        Dataset { engine, parts }
    }

    /// The engine this dataset is bound to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Build a dataset with **one record per partition** — the columnar
    /// construction, where each record is itself a whole partition's worth
    /// of rows (a [`sirum_table::FrameView`] range or a column block) and
    /// placing it is an `Arc` bump, not a copy.
    pub fn from_partitioned(engine: &Engine, items: Vec<T>) -> Dataset<T> {
        let parts = items
            .into_iter()
            .map(|item| Part::Mem(Arc::new(vec![item])))
            .collect();
        Dataset::from_parts(engine.clone(), parts)
    }
}

impl<T: Record> Dataset<T> {
    /// Materialize partition `i` (decoding / reading from disk if stored).
    pub fn part(&self, i: usize) -> Arc<Vec<T>> {
        self.parts[i].load(&self.engine)
    }

    /// Gather all records on the driver, in partition order.
    pub fn collect(&self) -> Vec<T> {
        let mut out = Vec::new();
        for i in 0..self.parts.len() {
            out.extend_from_slice(&self.part(i));
        }
        out
    }

    /// Place a freshly produced stage output partition or shuffle bucket
    /// according to the engine mode: in memory for the Spark-like modes,
    /// written to disk for `DiskMr`. With [`Self::cache`], the one place
    /// the mode is read. An empty part holds nothing to write, so it stays
    /// in memory in every mode: a map task whose keys miss a reducer writes
    /// no bucket for it.
    fn finish_part<U: Record>(engine: &Engine, out: Vec<U>) -> Part<U> {
        match engine.mode() {
            EngineMode::DiskMr if !out.is_empty() => Part::Stored(engine.store().put_disk(&out)),
            _ => Part::Mem(Arc::new(out)),
        }
    }

    /// One narrow stage: apply `f` to every partition independently.
    pub fn map_partitions<U: Record, F>(&self, label: &str, f: F) -> Dataset<U>
    where
        F: Fn(usize, &[T]) -> Vec<U> + Send + Sync,
    {
        self.map_partitions_fold(label, || (), |i, d| (f(i, d), ()), |_, ()| ())
            .0
    }

    /// One narrow stage whose tasks also return a side value: `f` maps a
    /// partition to its output and an accumulator, and `comb` folds the
    /// accumulators strictly in partition order on the driver (`init` only
    /// when there are none). Eager, like every map: each output partition
    /// is placed, in memory or on disk, by the time it returns.
    pub fn map_partitions_fold<U: Record, A: Send>(
        &self,
        label: &str,
        init: impl FnOnce() -> A,
        f: impl Fn(usize, &[T]) -> (Vec<U>, A) + Send + Sync,
        comb: impl Fn(&mut A, A),
    ) -> (Dataset<U>, A) {
        let engine = self.engine.clone();
        let outs =
            self.engine
                .run_stage(label, self.parts.clone(), (0, 0), |idx, part: Part<T>| {
                    let data = part.load(&engine);
                    let (out, acc) = f(idx, &data);
                    TaskOutput {
                        records_in: data.len() as u64,
                        records_out: out.len() as u64,
                        value: (Self::finish_part(&engine, out), acc),
                    }
                });
        // `run_stage` returns outputs in partition order, whichever worker
        // ran which task, so folding them front to back is deterministic.
        let (parts, accs): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
        let folded = accs.into_iter().reduce(|mut total, acc| {
            comb(&mut total, acc);
            total
        });
        let data = Dataset::from_parts(self.engine.clone(), parts);
        (data, folded.unwrap_or_else(init))
    }

    /// Element-wise transformation.
    pub fn map<U: Record, F>(&self, label: &str, f: F) -> Dataset<U>
    where
        F: Fn(&T) -> U + Send + Sync,
    {
        self.map_partitions(label, move |_, data| data.iter().map(&f).collect())
    }

    /// Partition-granular aggregation with a **deterministic,
    /// partition-ordered reduction**: `per_part` maps each whole partition
    /// to an accumulator (tasks run in parallel on the engine's thread
    /// pool), and `comb` folds the accumulators strictly in partition
    /// order on the driver.
    ///
    /// The task closure sees the partition slice (and its index) at once,
    /// so it can do work that needs partition boundaries — e.g. polling a
    /// cancellation token between partitions, or building one hash
    /// accumulator per partition. Because the fold order is the partition
    /// order — never the task *completion* order — the result is
    /// bit-identical for any worker count, including non-associative float
    /// accumulation: [`Self::map_partitions_fold`] with no output records.
    pub fn aggregate_partitions<A, FI, FP, FC>(
        &self,
        label: &str,
        init: FI,
        per_part: FP,
        comb: FC,
    ) -> A
    where
        A: Send,
        FI: Fn() -> A + Send + Sync,
        FP: Fn(usize, &[T]) -> A + Send + Sync,
        FC: Fn(&mut A, A),
    {
        let per_part = |idx, data: &[T]| (Vec::<()>::new(), per_part(idx, data));
        self.map_partitions_fold(label, init, per_part, comb).1
    }

    /// Persist every partition in the block store (subject to the memory
    /// budget; over-budget blocks spill to disk, as in Spark's `cache()`).
    /// Under `DiskMr` every stage output is already on disk, so this runs
    /// no stage and returns the same partitions (free only one of the two).
    pub fn cache(&self) -> Dataset<T> {
        if self.engine.mode() == EngineMode::DiskMr {
            return self.clone();
        }
        let engine = self.engine.clone();
        let parts =
            self.engine
                .run_stage("cache", self.parts.clone(), (0, 0), |_, part: Part<T>| {
                    let data = part.load(&engine);
                    let n = data.len() as u64;
                    let owned = Arc::try_unwrap(data).unwrap_or_else(|a| a.as_ref().clone());
                    TaskOutput {
                        records_in: n,
                        records_out: n,
                        value: Part::Stored(engine.store().put(owned)),
                    }
                });
        Dataset::from_parts(self.engine.clone(), parts)
    }

    /// Redistribute records across `partitions` partitions through a full
    /// shuffle (every record is serialized, moved and deserialized — the
    /// cost a repartition/cartesian join pays in Spark, which the broadcast
    /// join of BJ SIRUM avoids).
    pub fn repartition(&self, partitions: usize) -> Dataset<T> {
        let partitions = partitions.max(1);
        let engine = self.engine.clone();
        let buckets: Vec<(u64, Vec<Vec<u8>>)> = self.engine.run_stage(
            "repartition.map",
            self.parts.clone(),
            (0, 0),
            |_, part: Part<T>| {
                let data = part.load(&engine);
                let mut split: Vec<Vec<&T>> = (0..partitions).map(|_| Vec::new()).collect();
                for (i, t) in data.iter().enumerate() {
                    split[i % partitions].push(t);
                }
                let encoded: Vec<Vec<u8>> = split
                    .iter()
                    .map(|bucket| {
                        let mut out = Vec::new();
                        (bucket.len() as u64).encode(&mut out);
                        for t in bucket {
                            t.encode(&mut out);
                        }
                        out
                    })
                    .collect();
                TaskOutput {
                    records_in: data.len() as u64,
                    records_out: data.len() as u64,
                    value: (data.len() as u64, encoded),
                }
            },
        );
        let mut shuffled_records = 0u64;
        let mut shuffled_bytes = 0u64;
        let mut receiver_inputs: Vec<Vec<Vec<u8>>> = (0..partitions).map(|_| Vec::new()).collect();
        for (records, task_buckets) in buckets {
            shuffled_records += records;
            for (j, bucket) in task_buckets.into_iter().enumerate() {
                shuffled_bytes += bucket.len() as u64;
                receiver_inputs[j].push(bucket);
            }
        }
        let parts = self.engine.run_stage(
            "repartition.reduce",
            receiver_inputs,
            (shuffled_records, shuffled_bytes),
            |_, incoming: Vec<Vec<u8>>| {
                let mut out = Vec::new();
                for bucket in incoming {
                    out.extend(decode_records::<T>(&bucket));
                }
                let n = out.len() as u64;
                TaskOutput {
                    records_in: n,
                    records_out: n,
                    value: Self::finish_part(&engine, out),
                }
            },
        );
        Dataset::from_parts(self.engine.clone(), parts)
    }

    /// Release any block-store blocks held by this dataset.
    pub fn free(self) {
        for part in &self.parts {
            if let Part::Stored(id) = part {
                self.engine.store().free(*id);
            }
        }
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Record + Eq + Hash + Ord,
    V: Record,
{
    /// Hash-shuffle aggregation with map-side combine (the workhorse of the
    /// paper's data-cube rule generation). `route` hashes a key to its
    /// reducer (`route(k) % partitions`; [`crate::hash::fx_hash_one`] unless keys of
    /// another representation must land where their twins do), and
    /// `merge` folds a new value into an existing one for the same key.
    ///
    /// Each map task places one bucket per reducer as it places any stage
    /// output: in memory, or on disk in `DiskMr` mode, as MapReduce map
    /// outputs are. Each reduce task takes its buckets, freeing the stored
    /// ones once read. The shuffled record count is exact and the byte
    /// volume an estimate from each bucket's first record, in every mode.
    pub fn reduce_by_key<R, F>(
        &self,
        label: &str,
        partitions: usize,
        route: R,
        merge: F,
    ) -> Dataset<(K, V)>
    where
        R: Fn(&K) -> u64 + Send + Sync,
        F: Fn(&mut V, V) + Send + Sync,
    {
        let partitions = partitions.max(1);
        let engine = self.engine.clone();
        let (route, merge) = (&route, &merge);

        // Map side: combine within each partition, then split by key hash
        // into one bucket per reducer.
        let map_label = format!("{label}.combine");
        let buckets = self.engine.run_stage(
            &map_label,
            self.parts.clone(),
            (0, 0),
            |_, part: Part<(K, V)>| {
                let data = part.load(&engine);
                let mut combined: FxHashMap<K, V> = FxHashMap::default();
                for (k, v) in data.iter() {
                    match combined.get_mut(k) {
                        Some(acc) => merge(acc, v.clone()),
                        None => {
                            combined.insert(k.clone(), v.clone());
                        }
                    }
                }
                let records_out = combined.len() as u64;
                // Drain the combine map through a key sort so bucket
                // contents (and thus shuffle layout and disk spill
                // bytes) never depend on hash-iteration order.
                let mut drained: Vec<(K, V)> = combined.into_iter().collect();
                drained.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let mut split: Vec<Vec<(K, V)>> = (0..partitions).map(|_| Vec::new()).collect();
                for (k, v) in drained {
                    let p = (route(&k) % partitions as u64) as usize;
                    split[p].push((k, v));
                }
                let bytes: u64 = split
                    .iter()
                    .filter_map(|bucket| {
                        let (k, v) = bucket.first()?;
                        Some((k.size_estimate() + v.size_estimate()) as u64 * bucket.len() as u64)
                    })
                    .sum();
                let placed: Vec<_> = split
                    .into_iter()
                    .map(|bucket| Self::finish_part(&engine, bucket))
                    .collect();
                TaskOutput {
                    records_in: data.len() as u64,
                    records_out,
                    value: ((records_out, bytes), placed),
                }
            },
        );

        // Every combined record crosses the shuffle once.
        let mut shuffle = (0u64, 0u64);
        let mut reducer_inputs: Vec<Vec<Part<(K, V)>>> =
            (0..partitions).map(|_| Vec::new()).collect();
        for ((records, bytes), task_buckets) in buckets {
            shuffle = (shuffle.0 + records, shuffle.1 + bytes);
            for (j, bucket) in task_buckets.into_iter().enumerate() {
                reducer_inputs[j].push(bucket);
            }
        }

        // Reduce side: merge all buckets for this reducer.
        let reduce_label = format!("{label}.reduce");
        let parts = self.engine.run_stage(
            &reduce_label,
            reducer_inputs,
            shuffle,
            |_, incoming: Vec<Part<(K, V)>>| {
                let mut merged: FxHashMap<K, V> = FxHashMap::default();
                let mut records_in = 0u64;
                for bucket in incoming {
                    for (k, v) in bucket.take(&engine) {
                        records_in += 1;
                        match merged.get_mut(&k) {
                            Some(acc) => merge(acc, v),
                            None => {
                                merged.insert(k, v);
                            }
                        }
                    }
                }
                // Key-sorted output: reducer partitions have a stable
                // record order regardless of merge arrival order.
                let mut out: Vec<(K, V)> = merged.into_iter().collect();
                out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                TaskOutput {
                    records_in,
                    records_out: out.len() as u64,
                    value: Self::finish_part(&engine, out),
                }
            },
        );

        Dataset::from_parts(self.engine.clone(), parts)
    }
}

#[cfg(test)]
impl<T: Record> Dataset<T> {
    /// Total number of records (materializes partitions; cheap for in-memory
    /// parts, a disk read for spilled ones).
    pub(crate) fn len(&self) -> usize {
        (0..self.parts.len()).map(|i| self.part(i).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::hash::fx_hash_one;

    fn engine() -> Engine {
        Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap()
    }

    #[test]
    fn map_filter_flat_map_compose() {
        let e = engine();
        let d = e.parallelize((0..100u32).collect(), 7);
        let out = d
            .map("x2", |&x| x * 2)
            .map_partitions("even-hundreds", |_, xs| {
                xs.iter().copied().filter(|x| x % 10 == 0).collect()
            })
            .map_partitions("dup", |_, xs| xs.iter().flat_map(|&x| [x, x]).collect())
            .collect();
        assert_eq!(out.len(), 40);
        assert!(out.iter().all(|&x| x % 10 == 0));
    }

    #[test]
    fn aggregate_partitions_folds_in_partition_order() {
        // The fold must visit partitions 0, 1, 2, … regardless of worker
        // count; tags record the order the combiner saw them in.
        for workers in [1, 2, 4] {
            let e = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
            let d = e.parallelize((0..40u32).collect(), 5);
            let order = d.aggregate_partitions(
                "order",
                Vec::new,
                |idx, data: &[u32]| vec![(idx, data.len())],
                |a, b| a.extend(b),
            );
            assert_eq!(
                order,
                vec![(0, 8), (1, 8), (2, 8), (3, 8), (4, 8)],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn aggregate_partitions_is_bit_identical_across_worker_counts() {
        // Non-associative float accumulation: same partitioning must yield
        // the same bits for 1 and many workers.
        let data: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 0.37)).collect();
        let run = |workers: usize| -> u64 {
            let e = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
            let d = e.parallelize(data.clone(), 7);
            d.aggregate_partitions(
                "sum",
                || 0.0f64,
                |_, part: &[f64]| part.iter().sum::<f64>(),
                |a, b| *a += b,
            )
            .to_bits()
        };
        let seq = run(1);
        assert_eq!(run(2), seq);
        assert_eq!(run(4), seq);
    }

    #[test]
    fn map_partitions_fold_folds_side_values_in_partition_order() {
        for workers in [1, 4] {
            let e = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
            let d = e.parallelize((0..40u32).collect(), 5);
            let (out, order) = d.map_partitions_fold(
                "tagged",
                Vec::new,
                |idx, data: &[u32]| {
                    (
                        data.iter().map(|x| x + 1).collect(),
                        vec![(idx, data.len())],
                    )
                },
                |a, b| a.extend(b),
            );
            assert_eq!(out.collect(), (1..=40).collect::<Vec<u32>>());
            assert_eq!(
                order,
                vec![(0, 8), (1, 8), (2, 8), (3, 8), (4, 8)],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn disk_mr_map_partitions_fold_writes_as_map_partitions_does() {
        // Two of the four partitions map to nothing, which stays in memory.
        let keep_odd = |idx: usize, xs: &[u32]| {
            if idx % 2 == 1 {
                xs.to_vec()
            } else {
                Vec::new()
            }
        };
        let run = |fold: bool| {
            let e = Engine::try_new(EngineConfig::disk_mr()).unwrap();
            let d = e.parallelize((0..100u32).collect(), 4);
            let out = if fold {
                let (out, n) = d.map_partitions_fold(
                    "odd",
                    || 0,
                    |idx, xs| (keep_odd(idx, xs), 1),
                    |a, b| *a += b,
                );
                assert_eq!(n, 4);
                out
            } else {
                d.map_partitions("odd", keep_odd)
            };
            let written = e.metrics().counters();
            let stored = out.parts.iter().map(|p| matches!(p, Part::Stored(_)));
            let stored: Vec<bool> = stored.collect();
            let records = out.collect();
            out.free();
            assert_eq!(e.store().memory_stats().resident_bytes, 0);
            (
                written.disk_writes,
                written.disk_bytes_written,
                stored,
                records,
            )
        };
        let folded = run(true);
        assert_eq!(folded.0, 2);
        assert_eq!(folded.2, [false, true, false, true]);
        assert_eq!(folded, run(false));
    }

    #[test]
    fn reduce_by_key_matches_sequential() {
        let e = engine();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 13, 1u64)).collect();
        let d = e.parallelize(pairs, 8);
        let mut out = d
            .reduce_by_key("count", 4, fx_hash_one, |a, b| *a += b)
            .collect();
        out.sort_unstable();
        let expect: Vec<(u32, u64)> = (0..13)
            .map(|k| (k, (0..1000).filter(|i| i % 13 == k).count() as u64))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn reduce_by_key_output_order_is_input_order_independent() {
        // Regression (SL007): map-side combine and reduce-side merge both
        // went through hash maps, so the *order* of the collected output
        // tracked hash-iteration order of the input. Both sides now drain
        // through a key sort; the exact output sequence (no re-sorting
        // here) must survive any input permutation.
        let run = |pairs: Vec<(u32, u64)>| -> Vec<(u32, u64)> {
            let e = engine();
            e.parallelize(pairs, 1)
                .reduce_by_key("count", 3, fx_hash_one, |a, b| *a += b)
                .collect()
        };
        let forward: Vec<(u32, u64)> = (0..400).map(|i| (i % 17, u64::from(i))).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        assert_eq!(run(forward), run(reversed));
    }

    #[test]
    fn reduce_by_key_records_shuffle_metrics() {
        let e = engine();
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 5, 1u64)).collect();
        let d = e.parallelize(pairs, 4);
        let _ = d.reduce_by_key("count", 3, fx_hash_one, |a, b| *a += b);
        let stages = e.metrics().stages();
        let reduce = stages.iter().find(|s| s.label == "count.reduce").unwrap();
        // 4 map partitions × up to 5 keys each, combined map-side.
        assert!(reduce.shuffled_records >= 5);
        assert!(reduce.shuffled_records <= 20);
        assert!(reduce.shuffled_bytes > 0);
    }

    #[test]
    fn sample_row_indices_exact_size_without_replacement() {
        let s = sample_row_indices(1000, 64, 7);
        assert_eq!(s.len(), 64);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
        assert!(s.iter().all(|&i| i < 1000));
        // Deterministic
        assert_eq!(sample_row_indices(1000, 64, 7), s);
        // Oversized request returns everything.
        assert_eq!(
            sample_row_indices(1000, 5000, 7),
            (0..1000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cache_round_trips_through_block_store() {
        let e = engine();
        let d = e.parallelize((0..500u32).collect(), 4).cache();
        assert_eq!(d.collect(), (0..500).collect::<Vec<u32>>());
        assert!(e.store().memory_stats().resident_bytes > 0);
        d.free();
        assert_eq!(e.store().memory_stats().resident_bytes, 0);
    }

    #[test]
    fn disk_mr_mode_materializes_stages_on_disk() {
        let e = Engine::try_new(EngineConfig::disk_mr()).unwrap();
        let d = e.parallelize((0..100u32).collect(), 4);
        let out = d.map("inc", |&x| x + 1);
        assert!(e.metrics().counters().disk_writes >= 4);
        let before_reads = e.metrics().counters().disk_reads;
        assert_eq!(out.collect(), (1..=100).collect::<Vec<u32>>());
        assert!(e.metrics().counters().disk_reads > before_reads);
        // The outputs are on disk already: caching adds no stage, no write
        // and no resident byte.
        let (stages, counters) = (e.metrics().stage_count(), e.metrics().counters());
        let resident = e.store().memory_stats().resident_bytes;
        let cached = out.cache();
        assert_eq!(e.metrics().stage_count(), stages);
        assert_eq!(e.metrics().counters().disk_writes, counters.disk_writes);
        assert_eq!(e.store().memory_stats().resident_bytes, resident);
        assert_eq!(cached.collect(), (1..=100).collect::<Vec<u32>>());
    }

    #[test]
    fn disk_mr_reduce_matches_in_memory() {
        // 7 and 2 keys over 3 reducers: with 2 keys, at least one reducer
        // gets no record from any map task.
        for keys in [7u32, 2] {
            let pairs: Vec<(u32, u64)> = (0..200).map(|i| (i % keys, u64::from(i))).collect();
            let reduce = |e: &Engine| {
                e.parallelize(pairs.clone(), 5)
                    .reduce_by_key("sum", 3, fx_hash_one, |a, b| *a += b)
            };
            let mut mem = reduce(&engine()).collect();
            mem.sort_unstable();

            let dir = std::env::temp_dir()
                .join(format!("sirum-disk-shuffle-{}-{keys}", std::process::id()));
            let e = Engine::try_new(EngineConfig::disk_mr().with_spill_dir(dir.clone())).unwrap();
            let reduced = reduce(&e);
            // Each of the 5 map tasks sees every key, so it writes one file
            // per reducer some key routes to, and each such reducer writes
            // one output partition; empty buckets and partitions write
            // nothing.
            let reducers: std::collections::HashSet<u64> =
                (0..keys).map(|k| fx_hash_one(&k) % 3).collect();
            let filled = reducers.len() as u64;
            assert_eq!(e.metrics().counters().disk_writes, 5 * filled + filled);
            let mut disk = reduced.collect();
            reduced.free();
            disk.sort_unstable();
            assert_eq!(mem, disk);
            // Every bucket was freed once read, and the output once collected.
            assert_eq!(e.store().memory_stats().resident_bytes, 0);
            // The store writes into its own subdirectory of the spill dir.
            let files: usize = std::fs::read_dir(&dir)
                .unwrap()
                .map(|store| std::fs::read_dir(store.unwrap().path()).unwrap().count())
                .sum();
            assert_eq!(files, 0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn single_thread_mode_gives_same_results() {
        let pairs: Vec<(u32, u64)> = (0..300).map(|i| (i % 11, 1u64)).collect();
        let mut a = Engine::try_new(EngineConfig::single_thread())
            .unwrap()
            .parallelize(pairs.clone(), 6)
            .reduce_by_key("c", 2, fx_hash_one, |x, y| *x += y)
            .collect();
        let mut b = engine()
            .parallelize(pairs, 6)
            .reduce_by_key("c", 2, fx_hash_one, |x, y| *x += y)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn map_partitions_sees_partition_index() {
        let e = engine();
        let d = e.parallelize(vec![0u32; 12], 3);
        let idxs = d.map_partitions("tag", |idx, data| vec![idx as u32; data.len()]);
        let mut seen = idxs.collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn stage_metrics_count_records() {
        let e = engine();
        let d = e.parallelize((0..50u32).collect(), 5);
        let _ = d.map_partitions("triple", |_, xs| {
            xs.iter().flat_map(|&x| [x, x, x]).collect()
        });
        let stage = e.metrics().stages().pop().unwrap();
        assert_eq!(stage.tasks.iter().map(|t| t.records_in).sum::<u64>(), 50);
        assert_eq!(stage.tasks.iter().map(|t| t.records_out).sum::<u64>(), 150);
    }
}

#[cfg(test)]
mod repartition_tests {
    use super::*;
    use crate::config::EngineConfig;

    #[test]
    fn repartition_preserves_multiset() {
        let e = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let d = e.parallelize((0..100u32).collect(), 3);
        let r = d.repartition(7);
        assert_eq!(r.num_partitions(), 7);
        let mut out = r.collect();
        out.sort_unstable();
        assert_eq!(out, (0..100).collect::<Vec<u32>>());
        // Every record crossed the shuffle.
        let stage = e
            .metrics()
            .stages()
            .into_iter()
            .find(|s| s.label == "repartition.reduce")
            .unwrap();
        assert_eq!(stage.shuffled_records, 100);
        assert!(stage.shuffled_bytes >= 400);
    }
}
