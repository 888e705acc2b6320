//! Block manager: budgeted in-memory cache of dataset partitions with LRU
//! eviction to spill files, mirroring Spark's block store.
//!
//! The memory-usage-over-time traces this module records reproduce
//! Figures 4.3 and 4.4 of the thesis (RDD block memory vs elapsed time under
//! different executor memory budgets).
//!
//! Every file the store writes — an evicted block's spill file or a DiskMr
//! stage file — starts with a frame header: the payload's length and its
//! FNV-1a checksum. A read verifies both before it decodes, so a short,
//! long or altered file poisons the store like a failed read instead of
//! reaching a decoder that would panic on it (or, worse, decode it).

use crate::encode::{decode_records, encode_records, Encode};
use crate::error::DataflowError;
use crate::hash::FxHashMap;
use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use sirum_table::fingerprint::Fnv64;
use std::any::Any;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a cached partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockId(u64);

type AnyArc = Arc<dyn Any + Send + Sync>;
type EncodeFn = fn(&AnyArc) -> Vec<u8>;

struct Block {
    /// Decoded partition (`Arc<Vec<T>>`) when resident in memory.
    data: Option<AnyArc>,
    /// Approximate in-memory footprint, charged against the budget.
    size: usize,
    /// LRU clock value of the last access.
    last_access: u64,
    /// Spill file, present once the block has been written to disk.
    file: Option<PathBuf>,
    /// Monomorphized encoder used when this block must be spilled.
    encode: EncodeFn,
}

/// One point of the memory-usage-over-time trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSample {
    /// Seconds since the store was created.
    pub secs: f64,
    /// Bytes of block data resident in memory at that instant.
    pub resident_bytes: usize,
}

/// Most samples a store's memory trace holds. A served process shares one
/// store across every job for its whole life, so the trace must not grow
/// with the work done; 4096 points (64 KiB) is more than any one `figures`
/// run records, so those traces stay event-exact.
const TRACE_CAP: usize = 4096;

/// The memory-usage-over-time trace, bounded at [`TRACE_CAP`] samples.
/// Each slot stands for `stride` consecutive store events and holds the one
/// with the highest resident set, so however coarse the trace has become
/// its timestamps stay monotone and the true peak is still in it.
struct Trace {
    samples: Vec<MemSample>,
    /// Events one slot stands for; doubles each time the trace fills.
    stride: usize,
    /// Events folded into the last slot so far (`0` = start a new one).
    filled: usize,
}

impl Trace {
    fn new() -> Self {
        Trace {
            samples: Vec::new(),
            stride: 1,
            filled: 0,
        }
    }

    fn record(&mut self, sample: MemSample) {
        if self.filled == 0 {
            if self.samples.len() == TRACE_CAP {
                // Full: merge adjacent slots, keeping the higher of each
                // pair, and let every slot from here on cover twice the
                // events.
                for i in 0..TRACE_CAP / 2 {
                    let (a, b) = (self.samples[2 * i], self.samples[2 * i + 1]);
                    self.samples[i] = if b.resident_bytes > a.resident_bytes {
                        b
                    } else {
                        a
                    };
                }
                self.samples.truncate(TRACE_CAP / 2);
                self.stride *= 2;
            }
            self.samples.push(sample);
        } else if let Some(last) = self.samples.last_mut() {
            if sample.resident_bytes > last.resident_bytes {
                *last = sample;
            }
        }
        self.filled = (self.filled + 1) % self.stride;
    }
}

/// Memory-pressure counters of a [`BlockStore`]: the instantaneous
/// resident set plus cumulative spill volume and eviction count. Surfaced
/// through the service layer (`GET /stats`, `/metrics`) so an operator
/// can watch a capped budget working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes of block data currently resident in memory.
    pub resident_bytes: usize,
    /// Cumulative bytes written to spill/stage files since creation.
    pub spilled_bytes: u64,
    /// Cumulative count of budget-pressure evictions since creation.
    pub evictions: u64,
}

struct StoreInner {
    blocks: FxHashMap<BlockId, Block>,
    clock: u64,
    resident_bytes: usize,
    spilled_bytes: u64,
    evictions: u64,
    trace: Trace,
    /// First spill-I/O failure observed. The store degrades gracefully
    /// (failed evictions keep blocks resident, failed disk writes fall back
    /// to memory) and the driver surfaces this at its next health check.
    poison: Option<DataflowError>,
}

/// Thread-safe budgeted block store. Cheap to clone (shared interior).
/// Its spill directory lives as long as the last clone.
#[derive(Clone)]
pub struct BlockStore {
    inner: Arc<Mutex<StoreInner>>,
    budget: Option<usize>,
    dir: Arc<SpillDir>,
    metrics: MetricsRegistry,
    epoch: Instant,
    next_id: Arc<AtomicU64>,
}

/// A store's own spill directory, removed with every file in it when the
/// last handle to the store drops.
struct SpillDir(PathBuf);

impl SpillDir {
    /// Best-effort removal of the directory and its files.
    fn remove(&self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "documented best-effort teardown; the spill dir lives under a temp root the OS reclaims"
        )]
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        self.remove();
    }
}

fn encode_any<T: Encode + Send + Sync + 'static>(any: &AnyArc) -> Vec<u8> {
    match any.downcast_ref::<Vec<T>>() {
        Some(v) => encode_records(v),
        None => unreachable!("block type matches its encoder"),
    }
}

/// Bytes ahead of the payload in every file the store writes: the
/// payload's length, then its [`checksum`], as little-endian `u64`s.
const FRAME_HEADER: usize = 16;

/// FNV-1a over the length-framed payload.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(payload);
    h.finish()
}

/// Write `payload` to `file` behind its frame header; returns the bytes
/// written.
fn write_framed(file: &Path, payload: &[u8]) -> std::io::Result<u64> {
    let mut header = Vec::with_capacity(FRAME_HEADER);
    (payload.len() as u64).encode(&mut header);
    checksum(payload).encode(&mut header);
    let mut out = std::fs::File::create(file)?;
    out.write_all(&header)?;
    out.write_all(payload)?;
    Ok((FRAME_HEADER + payload.len()) as u64)
}

/// The payload of a file [`write_framed`] wrote, or why `bytes` are not
/// one: too short for the header, a length other than the header's, or a
/// checksum that does not match.
fn unframe(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < FRAME_HEADER {
        return Err(format!(
            "{} bytes, shorter than the {FRAME_HEADER}-byte frame header",
            bytes.len()
        ));
    }
    let (mut header, payload) = bytes.split_at(FRAME_HEADER);
    let (len, sum) = (u64::decode(&mut header), u64::decode(&mut header));
    if len != payload.len() as u64 {
        return Err(format!(
            "{} payload bytes where the header says {len}",
            payload.len()
        ));
    }
    if sum != checksum(payload) {
        return Err("payload does not match its checksum".into());
    }
    Ok(payload)
}

impl BlockStore {
    /// Create a store with the given budget (`None` = unbounded) spilling
    /// into a unique subdirectory of `dir`.
    pub(crate) fn new(budget: Option<usize>, dir: PathBuf, metrics: MetricsRegistry) -> Self {
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "store-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let dir = dir.join(unique);
        let poison = std::fs::create_dir_all(&dir)
            .err()
            .map(|e| DataflowError::spill("create spill directory", &dir, &e));
        BlockStore {
            inner: Arc::new(Mutex::new(StoreInner {
                blocks: FxHashMap::default(),
                clock: 0,
                resident_bytes: 0,
                spilled_bytes: 0,
                evictions: 0,
                trace: Trace::new(),
                poison,
            })),
            budget,
            dir: Arc::new(SpillDir(dir)),
            metrics,
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }

    fn alloc_id(&self) -> BlockId {
        BlockId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn file_for(&self, id: BlockId) -> PathBuf {
        self.dir.0.join(format!("block-{}.bin", id.0))
    }

    fn sample_locked(&self, inner: &mut StoreInner) {
        inner.trace.record(MemSample {
            secs: self.epoch.elapsed().as_secs_f64(),
            resident_bytes: inner.resident_bytes,
        });
    }

    /// Evict least-recently-used blocks (other than `keep`) until the
    /// resident set fits the budget. Spilled blocks are encoded and written
    /// to disk if they have no file yet. A failed eviction (spill-I/O error)
    /// poisons the store and stops evicting; blocks stay resident.
    fn enforce_budget(&self, inner: &mut StoreInner, keep: BlockId) {
        let Some(budget) = self.budget else { return };
        while inner.resident_bytes > budget {
            let victim = inner
                .blocks
                .iter()
                .filter(|(id, b)| **id != keep && b.data.is_some())
                .min_by_key(|(_, b)| b.last_access)
                .map(|(id, _)| *id);
            let Some(victim) = victim else { break };
            if !self.evict_locked(inner, victim) {
                break;
            }
        }
    }

    /// Spill one resident block. Returns `false` (leaving the block
    /// resident and the store poisoned) when the spill write fails.
    fn evict_locked(&self, inner: &mut StoreInner, id: BlockId) -> bool {
        let file = self.file_for(id);
        let Some(block) = inner.blocks.get_mut(&id) else {
            return false;
        };
        let Some(data) = block.data.clone() else {
            return false;
        };
        if block.file.is_none() {
            let written = match write_framed(&file, &(block.encode)(&data)) {
                Ok(written) => written,
                Err(e) => {
                    inner
                        .poison
                        .get_or_insert_with(|| DataflowError::spill("write spill file", &file, &e));
                    return false;
                }
            };
            self.metrics.add_disk_write(written);
            inner.spilled_bytes += written;
            block.file = Some(file);
        }
        block.data = None;
        inner.resident_bytes -= block.size;
        inner.evictions += 1;
        self.sample_locked(inner);
        true
    }

    /// Insert a partition, keeping it resident (subject to the budget).
    pub(crate) fn put<T: Encode + Send + Sync + 'static>(&self, data: Vec<T>) -> BlockId {
        let size = partition_size(&data);
        let id = self.alloc_id();
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.blocks.insert(
            id,
            Block {
                data: Some(Arc::new(data) as AnyArc),
                size,
                last_access: clock,
                file: None,
                encode: encode_any::<T>,
            },
        );
        inner.resident_bytes += size;
        self.sample_locked(&mut inner);
        self.enforce_budget(&mut inner, id);
        // If this block alone exceeds the budget, it must itself be spilled.
        if self.budget.is_some_and(|b| inner.resident_bytes > b) {
            self.evict_locked(&mut inner, id);
        }
        id
    }

    /// Insert a partition directly on disk without occupying memory
    /// (used by the Hive-like `DiskMr` mode for stage outputs and shuffle
    /// buckets).
    ///
    /// When the disk write fails the store is poisoned and the partition
    /// falls back to memory so no data is lost before the driver notices.
    pub(crate) fn put_disk<T: Encode + Send + Sync + Clone + 'static>(
        &self,
        data: &[T],
    ) -> BlockId {
        let id = self.alloc_id();
        let file = self.file_for(id);
        let size = partition_size(data);
        let written = write_framed(&file, &encode_records(data));
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match written {
            Ok(written) => {
                self.metrics.add_disk_write(written);
                inner.spilled_bytes += written;
                inner.blocks.insert(
                    id,
                    Block {
                        data: None,
                        size,
                        last_access: clock,
                        file: Some(file),
                        encode: encode_any::<T>,
                    },
                );
            }
            Err(e) => {
                inner
                    .poison
                    .get_or_insert_with(|| DataflowError::spill("write block file", &file, &e));
                inner.blocks.insert(
                    id,
                    Block {
                        data: Some(Arc::new(data.to_vec()) as AnyArc),
                        size,
                        last_access: clock,
                        file: None,
                        encode: encode_any::<T>,
                    },
                );
                inner.resident_bytes += size;
                self.sample_locked(&mut inner);
            }
        }
        id
    }

    /// Fetch a partition. Spilled blocks are read back from disk, verified
    /// against their frame header, decoded and re-admitted to memory
    /// (possibly evicting others) — the "continuous re-read" behaviour
    /// Figure 4.3 shows for undersized budgets. A file that cannot be read
    /// or fails verification poisons the store and yields an empty
    /// partition; the driver's next health check turns that into an error.
    pub(crate) fn get<T: Encode + Send + Sync + 'static>(&self, id: BlockId) -> Arc<Vec<T>> {
        let file = {
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            let Some(block) = inner.blocks.get_mut(&id) else {
                // Reading a freed block is a driver logic error; poison and
                // return an empty partition so the run aborts at the next
                // health check instead of crashing a worker thread.
                inner.poison.get_or_insert(DataflowError::Spill {
                    op: "read block",
                    path: format!("block-{id:?}"),
                    detail: "block was freed".into(),
                });
                return Arc::new(Vec::new());
            };
            block.last_access = clock;
            if let Some(data) = &block.data {
                match Arc::clone(data).downcast::<Vec<T>>() {
                    Ok(v) => return v,
                    Err(_) => unreachable!("block type matches request"),
                }
            }
            match block.file.clone() {
                Some(file) => file,
                None => unreachable!("non-resident block has a file"),
            }
        };
        // Read and decode outside the lock; file I/O can be slow.
        let bytes = match std::fs::read(&file) {
            Ok(bytes) => bytes,
            Err(e) => {
                let mut inner = self.inner.lock();
                inner
                    .poison
                    .get_or_insert_with(|| DataflowError::spill("read spill file", &file, &e));
                return Arc::new(Vec::new());
            }
        };
        self.metrics.add_disk_read(bytes.len() as u64);
        let payload = match unframe(&bytes) {
            Ok(payload) => payload,
            Err(detail) => {
                let mut inner = self.inner.lock();
                inner.poison.get_or_insert_with(|| DataflowError::Spill {
                    op: "verify spill file",
                    path: file.display().to_string(),
                    detail,
                });
                return Arc::new(Vec::new());
            }
        };
        let decoded: Arc<Vec<T>> = Arc::new(decode_records(payload));
        let mut inner = self.inner.lock();
        if let Some(block) = inner.blocks.get_mut(&id) {
            if block.data.is_none() {
                block.data = Some(Arc::clone(&decoded) as AnyArc);
                let size = block.size;
                inner.resident_bytes += size;
                self.sample_locked(&mut inner);
                self.enforce_budget(&mut inner, id);
            }
        }
        decoded
    }

    /// Drop a block and its spill file.
    pub(crate) fn free(&self, id: BlockId) {
        let mut inner = self.inner.lock();
        if let Some(block) = inner.blocks.remove(&id) {
            if block.data.is_some() {
                inner.resident_bytes -= block.size;
                self.sample_locked(&mut inner);
            }
            if let Some(file) = block.file {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "freeing a block must not fail; a stranded spill file goes with the spill directory"
                )]
                let _ = std::fs::remove_file(file);
            }
        }
    }

    /// Memory-pressure counters: the resident set plus cumulative spill
    /// volume and eviction count.
    pub fn memory_stats(&self) -> MemoryStats {
        let inner = self.inner.lock();
        MemoryStats {
            resident_bytes: inner.resident_bytes,
            spilled_bytes: inner.spilled_bytes,
            evictions: inner.evictions,
        }
    }

    /// The memory-usage-over-time trace accumulated so far: every store
    /// event while they are few, then (past a fixed cap) the highest
    /// resident set of each run of consecutive events — timestamps stay
    /// increasing and the peak is always present.
    pub fn trace(&self) -> Vec<MemSample> {
        self.inner.lock().trace.samples.clone()
    }

    /// Take the first spill-I/O failure recorded since the last check, if
    /// any, clearing it. Drivers call this between stages ([`health`] on
    /// [`crate::Engine`]) to turn deferred I/O failures into typed errors.
    ///
    /// [`health`]: crate::Engine::health
    pub(crate) fn take_poison(&self) -> Option<DataflowError> {
        self.inner.lock().poison.take()
    }

    /// Best-effort removal of all spill files now, before the last handle
    /// drops.
    pub fn cleanup(&self) {
        self.dir.remove();
    }
}

/// Approximate in-memory footprint of a partition.
fn partition_size<T: Encode>(data: &[T]) -> usize {
    // Sample up to 64 records to keep sizing O(1)-ish for huge partitions.
    if data.is_empty() {
        return 64;
    }
    let step = (data.len() / 64).max(1);
    let mut sampled = 0usize;
    let mut count = 0usize;
    let mut i = 0;
    while i < data.len() {
        sampled += data[i].size_estimate();
        count += 1;
        i += step;
    }
    64 + sampled * data.len() / count
}

#[cfg(test)]
impl BlockStore {
    /// True if a spill-I/O failure is pending.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.inner.lock().poison.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(budget: Option<usize>) -> BlockStore {
        BlockStore::new(
            budget,
            std::env::temp_dir().join("sirum-dataflow-test"),
            MetricsRegistry::new(),
        )
    }

    #[test]
    fn put_get_round_trip() {
        let s = store(None);
        let id = s.put(vec![1u32, 2, 3]);
        assert_eq!(*s.get::<u32>(id), vec![1, 2, 3]);
    }

    #[test]
    fn unbounded_budget_never_spills() {
        let s = store(None);
        for i in 0..10 {
            let id = s.put(vec![i as u64; 1000]);
            let _ = s.get::<u64>(id);
        }
        assert_eq!(s.metrics.counters().disk_writes, 0);
    }

    #[test]
    fn tight_budget_spills_and_reloads() {
        let s = store(Some(10_000));
        let ids: Vec<BlockId> = (0..8).map(|i| s.put(vec![i as u64; 1000])).collect();
        // 8 blocks × ~8KB each with a 10KB budget: most must have spilled.
        assert!(s.memory_stats().resident_bytes <= 10_000 + 9000);
        assert!(s.metrics.counters().disk_writes > 0);
        // Every block still yields the right contents.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*s.get::<u64>(*id), vec![i as u64; 1000]);
        }
        assert!(s.metrics.counters().disk_reads > 0);
    }

    #[test]
    fn disk_only_blocks_occupy_no_memory_until_read() {
        let s = store(None);
        let id = s.put_disk(&vec![7u32; 100]);
        assert_eq!(s.memory_stats().resident_bytes, 0);
        assert_eq!(*s.get::<u32>(id), vec![7u32; 100]);
        assert!(
            s.memory_stats().resident_bytes > 0,
            "read re-admits to memory"
        );
    }

    #[test]
    fn free_releases_memory() {
        let s = store(None);
        let id = s.put(vec![1u64; 100]);
        assert!(s.memory_stats().resident_bytes > 0);
        s.free(id);
        assert_eq!(s.memory_stats().resident_bytes, 0);
    }

    #[test]
    fn trace_records_growth() {
        let s = store(None);
        s.put(vec![1u64; 10]);
        s.put(vec![2u64; 10]);
        let trace = s.trace();
        assert_eq!(trace.len(), 2);
        assert!(trace[1].resident_bytes > trace[0].resident_bytes);
    }

    #[test]
    fn trace_is_bounded_and_keeps_the_peak() {
        // 100× the cap in store events (a put and a free each round). One
        // put, made after the trace has already been halved once, is the
        // true peak: every later merge must carry it along.
        let s = store(None);
        let mut peak = 0;
        for round in 0..50 * TRACE_CAP {
            let id = if round == TRACE_CAP {
                let id = s.put(vec![0u64; 1 << 16]);
                peak = s.memory_stats().resident_bytes;
                id
            } else {
                s.put(vec![0u64; 1 + round % 7])
            };
            s.free(id);
        }
        let trace = s.trace();
        assert!(trace.len() <= TRACE_CAP, "{}", trace.len());
        assert!(trace.len() >= TRACE_CAP / 2, "halved, never cleared");
        assert!(trace.windows(2).all(|w| w[0].secs <= w[1].secs));
        assert_eq!(trace.iter().map(|s| s.resident_bytes).max(), Some(peak));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let s = store(Some(20_000));
        let a = s.put(vec![0u64; 1000]); // ~8KB
        let b = s.put(vec![1u64; 1000]);
        let _ = s.get::<u64>(a); // touch a so b becomes LRU
        let _c = s.put(vec![2u64; 1000]); // forces one eviction
                                          // b should have been the victim; a remains resident (no disk read).
        let before = s.metrics.counters().disk_reads;
        let _ = s.get::<u64>(a);
        assert_eq!(s.metrics.counters().disk_reads, before);
        let _ = s.get::<u64>(b);
        assert_eq!(s.metrics.counters().disk_reads, before + 1);
    }

    #[test]
    fn unwritable_spill_dir_poisons_but_preserves_data() {
        // Use a regular file as the spill parent so create_dir_all fails.
        let blocker = std::env::temp_dir().join(format!("sirum-poison-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let s = BlockStore::new(Some(100), blocker.clone(), MetricsRegistry::new());
        assert!(s.is_poisoned(), "failed dir creation must poison the store");
        assert!(matches!(
            s.take_poison(),
            Some(DataflowError::Spill {
                op: "create spill directory",
                ..
            })
        ));
        // Evictions now fail (no spill dir), so blocks stay resident and
        // readable; the failed spill re-poisons the store.
        let id = s.put(vec![1u64; 1000]); // far over the 100-byte budget
        assert_eq!(*s.get::<u64>(id), vec![1u64; 1000]);
        assert!(matches!(
            s.take_poison(),
            Some(DataflowError::Spill {
                op: "write spill file",
                ..
            })
        ));
        assert!(!s.is_poisoned(), "take_poison clears the pending error");
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn memory_stats_count_spills_and_evictions() {
        let s = store(Some(10_000));
        assert_eq!(s.memory_stats(), MemoryStats::default());
        for i in 0..4 {
            let _ = s.put(vec![i as u64; 1000]); // ~8KB each under a 10KB budget
        }
        let stats = s.memory_stats();
        assert!(stats.evictions >= 3, "budget pressure evicts");
        assert!(stats.spilled_bytes >= 3 * 8000);
        // Re-evicting an already-spilled block counts the eviction but
        // writes no new bytes.
        let disk_only = s.memory_stats();
        let id = s.put_disk(&vec![9u64; 1000]);
        assert!(s.memory_stats().spilled_bytes > disk_only.spilled_bytes);
        assert_eq!(s.memory_stats().evictions, disk_only.evictions);
        let _ = s.get::<u64>(id);
    }

    /// A named way to damage the bytes of a file.
    type Corruption = (&'static str, fn(&mut Vec<u8>));

    #[test]
    fn corrupt_spill_files_poison_the_store_without_panicking() {
        let corruptions: [Corruption; 5] = [
            ("flip a payload byte", |b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x01;
            }),
            ("flip a length byte", |b| b[0] ^= 0x01),
            ("truncate", |b| b.truncate(b.len() - 3)),
            ("truncate into the header", |b| b.truncate(FRAME_HEADER - 1)),
            ("extend", |b| b.extend_from_slice(&[0; 5])),
        ];
        for (what, corrupt) in corruptions {
            // Over the budget at once, so the block lives only on disk.
            let s = store(Some(100));
            let id = s.put(vec![7u64; 1000]);
            let file = s.file_for(id);
            let mut bytes = std::fs::read(&file).unwrap();
            corrupt(&mut bytes);
            std::fs::write(&file, &bytes).unwrap();
            assert!(s.get::<u64>(id).is_empty(), "{what}");
            assert!(
                matches!(
                    s.take_poison(),
                    Some(DataflowError::Spill {
                        op: "verify spill file",
                        ..
                    })
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn disk_only_blocks_are_verified_too() {
        let s = store(None);
        let id = s.put_disk(&[3u32; 100]);
        let file = s.file_for(id);
        let mut bytes = std::fs::read(&file).unwrap();
        assert_eq!(
            bytes.len(),
            FRAME_HEADER + encode_records(&[3u32; 100]).len()
        );
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&file, &bytes).unwrap();
        assert!(s.get::<u32>(id).is_empty());
        assert!(s.is_poisoned());
    }

    #[test]
    fn oversized_single_block_is_spilled() {
        let s = store(Some(100));
        let id = s.put(vec![1u64; 1000]);
        assert_eq!(
            s.memory_stats().resident_bytes,
            0,
            "block larger than budget spills"
        );
        assert_eq!(*s.get::<u64>(id), vec![1u64; 1000]);
    }
}
