//! The concurrent service layer: a thread-safe, cheaply clonable
//! [`SirumService`] that shares one table catalog, one engine and one
//! result cache across any number of threads.
//!
//! `SirumService` is the one entry point for embedding and serving alike:
//! registration validates each table and fits its measure transform once
//! into the shared catalog ([`sirum_core::PreparedTable`] behind an `Arc`,
//! sharing the table's columnar [`sirum_table::Frame`]), so every
//! concurrent job scans the same column buffers through zero-copy
//! partition views.
//! Requests run synchronously on the calling thread or are submitted as
//! jobs to a bounded worker pool, and identical repeated requests are
//! answered from an LRU result cache keyed by (table content fingerprint,
//! normalized configuration) without re-running the miner. Identical
//! requests that are still *in flight* coalesce onto one execution, so a
//! burst of equal queries against a cold cache runs the miner once.
//!
//! ```
//! use sirum::service::SirumService;
//!
//! let service = SirumService::in_memory()?;
//! service.register_demo("flights")?;
//!
//! // Submit a job; the handle supports wait(), try_poll() and cancel().
//! let handle = service.mine("flights").k(3).sample_size(14).submit()?;
//! let output = handle.wait()?;
//! assert_eq!(output.result.rules.len(), 4);
//! assert!(!output.from_cache);
//!
//! // The identical request is served from the result cache.
//! let again = service.mine("flights").k(3).sample_size(14).submit()?.wait()?;
//! assert!(again.from_cache);
//! assert_eq!(service.stats().cache_hits, 1);
//! # Ok::<(), sirum::core::SirumError>(())
//! ```
//!
//! Cloning a `SirumService` is an `Arc` bump; all clones share catalog,
//! pool, cache and counters, so handing a clone to each request thread is
//! the intended usage. See `DESIGN.md` ("Concurrent service layer") for the
//! ownership diagram.

use crate::json::{self, parse_json, JsonValue};
use crate::net::metrics::{Histogram, LatencySummary};
use crossbeam::channel;
use parking_lot::{Mutex, RwLock};
use sirum_core::{
    try_evaluate_rules_prepared, try_mine_on_sample, CancellationToken, CandidateStrategy,
    CombineStrategy, Evaluation, IterationDecision, IterationEvent, IterationObserver, Miner,
    MiningResult, PreparedTable, Rule, RuleLayout, RuleSetEvaluation, SampleDataResult,
    ScalingConfig, SirumConfig, SirumError, StreamingConfig, StreamingMiner, Variant, WILDCARD,
};
use sirum_dataflow::{Engine, EngineConfig, EngineMode};
use sirum_table::{generators, Table, TableError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Request specification
// ---------------------------------------------------------------------------

/// The full description of a mining request: every knob the fluent
/// [`ServiceRequest`] builder exposes, resolved against a table by name.
#[derive(Debug, Clone)]
struct RequestSpec {
    table: String,
    variant: Option<Variant>,
    k: usize,
    sample_size: usize,
    full_cube: bool,
    epsilon: Option<f64>,
    max_scaling_iterations: Option<usize>,
    seed: Option<u64>,
    rules_per_iter: Option<usize>,
    two_sided: bool,
    target_kl: Option<f64>,
    max_rules: Option<usize>,
    column_groups: Option<usize>,
    prior: Vec<Rule>,
}

impl RequestSpec {
    fn new(table: &str) -> Self {
        RequestSpec {
            table: table.to_string(),
            variant: None,
            k: 10,
            sample_size: 64,
            full_cube: false,
            epsilon: None,
            max_scaling_iterations: None,
            seed: None,
            rules_per_iter: None,
            two_sided: false,
            target_kl: None,
            max_rules: None,
            column_groups: None,
            prior: Vec::new(),
        }
    }

    /// Materialize the [`SirumConfig`] this spec describes (also how a
    /// request is *normalized*: two builder paths producing the same final
    /// configuration yield identical configs, hence identical cache keys).
    fn build_config(&self, num_rows: usize) -> SirumConfig {
        let sample_size = if self.sample_size == 0 {
            0 // left invalid so validation names the field
        } else {
            self.sample_size.min(num_rows)
        };
        let mut config = match self.variant {
            Some(variant) => variant.config(self.k, sample_size),
            None => SirumConfig {
                k: self.k,
                strategy: CandidateStrategy::SampleLca { sample_size },
                ..SirumConfig::default()
            },
        };
        if self.full_cube {
            config.strategy = CandidateStrategy::FullCube;
        }
        if let Some(epsilon) = self.epsilon {
            config.scaling.epsilon = epsilon;
        }
        if let Some(n) = self.max_scaling_iterations {
            config.scaling.max_iterations = n;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(l) = self.rules_per_iter {
            config.rules_per_iter = l;
        }
        // Only the staged pipeline reads column groups; `resolve` still
        // checks the value a sweep request carries.
        if let (Some(groups), Evaluation::Staged(pipeline)) =
            (self.column_groups, &mut config.evaluation)
        {
            pipeline.column_groups = groups;
        }
        config.two_sided_gain |= self.two_sided;
        config.target_kl = self.target_kl.or(config.target_kl);
        config.max_rules = self.max_rules.or(config.max_rules);
        config
    }
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// A registered table and its one-time mining preparation (the fitted
/// measure transform over the table's own frame). Cloning shares
/// everything — the table, its preparation and every concurrent job's
/// partitions are views of one set of column buffers.
#[derive(Clone)]
struct CatalogEntry {
    table: Arc<Table>,
    prepared: Arc<PreparedTable>,
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// Cache key: table content fingerprint plus the canonical rendering of the
/// fully normalized configuration and prior rules. Two requests that
/// *execute* identically — regardless of which builder path produced them —
/// map to the same key; a table re-registered with identical content keeps
/// its key (the fingerprint is content-addressed, not name-addressed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RequestKey {
    fingerprint: u64,
    spec: String,
}

/// Render the executed configuration canonically. Floats are written by bit
/// pattern so `0.01` and any other value that *displays* the same but
/// differs in bits cannot alias.
fn request_key(fingerprint: u64, config: &SirumConfig, prior: &[Rule]) -> RequestKey {
    let strategy = match config.strategy {
        CandidateStrategy::SampleLca { sample_size } => format!("lca{sample_size}"),
        CandidateStrategy::FullCube => "cube".to_string(),
    };
    let mut s = format!(
        "k{};{};eps{:x};it{};rct{};{:?};l{};reset{};tkl{};mr{};ts{};seed{}",
        config.k,
        strategy,
        config.scaling.epsilon.to_bits(),
        config.scaling.max_iterations,
        u8::from(config.rct),
        config.evaluation,
        config.rules_per_iter,
        u8::from(config.reset_lambdas_on_insert),
        config
            .target_kl
            .map_or("-".to_string(), |t| format!("{:x}", t.to_bits())),
        config.max_rules.map_or("-".to_string(), |m| m.to_string()),
        u8::from(config.two_sided_gain),
        config.seed,
    );
    for rule in prior {
        s.push_str(";p");
        for i in 0..rule.arity() {
            s.push(',');
            s.push_str(&rule.get(i).to_string());
        }
    }
    RequestKey {
        fingerprint,
        spec: s,
    }
}

/// A bounded LRU map from [`RequestKey`] to completed results. Hand-rolled
/// (offline build): recency is a monotonically increasing stamp; eviction
/// removes the smallest stamp. Capacity 0 disables caching.
struct ResultCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<RequestKey, (u64, Arc<MiningResult>)>,
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, key: &RequestKey) -> Option<Arc<MiningResult>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(stamp, result)| {
            *stamp = clock;
            Arc::clone(result)
        })
    }

    fn contains(&self, key: &RequestKey) -> bool {
        self.entries.contains_key(key)
    }

    fn insert(&mut self, key: RequestKey, result: Arc<MiningResult>) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, result));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    sender: channel::Sender<Job>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// A bounded worker pool over the vendored `crossbeam::channel` stand-in.
/// Threads are spawned lazily on the first submission; `submit` blocks once
/// `queue_capacity` jobs are in flight (backpressure). Dropping the pool
/// closes the queue, lets the workers drain it, and joins them.
struct WorkerPool {
    workers: usize,
    queue_capacity: usize,
    state: Mutex<Option<PoolState>>,
}

impl WorkerPool {
    fn new(workers: usize, queue_capacity: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
            queue_capacity: queue_capacity.max(1),
            state: Mutex::new(None),
        }
    }

    /// Queue a job, blocking while the queue is at capacity (backpressure).
    fn submit(&self, job: Job) -> Result<(), SirumError> {
        self.submit_impl(job, false)
    }

    /// Queue a job without blocking: a full queue returns
    /// [`SirumError::Overloaded`] immediately (admission control — the wire
    /// front end maps this to `429 Too Many Requests` and never stalls its
    /// accept loop on a saturated pool).
    fn try_submit(&self, job: Job) -> Result<(), SirumError> {
        self.submit_impl(job, true)
    }

    fn submit_impl(&self, job: Job, nonblocking: bool) -> Result<(), SirumError> {
        // Clone the sender out of the state lock before sending so a
        // blocking `submit` parked on a full queue cannot stall a
        // concurrent `try_submit` behind the mutex.
        let sender = {
            let mut state = self.state.lock();
            let state = state.get_or_insert_with(|| {
                let (sender, receiver) = channel::bounded::<Job>(self.queue_capacity);
                let handles = (0..self.workers)
                    .map(|i| {
                        let receiver = receiver.clone();
                        std::thread::Builder::new()
                            .name(format!("sirum-worker-{i}"))
                            .spawn(move || {
                                while let Ok(job) = receiver.recv() {
                                    job();
                                }
                            })
                    })
                    .filter_map(Result::ok)
                    .collect();
                PoolState { sender, handles }
            });
            if state.handles.is_empty() {
                return Err(SirumError::service("worker pool failed to spawn threads"));
            }
            state.sender.clone()
        };
        if nonblocking {
            sender.try_send(job).map_err(|e| match e {
                channel::TrySendError::Full(_) => SirumError::Overloaded {
                    queue_capacity: self.queue_capacity,
                },
                channel::TrySendError::Disconnected(_) => {
                    SirumError::service("worker pool has shut down")
                }
            })
        } else {
            sender
                .send(job)
                .map_err(|_| SirumError::service("worker pool has shut down"))
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Take the state out in its own statement: an `if let` scrutinee
        // would keep the MutexGuard temporary alive across the joins
        // below (edition-2021 temporary scoping), so a worker that
        // touched the pool while we wait would deadlock shutdown.
        let state = self.state.lock().take();
        if let Some(state) = state {
            drop(state.sender); // disconnect; workers drain the queue and exit
            for handle in state.handles {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "Err here means a worker panicked; its job already reported the failure and Drop must not propagate"
                )]
                let _ = handle.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// State shared between service handles *and* in-flight jobs. Jobs capture
/// an `Arc<ServiceCore>` only — never the pool — so a job queued at service
/// drop time cannot deadlock the pool join.
struct ServiceCore {
    engine: Engine,
    cache: Mutex<ResultCache>,
    /// In-flight cacheable executions, for request coalescing: followers of
    /// an identical pending request park their [`JobShared`] here and are
    /// completed by the leader instead of re-executing (no thundering herd
    /// on a cold cache).
    pending: Mutex<HashMap<RequestKey, Vec<Arc<JobShared>>>>,
    /// Recently submitted jobs by id, for out-of-band status queries and
    /// cancellation (the HTTP front end's `GET/DELETE /jobs/{id}`).
    /// Bounded: once full, finished records are evicted oldest-first.
    jobs: Mutex<JobRegistry>,
    /// Job ids are 1-based and monotonically increasing.
    next_job_id: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    jobs_executed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_coalesced: AtomicU64,
    jobs_rejected: AtomicU64,
    /// Jobs accepted into the pool queue but not yet started.
    queue_depth: AtomicU64,
    /// Wall-clock latency of actual mining executions (cache hits and
    /// coalesced deliveries are not samples — nothing executed).
    job_latency: Histogram,
}

/// One registry entry per submitted job: enough shared state to report
/// status, peek the outcome repeatedly and request cancellation, without
/// keeping the handle alive.
struct JobRecord {
    table: String,
    shared: Arc<JobShared>,
    token: CancellationToken,
}

impl JobRecord {
    fn is_pending(&self) -> bool {
        matches!(*self.shared.lock(), JobSlot::Pending)
    }
}

/// Bounded id→record map. Ids are monotonic, so `BTreeMap` iteration order
/// is submission order and eviction scans oldest-first.
struct JobRegistry {
    capacity: usize,
    entries: BTreeMap<u64, JobRecord>,
}

impl JobRegistry {
    fn new(capacity: usize) -> Self {
        JobRegistry {
            capacity,
            entries: BTreeMap::new(),
        }
    }

    fn insert(&mut self, id: u64, record: JobRecord) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.capacity {
            // Prefer evicting a finished record; a registry saturated with
            // in-flight jobs drops its oldest record outright (the job
            // itself still runs — it merely stops being queryable by id).
            let victim = self
                .entries
                .iter()
                .find(|(_, r)| !r.is_pending())
                .map(|(id, _)| *id)
                .or_else(|| self.entries.keys().next().copied());
            match victim {
                Some(id) => {
                    self.entries.remove(&id);
                }
                None => break,
            }
        }
        self.entries.insert(id, record);
    }
}

impl ServiceCore {
    /// Counting cache lookup: a hit bumps `cache_hits`. Misses are NOT
    /// counted here — a missing entry may still be coalesced onto an
    /// in-flight execution; callers count `cache_misses` only when the
    /// request actually proceeds to execute.
    fn cache_lookup(&self, key: &RequestKey) -> Option<Arc<MiningResult>> {
        let hit = self.cache.lock().get(key);
        if hit.is_some() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Execute one mining job on a metrics-isolated fork of the shared
    /// engine, recording stats and populating the cache on success.
    fn execute(
        &self,
        prepared: &PreparedTable,
        config: SirumConfig,
        prior: &[Rule],
        observer: Option<Box<IterationObserver>>,
        token: CancellationToken,
        key: Option<RequestKey>,
    ) -> Result<JobOutput, SirumError> {
        if key.is_some() {
            // A cacheable request that reached execution: a true miss
            // (cache hits and coalesced followers never get here).
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut miner = Miner::new(self.engine.fork(), config).with_cancellation(token);
        if let Some(observer) = observer {
            miner = miner.with_observer(move |event| observer(event));
        }
        let started = Instant::now();
        let result = miner.try_mine_prepared(prepared, prior)?;
        self.job_latency.record(started.elapsed());
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
        if result.cancelled {
            self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        let result = Arc::new(result);
        if let Some(key) = key {
            // Cancelled runs are partial: correct to return, wrong to cache.
            if !result.cancelled {
                self.cache.lock().insert(key, Arc::clone(&result));
            }
        }
        Ok(JobOutput {
            result,
            from_cache: false,
        })
    }

    /// Record a submitted job in the bounded registry so it stays
    /// queryable/cancellable by id after its handle is gone.
    fn register_job(
        &self,
        id: u64,
        table: &str,
        shared: &Arc<JobShared>,
        token: &CancellationToken,
    ) {
        self.jobs.lock().insert(
            id,
            JobRecord {
                table: table.to_string(),
                shared: Arc::clone(shared),
                token: token.clone(),
            },
        );
    }
}

struct ServiceInner {
    core: Arc<ServiceCore>,
    catalog: RwLock<BTreeMap<String, CatalogEntry>>,
    pool: WorkerPool,
}

/// A thread-safe mining service: one shared engine, one shared catalog of
/// pre-encoded tables, a bounded worker pool and an LRU result cache.
///
/// `SirumService` is `Send + Sync` and cheap to clone (an `Arc` bump);
/// clones share all state. See the [module docs](self) for an end-to-end
/// example and [`SirumService::builder`] for the knobs.
#[derive(Clone)]
pub struct SirumService {
    inner: Arc<ServiceInner>,
}

// Shared across request threads by design; keep it a compile-time fact.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<SirumService>();
};

/// Builder for a [`SirumService`]: engine configuration plus the serving
/// knobs (pool size, queue bound, cache capacity).
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    config: EngineConfig,
    pool_workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    job_registry_capacity: usize,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            config: EngineConfig::in_memory(),
            pool_workers: 2,
            queue_capacity: 64,
            cache_capacity: 64,
            job_registry_capacity: 256,
        }
    }
}

impl ServiceBuilder {
    /// Replace the entire engine configuration.
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Select the platform-emulation mode. Only `mode` changes; every other
    /// setting — `workers`, `partitions`, a full [`Self::engine_config`] —
    /// is preserved, so setter order does not matter. `SingleThread`'s
    /// one-worker constraint is applied by the engine at execution time.
    pub fn mode(mut self, mode: EngineMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Default number of partitions for datasets created by this service.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.config.partitions = partitions;
        self
    }

    /// Number of OS worker threads *per mining stage* (the engine's
    /// intra-job parallelism; distinct from [`Self::pool_workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Memory budget in bytes for cached blocks.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = Some(bytes);
        self
    }

    /// Number of concurrent mining jobs the pool runs (inter-job
    /// parallelism; default 2). Threads are spawned lazily on the first
    /// [`ServiceRequest::submit`].
    pub fn pool_workers(mut self, workers: usize) -> Self {
        self.pool_workers = workers.max(1);
        self
    }

    /// Bound on queued-but-not-started jobs; once full, `submit` blocks
    /// (backpressure) rather than growing without limit (default 64).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Result-cache capacity in entries; 0 disables caching (default 64).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Bound on recently submitted jobs kept queryable by id via
    /// [`SirumService::job_status`] (default 256; 0 disables the registry).
    /// Once full, finished records are evicted oldest-first.
    pub fn job_registry_capacity(mut self, capacity: usize) -> Self {
        self.job_registry_capacity = capacity;
        self
    }

    /// Validate the engine configuration, stand up the engine (including
    /// its spill directory) and return the service. The setters pass values
    /// through verbatim — unlike the clamping `EngineConfig::with_*`
    /// helpers — so zero partitions or workers surface here as
    /// [`SirumError::Dataflow`] rather than being silently corrected.
    pub fn build(self) -> Result<SirumService, SirumError> {
        let engine = Engine::try_new(self.config)?;
        Ok(SirumService {
            inner: Arc::new(ServiceInner {
                core: Arc::new(ServiceCore {
                    engine,
                    cache: Mutex::new(ResultCache::new(self.cache_capacity)),
                    pending: Mutex::new(HashMap::new()),
                    jobs: Mutex::new(JobRegistry::new(self.job_registry_capacity)),
                    next_job_id: AtomicU64::new(0),
                    cache_hits: AtomicU64::new(0),
                    cache_misses: AtomicU64::new(0),
                    jobs_executed: AtomicU64::new(0),
                    jobs_cancelled: AtomicU64::new(0),
                    jobs_coalesced: AtomicU64::new(0),
                    jobs_rejected: AtomicU64::new(0),
                    queue_depth: AtomicU64::new(0),
                    job_latency: Histogram::new(),
                }),
                catalog: RwLock::new(BTreeMap::new()),
                pool: WorkerPool::new(self.pool_workers, self.queue_capacity),
            }),
        })
    }
}

impl SirumService {
    /// Start configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// A service on a default Spark-like in-memory engine with default
    /// serving knobs.
    pub fn in_memory() -> Result<Self, SirumError> {
        Self::builder().build()
    }

    /// The shared engine (metrics, block store, configuration). Jobs run on
    /// metrics-isolated forks of it; this handle's registry records only
    /// work the caller drives on it directly.
    pub fn engine(&self) -> &Engine {
        &self.inner.core.engine
    }

    // -- catalog ------------------------------------------------------------

    /// Register a table under `name`, replacing any previous table of that
    /// name; returns the shared handle. Registration validates the data
    /// (non-empty, finite measures) and fits the measure transform
    /// **once**, so every subsequent request on the table skips it; the
    /// table's columns are shared, not copied.
    pub fn register(
        &self,
        name: impl Into<String>,
        table: Table,
    ) -> Result<Arc<Table>, SirumError> {
        let table = Arc::new(table);
        let entry = CatalogEntry {
            prepared: Arc::new(PreparedTable::try_new(&table)?),
            table: Arc::clone(&table),
        };
        self.inner.catalog.write().insert(name.into(), entry);
        Ok(table)
    }

    /// Parse a CSV stream (header + rows, last column numeric) and register
    /// it under `name`.
    pub fn register_csv(
        &self,
        name: impl Into<String>,
        input: impl std::io::BufRead,
    ) -> Result<Arc<Table>, SirumError> {
        let table = sirum_table::csv::read_csv(input)?;
        self.register(name, table)
    }

    /// Register one of the built-in demo datasets under its own name with
    /// default sizing: `flights`, `income`, `gdelt`, `susy`, `tlc` or
    /// `dirty`.
    pub fn register_demo(&self, name: &str) -> Result<Arc<Table>, SirumError> {
        self.register_demo_with(name, None, 42)
    }

    /// [`Self::register_demo`] with explicit row count (`None` = the demo's
    /// default) and generator seed.
    pub fn register_demo_with(
        &self,
        name: &str,
        rows: Option<usize>,
        seed: u64,
    ) -> Result<Arc<Table>, SirumError> {
        let table = match name {
            "flights" => generators::flights(),
            "income" => generators::income_like(rows.unwrap_or(20_000), seed),
            "gdelt" => generators::gdelt_like(rows.unwrap_or(20_000), seed),
            "susy" => generators::susy_like(rows.unwrap_or(2_000), seed),
            "tlc" => generators::tlc_like(rows.unwrap_or(50_000), seed),
            "dirty" => generators::gdelt_dirty(rows.unwrap_or(20_000), seed),
            other => {
                return Err(SirumError::UnknownDemo {
                    name: other.to_string(),
                })
            }
        };
        self.register(name, table)
    }

    /// Look up a registered table (a cheap `Arc` clone). Unknown names list
    /// the registered ones in the error.
    pub fn table(&self, name: &str) -> Result<Arc<Table>, SirumError> {
        self.entry(name).map(|e| e.table)
    }

    /// Names of all registered tables, in sorted order.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().keys().cloned().collect()
    }

    /// Remove a table from the catalog, returning its shared handle if
    /// present. In-flight jobs against the table finish normally (they hold
    /// their own `Arc`s); cached results keyed by its content fingerprint
    /// age out via LRU.
    pub fn unregister(&self, name: &str) -> Option<Arc<Table>> {
        self.inner.catalog.write().remove(name).map(|e| e.table)
    }

    fn entry(&self, name: &str) -> Result<CatalogEntry, SirumError> {
        let catalog = self.inner.catalog.read();
        catalog
            .get(name)
            .cloned()
            .ok_or_else(|| SirumError::UnknownTable {
                name: name.to_string(),
                registered: catalog.keys().cloned().collect(),
            })
    }

    // -- requests -----------------------------------------------------------

    /// Start building a mining request against the named table; finish with
    /// [`ServiceRequest::submit`] (pooled, returns a [`JobHandle`]),
    /// [`ServiceRequest::run`] (synchronous on the calling thread) or
    /// [`ServiceRequest::explain`] (plan only, no execution).
    pub fn mine(&self, table: &str) -> ServiceRequest<'_> {
        ServiceRequest {
            service: self,
            spec: RequestSpec::new(table),
            observer: None,
            deadline: None,
        }
    }

    /// Score an externally supplied rule set against a registered table
    /// (offline evaluation, §4.5/§5.7.3), scanning the catalog entry's
    /// shared columnar preparation — no per-call validation or transform
    /// fit.
    pub fn evaluate(
        &self,
        table: &str,
        rules: &[Rule],
        scaling: &ScalingConfig,
    ) -> Result<RuleSetEvaluation, SirumError> {
        try_evaluate_rules_prepared(&self.entry(table)?.prepared, rules, scaling)
    }

    /// Open an incremental-maintenance stream seeded with the named table's
    /// current contents (§7-style streaming SIRUM): the returned
    /// [`IngestHandle`] accepts new batches and maintains the rule model
    /// with warm-started refits. The handle is single-owner (`&mut`
    /// ingestion) and independent of later catalog changes.
    ///
    /// Streaming maintenance requires nonnegative measures (history cannot
    /// be re-shifted retroactively); a table with negative measures is
    /// rejected with [`SirumError::InvalidMeasure`]. A table wider than
    /// the cube-lattice expansion limit is rejected with
    /// [`SirumError::InvalidConfig`] up front, rather than by the first
    /// [`IngestHandle::mine_more`].
    pub fn stream(&self, table: &str) -> Result<IngestHandle, SirumError> {
        let entry = self.entry(table)?;
        let d = entry.table.num_dims();
        sirum_core::check_expandable(d)?;
        let mut miner = StreamingMiner::new(d, StreamingConfig::default());
        miner.ingest_table(&entry.table)?;
        Ok(IngestHandle {
            miner,
            table: entry.table,
            engine: self.inner.core.engine.clone(),
        })
    }

    // -- jobs ---------------------------------------------------------------

    /// Ids of every job the bounded registry still remembers, in
    /// submission order (oldest first).
    pub fn job_ids(&self) -> Vec<u64> {
        self.inner
            .core
            .jobs
            .lock()
            .entries
            .keys()
            .copied()
            .collect()
    }

    /// Point-in-time status of a registered job; `None` when the id is
    /// unknown (never submitted, or evicted from the bounded registry).
    pub fn job_status(&self, id: u64) -> Option<JobStatus> {
        let jobs = self.inner.core.jobs.lock();
        let record = jobs.entries.get(&id)?;
        let state = match &*record.shared.lock() {
            JobSlot::Pending => JobState::Queued,
            JobSlot::Done(Ok(out)) => JobState::Done {
                from_cache: out.from_cache,
                cancelled: out.result.cancelled,
            },
            JobSlot::Done(Err(e)) => JobState::Failed {
                reason: e.to_string(),
            },
            JobSlot::Taken => JobState::Consumed,
        };
        Some(JobStatus {
            id,
            table: record.table.clone(),
            state,
            cancel_requested: record.token.is_cancelled(),
        })
    }

    /// Non-consuming read of a registered job's outcome: `None` while the
    /// job is still queued/running (or the id is unknown — disambiguate
    /// with [`Self::job_status`]); repeatable once finished, unlike
    /// [`JobHandle::wait`]. A job whose outcome was consumed through its
    /// handle reports [`SirumError::Service`].
    pub fn job_output(&self, id: u64) -> Option<Result<JobOutput, SirumError>> {
        self.wait_job(id, Duration::ZERO)
    }

    /// Like [`Self::job_output`], but block up to `timeout` for the job to
    /// finish. `None` on timeout or unknown id.
    pub fn wait_job(&self, id: u64, timeout: Duration) -> Option<Result<JobOutput, SirumError>> {
        let shared = {
            let jobs = self.inner.core.jobs.lock();
            Arc::clone(&jobs.entries.get(&id)?.shared)
        };
        shared.when_done(Some(timeout), |slot| slot.peek())
    }

    /// Request cooperative cancellation of a registered job by id; returns
    /// whether the id was known. Same semantics as [`JobHandle::cancel`].
    pub fn cancel_job(&self, id: u64) -> bool {
        let jobs = self.inner.core.jobs.lock();
        match jobs.entries.get(&id) {
            Some(record) => {
                record.token.cancel();
                true
            }
            None => false,
        }
    }

    /// Point-in-time serving statistics.
    pub fn stats(&self) -> ServiceStats {
        let core = &self.inner.core;
        let active_jobs: Vec<u64> = {
            let jobs = core.jobs.lock();
            jobs.entries
                .iter()
                .filter(|(_, record)| record.is_pending())
                .map(|(id, _)| *id)
                .collect()
        };
        ServiceStats {
            cache_hits: core.cache_hits.load(Ordering::Relaxed),
            cache_misses: core.cache_misses.load(Ordering::Relaxed),
            jobs_executed: core.jobs_executed.load(Ordering::Relaxed),
            jobs_cancelled: core.jobs_cancelled.load(Ordering::Relaxed),
            jobs_coalesced: core.jobs_coalesced.load(Ordering::Relaxed),
            jobs_rejected: core.jobs_rejected.load(Ordering::Relaxed),
            queue_depth: core.queue_depth.load(Ordering::Relaxed),
            cache_entries: core.cache.lock().len(),
            active_jobs,
            job_latency: core.job_latency.snapshot(),
            memory: core.engine.store().memory_stats(),
        }
    }
}

impl std::fmt::Debug for SirumService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SirumService")
            .field("mode", &self.inner.core.engine.mode())
            .field("tables", &self.table_names())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Counters describing how the service has been serving requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered from the result cache without re-execution.
    pub cache_hits: u64,
    /// Cacheable requests that had to execute.
    pub cache_misses: u64,
    /// Mining runs actually executed (cache misses + uncacheable requests).
    pub jobs_executed: u64,
    /// Executed runs that ended via cooperative cancellation.
    pub jobs_cancelled: u64,
    /// Submitted jobs served by coalescing onto an identical in-flight
    /// execution instead of running themselves.
    pub jobs_coalesced: u64,
    /// Jobs shed by non-blocking admission ([`ServiceRequest::try_submit`]
    /// against a full queue → [`SirumError::Overloaded`]).
    pub jobs_rejected: u64,
    /// Jobs accepted into the pool queue but not yet started.
    pub queue_depth: u64,
    /// Results currently held by the cache.
    pub cache_entries: usize,
    /// Ids of registered jobs still queued or running, oldest first.
    pub active_jobs: Vec<u64>,
    /// Latency distribution of actual mining executions (cache hits and
    /// coalesced deliveries are not samples).
    pub job_latency: LatencySummary,
    /// Block-store memory pressure: resident bytes, cumulative spill
    /// volume and eviction count — how hard the engine's budget is
    /// working.
    pub memory: sirum_dataflow::MemoryStats,
}

/// Point-in-time status of a submitted job, from
/// [`SirumService::job_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job's id ([`JobHandle::id`]).
    pub id: u64,
    /// The table the request targeted.
    pub table: String,
    /// Where the job is in its lifecycle.
    pub state: JobState,
    /// Whether cooperative cancellation has been requested (by handle,
    /// [`SirumService::cancel_job`], or an expired deadline).
    pub cancel_requested: bool,
}

/// A job's lifecycle state within [`JobStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Still queued or running.
    Queued,
    /// Finished successfully; the outcome is readable via
    /// [`SirumService::job_output`].
    Done {
        /// The result was served from the cache (or a coalesced leader).
        from_cache: bool,
        /// The run ended via cooperative cancellation (partial result).
        cancelled: bool,
    },
    /// Finished with an error.
    Failed {
        /// The error, rendered.
        reason: String,
    },
    /// The outcome was taken through the job's own [`JobHandle`].
    Consumed,
}

// ---------------------------------------------------------------------------
// Requests and job handles
// ---------------------------------------------------------------------------

/// Why [`ServiceRequest::set`] did not apply a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// No mining knob bears the name: a typo worth an error instead of a
    /// silently ignored knob.
    Unknown,
    /// A knob whose value cannot be used; the message says why.
    Invalid(String),
}

/// Parse `"prior": [[1, null, 3], …]` into rules (`null` = wildcard).
fn parse_prior(value: &JsonValue) -> Result<Vec<Rule>, String> {
    let rows = value
        .as_array()
        .ok_or("field \"prior\" must be an array of rules")?;
    let mut rules = Vec::with_capacity(rows.len());
    for row in rows {
        let cells = row
            .as_array()
            .ok_or("each prior rule must be an array of values/nulls")?;
        let mut values = Vec::with_capacity(cells.len());
        for cell in cells {
            if cell.is_null() {
                values.push(WILDCARD);
            } else {
                let code = cell
                    .as_u64()
                    .filter(|c| *c < u64::from(u32::MAX))
                    .ok_or("prior rule values must be null or dictionary codes")?;
                values.push(code as u32);
            }
        }
        rules.push(Rule::from_values(values));
    }
    Ok(rules)
}

/// A fluent, validated mining request against a [`SirumService`]. Build
/// with [`SirumService::mine`], tweak, then [`Self::submit`] it to the
/// worker pool, [`Self::run`] it synchronously, or [`Self::explain`] it.
pub struct ServiceRequest<'s> {
    service: &'s SirumService,
    spec: RequestSpec,
    observer: Option<Box<IterationObserver>>,
    /// Per-request execution deadline. Deliberately *not* part of
    /// [`RequestSpec`]: the deadline must never split the cache key (two
    /// requests differing only in patience execute identically).
    deadline: Option<Duration>,
}

impl ServiceRequest<'_> {
    /// Number of rules to mine beyond `(*, …, *)` (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.spec.k = k;
        self
    }

    /// Candidate-pruning sample size `|s|` (default 64; clamped to
    /// the table's row count at run time). Zero is rejected at
    /// validation.
    pub fn sample_size(mut self, sample_size: usize) -> Self {
        self.spec.sample_size = sample_size;
        self
    }

    /// Use a named Table 4.2 variant (Naive/Baseline/RCT/…) as the
    /// base configuration instead of Optimized-by-default.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.spec.variant = Some(variant);
        self
    }

    /// Exhaustive cube enumeration instead of sample-based pruning
    /// (the data-cube-exploration setting, §5.6.2).
    pub fn full_cube(mut self) -> Self {
        self.spec.full_cube = true;
        self
    }

    /// Score candidates with the symmetrized two-sided gain, also
    /// surfacing unusually *low*-measure regions (data-cleansing
    /// queries).
    pub fn two_sided(mut self) -> Self {
        self.spec.two_sided = true;
        self
    }

    /// Iterative-scaling convergence tolerance ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.spec.epsilon = Some(epsilon);
        self
    }

    /// Iterative-scaling λ-update cap.
    pub fn max_scaling_iterations(mut self, n: usize) -> Self {
        self.spec.max_scaling_iterations = Some(n);
        self
    }

    /// Sampling / column-group shuffling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = Some(seed);
        self
    }

    /// Insert up to `l` mutually disjoint rules per iteration (§4.4).
    pub fn rules_per_iter(mut self, l: usize) -> Self {
        self.spec.rules_per_iter = Some(l);
        self
    }

    /// Keep mining past `k` until the KL divergence reaches `target`
    /// (the `l-rule*` mode of §5.5), bounded by `max_rules`.
    pub fn target_kl(mut self, target: f64) -> Self {
        self.spec.target_kl = Some(target);
        self
    }

    /// Hard cap on mined rules when a KL target is set.
    pub fn max_rules(mut self, max: usize) -> Self {
        self.spec.max_rules = Some(max);
        self
    }

    /// Column groups for multi-stage ancestor generation (§4.3). Only a
    /// staged variant reads them; a sweep request still rejects `0`.
    pub fn column_groups(mut self, groups: usize) -> Self {
        self.spec.column_groups = Some(groups);
        self
    }

    /// Seed the model with prior-knowledge rules (cube exploration,
    /// Table 1.3): the mined rules come *in addition to* these.
    pub fn prior(mut self, rules: Vec<Rule>) -> Self {
        self.spec.prior = rules;
        self
    }

    /// Apply one mining knob by its field name. This is the one table of
    /// knobs: `POST /mine` feeds it body members, `GET /explain` query
    /// pairs and the `sirum` CLI its flags, so all three accept the same
    /// fields.
    ///
    /// # Errors
    /// [`FieldError::Unknown`] when no knob bears `name`,
    /// [`FieldError::Invalid`] when `value` has the wrong shape. Values of
    /// the right shape are checked later, with the whole configuration.
    pub fn set(self, name: &str, value: &JsonValue) -> Result<Self, FieldError> {
        let invalid = |shape: &str| FieldError::Invalid(format!("field {name:?} must be {shape}"));
        let whole = "a nonnegative integer";
        let count = || value.as_usize().ok_or_else(|| invalid(whole));
        let integer = || value.as_u64().ok_or_else(|| invalid(whole));
        let number = || value.as_f64().ok_or_else(|| invalid("a number"));
        let flag = || value.as_bool().ok_or_else(|| invalid("a boolean"));
        Ok(match name {
            "k" => self.k(count()?),
            "sample_size" => self.sample_size(count()?),
            "variant" => {
                let text = value.as_str().ok_or_else(|| invalid("a string"))?;
                let variant = text
                    .parse::<Variant>()
                    .map_err(|e| FieldError::Invalid(format!("invalid variant: {e}")))?;
                self.variant(variant)
            }
            // One-way switches: `false` asks for the default `self` already has.
            "full_cube" | "two_sided" if !flag()? => self,
            "full_cube" => self.full_cube(),
            "two_sided" => self.two_sided(),
            "epsilon" => self.epsilon(number()?),
            "max_scaling_iterations" => self.max_scaling_iterations(count()?),
            "seed" => self.seed(integer()?),
            "rules_per_iter" => self.rules_per_iter(count()?),
            "target_kl" => self.target_kl(number()?),
            "max_rules" => self.max_rules(count()?),
            "column_groups" => self.column_groups(count()?),
            "prior" => self.prior(parse_prior(value).map_err(FieldError::Invalid)?),
            _ => return Err(FieldError::Unknown),
        })
    }

    /// [`Self::set`] from text, as a query string or a command-line flag
    /// carries a value: a finite number in Rust's grammar (`007`, `.5`),
    /// else JSON where it parses (booleans, a `prior` array), else the
    /// bare word as a string. So `nan`, `inf` and `1e400` are no numbers.
    ///
    /// # Errors
    /// As [`Self::set`].
    pub fn set_text(self, name: &str, text: &str) -> Result<Self, FieldError> {
        let value = match text.parse::<f64>() {
            Ok(n) if n.is_finite() => JsonValue::Number(n),
            _ => parse_json(text).unwrap_or_else(|_| JsonValue::String(text.to_string())),
        };
        self.set(name, &value)
    }

    /// Observe progress: `observer` runs after every mining
    /// iteration and can cancel the run gracefully by returning
    /// [`IterationDecision::Stop`] (the partial result is returned
    /// with [`MiningResult::cancelled`] set). A request carrying an
    /// observer is never served from — nor inserted into — the
    /// result cache, since the observer is a side effect.
    pub fn on_iteration(
        mut self,
        observer: impl Fn(&IterationEvent) -> IterationDecision + Send + Sync + 'static,
    ) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Resolve the table and validate the normalized configuration, the
    /// shared front half of submit/run/explain.
    fn resolve(&self) -> Result<(CatalogEntry, SirumConfig), SirumError> {
        let entry = self.service.entry(&self.spec.table)?;
        let config = self.spec.build_config(entry.table.num_rows());
        config.validate()?;
        // A sweep reads no column groups, yet the field takes only the
        // values a staged run could.
        if self.spec.column_groups == Some(0) {
            return Err(SirumError::invalid_config(
                "column_groups",
                "must be ≥ 1 (1 = single-stage ancestor generation)",
            ));
        }
        Ok((entry, config))
    }

    fn cache_key(&self, entry: &CatalogEntry, config: &SirumConfig) -> Option<RequestKey> {
        // Observers are side effects; requests carrying one bypass the
        // cache entirely (a hit would silently skip every callback).
        if self.observer.is_some() {
            None
        } else {
            Some(request_key(
                entry.table.fingerprint(),
                config,
                &self.spec.prior,
            ))
        }
    }

    /// Submit the request to the worker pool and return a [`JobHandle`].
    ///
    /// Table resolution and configuration validation happen *here*, on the
    /// calling thread, so every "bad request" error surfaces immediately;
    /// the handle only ever carries execution-time outcomes. Blocks while
    /// the job queue is at capacity (backpressure).
    ///
    /// Identical requests are served once: a previously-completed one is
    /// answered from the result cache (the returned handle is already
    /// finished, [`JobOutput::from_cache`] set), and one that is still
    /// *running* is **coalesced** — the new handle rides the in-flight
    /// execution and receives the same shared result when it completes (no
    /// thundering herd on a cold cache). A coalesced handle's `cancel()`
    /// does not stop the shared execution (other handles want its result).
    /// If the *leader* is cancelled, its own handle receives the partial
    /// result with [`MiningResult::cancelled`] set, but coalesced handles
    /// asked for the full answer: they receive a retryable
    /// [`SirumError::Service`] instead of a partial result (and the cache
    /// stays unpopulated, so a resubmission executes fresh). Should the
    /// leader *fail*, followers receive the failure re-wrapped as
    /// [`SirumError::Service`] with the original error rendered into the
    /// reason (errors are not clonable across handles) — match on the
    /// leader's handle for the typed variant.
    ///
    /// # Errors
    /// * [`SirumError::UnknownTable`] / [`SirumError::InvalidConfig`] — the
    ///   request cannot execute.
    /// * [`SirumError::Service`] — the worker pool is shut down.
    pub fn submit(self) -> Result<JobHandle, SirumError> {
        self.submit_inner(false)
    }

    /// Like [`Self::submit`], but with **non-blocking admission**: when the
    /// job queue is at capacity the request is shed immediately with
    /// [`SirumError::Overloaded`] instead of blocking the caller — the wire
    /// front end's path (mapped to `429 Too Many Requests`). Cache hits and
    /// coalesced followers bypass admission entirely: they consume no queue
    /// slot, so they succeed even against a saturated pool.
    pub fn try_submit(self) -> Result<JobHandle, SirumError> {
        self.submit_inner(true)
    }

    /// Cancel the job cooperatively once `timeout` of wall-clock time has
    /// elapsed after submission (the run then completes with a *partial*
    /// result, [`MiningResult::cancelled`] set, exactly like
    /// [`JobHandle::cancel`]). Not part of the cache key: a request
    /// differing only in patience is still the same request.
    pub fn deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
    }

    fn submit_inner(self, nonblocking: bool) -> Result<JobHandle, SirumError> {
        let (entry, config) = self.resolve()?;
        let key = self.cache_key(&entry, &config);
        let core = Arc::clone(&self.service.inner.core);
        let token = self.token();
        let shared = Arc::new(JobShared::new());
        let id = core.next_job_id.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(key) = &key {
            if let Some(hit) = core.cache_lookup(key) {
                shared.set(Ok(JobOutput {
                    result: hit,
                    from_cache: true,
                }));
                // Nothing ran, so nothing is registered: the handle is the
                // answer.
                return Ok(JobHandle { id, shared, token });
            }
            // Coalesce onto an identical in-flight execution, or claim
            // leadership of this key (push/claim and the leader's drain
            // serialize on the `pending` lock, so no follower is lost).
            let mut pending = core.pending.lock();
            if let Some(waiters) = pending.get_mut(key) {
                waiters.push(Arc::clone(&shared));
                core.jobs_coalesced.fetch_add(1, Ordering::Relaxed);
                drop(pending);
                core.register_job(id, &self.spec.table, &shared, &token);
                return Ok(JobHandle { id, shared, token });
            }
            pending.insert(key.clone(), Vec::new());
        }
        let observer = self.observer;
        let prior = self.spec.prior;
        let job_shared = Arc::clone(&shared);
        let job_token = token.clone();
        let leader_key = key.clone();
        let leader_core = Arc::clone(&core);
        let job: Job = Box::new(move || {
            core.queue_depth.fetch_sub(1, Ordering::Relaxed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                core.execute(
                    &entry.prepared,
                    config,
                    &prior,
                    observer,
                    job_token,
                    key.clone(),
                )
            }))
            .unwrap_or_else(|_| Err(SirumError::service("mining job panicked")));
            // Complete every follower that coalesced onto this execution.
            // The cache was populated inside `execute`, so a request
            // arriving between the drain and our own slot-set hits it.
            //
            // Cache-correctness invariant: a cancelled run is a *partial*
            // result. It is correct to hand it to the handle whose owner
            // requested the cancellation, but a follower asked for the
            // full answer — it must never be resolved with the leader's
            // partial rules (and the cache was likewise not populated).
            // Followers of a cancelled leader get a typed retryable error
            // instead; a resubmission executes fresh.
            if let Some(key) = &key {
                let waiters = core.pending.lock().remove(key).unwrap_or_default();
                for waiter in waiters {
                    waiter.set(match &outcome {
                        Ok(out) if out.result.cancelled => Err(SirumError::service(
                            "coalesced execution was cancelled before completion; \
                             resubmit the request for a full run",
                        )),
                        Ok(out) => Ok(JobOutput {
                            result: Arc::clone(&out.result),
                            from_cache: true,
                        }),
                        Err(e) => Err(SirumError::service(format!("coalesced job failed: {e}"))),
                    });
                }
            }
            job_shared.set(outcome);
        });
        leader_core.queue_depth.fetch_add(1, Ordering::Relaxed);
        let pool = &self.service.inner.pool;
        let submitted = if nonblocking {
            pool.try_submit(job)
        } else {
            pool.submit(job)
        };
        if let Err(e) = submitted {
            leader_core.queue_depth.fetch_sub(1, Ordering::Relaxed);
            if matches!(e, SirumError::Overloaded { .. }) {
                leader_core.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            }
            // Leadership was claimed but the job never queued: release the
            // key AND fail any follower that already coalesced onto it
            // (dropping their JobShared unset would hang their wait()).
            if let Some(key) = &leader_key {
                let waiters = leader_core.pending.lock().remove(key).unwrap_or_default();
                for waiter in waiters {
                    waiter.set(Err(SirumError::service(format!(
                        "coalesced job was never scheduled: {e}"
                    ))));
                }
            }
            return Err(e);
        }
        leader_core.register_job(id, &self.spec.table, &shared, &token);
        Ok(JobHandle { id, shared, token })
    }

    /// Execute the request synchronously on the calling thread (still
    /// cache-checked and metrics-isolated; the worker pool is not
    /// involved and the run neither joins nor leads in-flight coalescing).
    pub fn run(self) -> Result<JobOutput, SirumError> {
        let (entry, config) = self.resolve()?;
        let key = self.cache_key(&entry, &config);
        let core = &self.service.inner.core;
        if let Some(key) = &key {
            if let Some(hit) = core.cache_lookup(key) {
                return Ok(JobOutput {
                    result: hit,
                    from_cache: true,
                });
            }
        }
        let token = self.token();
        core.execute(
            &entry.prepared,
            config,
            &self.spec.prior,
            self.observer,
            token,
            key,
        )
    }

    /// Like [`Self::run`], but mine on a Bernoulli row sample of the table
    /// at `rate` and score the mined rules against the *full* table
    /// (§4.5/§5.7.3). Never cached (the sample is drawn per call); the
    /// progress observer is not invoked in this mode; the deadline is.
    pub fn run_on_sample(self, rate: f64) -> Result<SampleDataResult, SirumError> {
        let (entry, config) = self.resolve()?;
        let miner =
            Miner::new(self.service.engine().fork(), config).with_cancellation(self.token());
        try_mine_on_sample(&miner, &entry.table, rate)
    }

    /// A fresh cancellation token for one run, armed with the request's
    /// deadline if it has one.
    fn token(&self) -> CancellationToken {
        let token = CancellationToken::new();
        if let Some(timeout) = self.deadline {
            token.cancel_after(timeout);
        }
        token
    }

    /// Return the planned execution — the normalized configuration and the
    /// decisions a run would take — without running anything. The same
    /// validation as [`Self::submit`] applies, so `explain` doubles as a
    /// dry-run check.
    pub fn explain(&self) -> Result<MiningPlan, SirumError> {
        let (entry, config) = self.resolve()?;
        let cached = match self.cache_key(&entry, &config) {
            Some(key) => self.service.inner.core.cache.lock().contains(&key),
            None => false,
        };
        Ok(MiningPlan::model(
            &self.spec.table,
            self.spec.variant,
            &entry,
            &config,
            self.service.engine().config(),
            cached,
        ))
    }
}

impl std::fmt::Debug for ServiceRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRequest")
            .field("table", &self.spec.table)
            .field("k", &self.spec.k)
            .field("variant", &self.spec.variant)
            .field("sample_size", &self.spec.sample_size)
            .finish_non_exhaustive()
    }
}

/// A completed request: the mining result (shared — cache hits return the
/// *same* allocation, observable via [`Arc::ptr_eq`]) plus where it came
/// from.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The mining result.
    pub result: Arc<MiningResult>,
    /// True when the result was served from the result cache without
    /// re-execution.
    pub from_cache: bool,
}

enum JobSlot {
    Pending,
    Done(Result<JobOutput, SirumError>),
    Taken,
}

struct JobShared {
    slot: StdMutex<JobSlot>,
    done: Condvar,
}

impl JobShared {
    fn new() -> Self {
        JobShared {
            slot: StdMutex::new(JobSlot::Pending),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobSlot> {
        // A panicking setter is already mapped to Err by the job wrapper;
        // recover the poison instead of propagating it.
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set(&self, outcome: Result<JobOutput, SirumError>) {
        *self.lock() = JobSlot::Done(outcome);
        self.done.notify_all();
    }

    /// Block until `read` makes something of the slot — it answers `None`
    /// while the job is pending — or until `timeout` has passed (`None`).
    /// No `timeout` is no deadline: the answer is then always `Some`.
    fn when_done<T>(
        &self,
        timeout: Option<Duration>,
        read: impl Fn(&mut JobSlot) -> Option<T>,
    ) -> Option<T> {
        // `Instant + Duration` can overflow-panic on absurd timeouts; an
        // unrepresentable deadline is no deadline. Without one the loop
        // re-checks in hour-long waits.
        let deadline = timeout.and_then(|timeout| Instant::now().checked_add(timeout));
        let mut slot = self.lock();
        loop {
            if let Some(outcome) = read(&mut slot) {
                return Some(outcome);
            }
            let remaining = match deadline {
                Some(deadline) => deadline.saturating_duration_since(Instant::now()),
                None => Duration::from_secs(3600),
            };
            if remaining.is_zero() {
                return None;
            }
            slot = self
                .done
                // lint:allow(SL003) — Condvar::wait_timeout atomically releases the guard while parked
                .wait_timeout(slot, remaining)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

impl JobSlot {
    /// Non-consuming read: clone a finished outcome, leaving the slot
    /// `Done` so later peeks (and the handle's own `wait`) still see it.
    /// Errors are not clonable, so a failed job peeks as a re-rendered
    /// [`SirumError::Service`]; `None` while pending.
    fn peek(&self) -> Option<Result<JobOutput, SirumError>> {
        match self {
            JobSlot::Pending => None,
            JobSlot::Done(Ok(output)) => Some(Ok(output.clone())),
            JobSlot::Done(Err(e)) => Some(Err(SirumError::service(format!("job failed: {e}")))),
            JobSlot::Taken => Some(Err(SirumError::service(
                "job result was already taken through its handle",
            ))),
        }
    }

    /// Consuming read: move a finished outcome out exactly once, leaving
    /// the slot `Taken`; `None` while pending.
    fn take(&mut self) -> Option<Result<JobOutput, SirumError>> {
        match std::mem::replace(self, JobSlot::Taken) {
            JobSlot::Done(outcome) => Some(outcome),
            JobSlot::Pending => {
                *self = JobSlot::Pending;
                None
            }
            JobSlot::Taken => Some(Err(SirumError::service(
                "job result was already taken by try_poll()",
            ))),
        }
    }
}

/// Handle to a submitted mining job (see [`ServiceRequest::submit`]).
///
/// ```
/// use sirum::service::SirumService;
///
/// let service = SirumService::in_memory()?;
/// service.register_demo("flights")?;
/// let mut handle = service.mine("flights").k(2).sample_size(14).submit()?;
/// // Poll without blocking…
/// let output = loop {
///     match handle.try_poll() {
///         Some(outcome) => break outcome?,
///         None => std::thread::yield_now(),
///     }
/// };
/// assert_eq!(output.result.rules.len(), 3);
/// # Ok::<(), sirum::core::SirumError>(())
/// ```
///
/// `cancel()` requests cooperative cancellation: the running miner stops at
/// the next iteration boundary and the job completes *successfully* with a
/// partial result whose [`MiningResult::cancelled`] flag is set.
pub struct JobHandle {
    id: u64,
    shared: Arc<JobShared>,
    token: CancellationToken,
}

impl JobHandle {
    /// The job's service-wide id (1-based, monotonically increasing).
    /// Usable out-of-band through [`SirumService::job_status`],
    /// [`SirumService::job_output`] and [`SirumService::cancel_job`] while
    /// the bounded registry remembers the job. The registry records
    /// executions, not answers: a handle served from the result cache has
    /// an id but was never registered, so those calls answer "unknown" for
    /// it, as they do for an evicted job.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cooperative cancellation. Idempotent; a job that already
    /// finished is unaffected, a queued job stops before its first mining
    /// iteration, a running job stops at the next iteration boundary. The
    /// partial result still arrives through [`Self::wait`] /
    /// [`Self::try_poll`] with [`MiningResult::cancelled`] set.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// A clone of the job's cancellation token (e.g. to hand to a watchdog
    /// thread).
    pub fn cancellation_token(&self) -> CancellationToken {
        self.token.clone()
    }

    /// True once the job's outcome is available (or was already taken).
    pub fn is_finished(&self) -> bool {
        !matches!(*self.shared.lock(), JobSlot::Pending)
    }

    /// Non-blocking poll: `None` while the job is still queued or running;
    /// the outcome exactly once when finished (subsequent polls return
    /// `None` again).
    pub fn try_poll(&mut self) -> Option<Result<JobOutput, SirumError>> {
        let mut slot = self.shared.lock();
        match &*slot {
            JobSlot::Done(_) => slot.take(),
            JobSlot::Pending | JobSlot::Taken => None,
        }
    }

    /// Block up to `timeout` for the job to finish: `None` on timeout (the
    /// job keeps running and the handle stays usable), the outcome exactly
    /// once when it finishes within the window (like [`Self::try_poll`],
    /// a delivered outcome is not delivered again).
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<JobOutput, SirumError>> {
        self.shared.when_done(Some(timeout), JobSlot::take)
    }

    /// Block until the job finishes and return its outcome.
    ///
    /// # Errors
    /// The job's own error, or [`SirumError::Service`] if the outcome was
    /// already taken by [`Self::try_poll`].
    pub fn wait(self) -> Result<JobOutput, SirumError> {
        self.shared
            .when_done(None, JobSlot::take)
            .ok_or_else(|| SirumError::service("job wait ended before the job did"))?
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .field("cancel_requested", &self.token.is_cancelled())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

/// The planned execution of a mining request: the normalized configuration
/// and the decisions that follow from it and from the registered table by
/// construction. It quotes no time: what mines cost is measured, in
/// [`ServiceStats::job_latency`]. Produced by [`ServiceRequest::explain`];
/// nothing is executed.
#[derive(Debug, Clone)]
pub struct MiningPlan {
    /// Requested table name.
    pub table: String,
    /// The table's content fingerprint (the cache key's table half).
    pub fingerprint: u64,
    /// Rows in the table.
    pub rows: usize,
    /// Dimension attributes in the table.
    pub dims: usize,
    /// Syntactically possible rules `∏(|dom(Aᵢ)|+1)` for scale context.
    pub possible_rules: f64,
    /// Normalized candidate strategy (sample size already clamped).
    pub strategy: CandidateStrategy,
    /// The variant the request was based on, if any.
    pub variant: Option<Variant>,
    /// Rules to mine beyond the wildcard rule.
    pub k: usize,
    /// Rules inserted per iteration.
    pub rules_per_iter: usize,
    /// Whether the RCT scaling path is active.
    pub rct: bool,
    /// Whether candidate evaluation runs as the fused partition-parallel
    /// gain sweep (no shuffles; one full scan, then — with [`Self::rct`] —
    /// only the rows off the largest RCT group each iteration) or as the
    /// staged pipeline the Table 4.2 variants run, with its knobs.
    pub evaluation: Evaluation,
    /// Whether the registered table's dimension columns are stored
    /// compressed (bit-packed/RLE segments, scanned morsel-by-morsel) —
    /// the [`sirum_table::Compression`] policy's decision at registration.
    pub compressed: bool,
    /// Per-column physical formats (`"raw"`, `"packed4"`, `"rle"`, …),
    /// one entry per dimension, as chosen by the per-segment size
    /// heuristic.
    pub column_formats: Vec<String>,
    /// Packed-code width candidate evaluation keys by — the sweep's
    /// accumulators or the staged pipeline's records: `Some(64)` or
    /// `Some(128)` when rules intern as dense integer codes (the table's
    /// dictionary bit-widths fit; [`sirum_core::RuleLayout`]), `None` when
    /// it keys by `Rule` (the layout exceeds 128 bits).
    pub packed_bits: Option<u32>,
    /// Predicted stage-1 combine strategy for one sweep partition:
    /// [`CombineStrategy::for_partition`], the sweep's own rule, asked
    /// about the planned per-partition shape. `None` for a staged plan,
    /// and whenever `packed_bits` is: only packed codes are ever
    /// slot-addressed, the `Rule`-keyed sweep always probes its one map.
    pub combine: Option<CombineStrategy>,
    /// `⌈k / l⌉`: the rule-generation iterations of a run whose every
    /// iteration inserts its full `l` rules, so the fewest that mine all
    /// `k`. An iteration that finds fewer than `l` mutually disjoint
    /// candidates adds iterations, up to `k` (each inserts at least one
    /// rule); a run stops earlier once no candidate has positive gain, and
    /// a KL-target run may iterate further, up to its `max_rules` bound.
    pub estimated_iterations: usize,
    /// Candidate pairs emitted per iteration by the LCA join (`|s| × n`,
    /// before combining) — what a full scan folds; a sweep that counts the
    /// largest RCT group folds only the other rows' share of them.
    pub estimated_lca_pairs: u64,
    /// True when the result cache already holds this exact request (it
    /// would be answered without execution).
    pub cached: bool,
}

impl MiningPlan {
    fn model(
        table: &str,
        variant: Option<Variant>,
        entry: &CatalogEntry,
        config: &SirumConfig,
        engine_config: &EngineConfig,
        cached: bool,
    ) -> MiningPlan {
        let frame = entry.prepared.frame();
        // The full cube has no sample: each row is its own one "pair".
        let sample_rows = match config.strategy {
            CandidateStrategy::SampleLca { sample_size } => Some(sample_size),
            CandidateStrategy::FullCube => None,
        };
        let lca_pairs = entry.table.num_rows() as u64 * sample_rows.unwrap_or(1) as u64;
        let iterations = config.k.div_ceil(config.rules_per_iter.max(1));
        let partitions = engine_config.partitions.max(1);

        // The miner's own decisions: the packed-code width falls out of
        // the registered dictionaries' bit-widths, and the sweep's combine
        // strategy is whatever its rule says of one planned partition.
        let packed_bits = config
            .packed_codes
            .then(|| RuleLayout::from_cardinalities(frame.cards()))
            .and_then(|layout| layout.packed_bits());
        let sweep = config.evaluation == Evaluation::Sweep;
        let combine = packed_bits.filter(|_| sweep).map(|_| {
            CombineStrategy::for_partition(
                entry.table.num_rows().div_ceil(partitions),
                entry.table.num_dims(),
                sample_rows,
            )
        });

        MiningPlan {
            table: table.to_string(),
            fingerprint: entry.table.fingerprint(),
            rows: entry.table.num_rows(),
            dims: entry.table.num_dims(),
            possible_rules: entry.table.possible_rule_count(),
            strategy: config.strategy,
            variant,
            k: config.k,
            rules_per_iter: config.rules_per_iter,
            rct: config.rct,
            evaluation: config.evaluation,
            compressed: frame.is_compressed(),
            column_formats: frame
                .column_formats()
                .iter()
                .map(ToString::to_string)
                .collect(),
            packed_bits,
            combine,
            estimated_iterations: iterations,
            estimated_lca_pairs: lca_pairs,
            cached,
        }
    }
}

impl std::fmt::Display for MiningPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "plan: table {:?} ({} rows × {} dims, {:.3e} possible rules, fingerprint {:016x})",
            self.table, self.rows, self.dims, self.possible_rules, self.fingerprint
        )?;
        let strategy = match self.strategy {
            CandidateStrategy::SampleLca { sample_size } => {
                format!("sample-LCA pruning, |s| = {sample_size}")
            }
            CandidateStrategy::FullCube => "full cube enumeration".to_string(),
        };
        let groups = match self.evaluation {
            Evaluation::Staged(pipeline) => format!(", {} column group(s)", pipeline.column_groups),
            Evaluation::Sweep => String::new(),
        };
        writeln!(
            f,
            "  strategy: {strategy}; k = {}{groups}, {} rule(s)/iteration, scaling via {}",
            self.k,
            self.rules_per_iter,
            if self.rct { "RCT" } else { "Algorithm 1" },
        )?;
        writeln!(
            f,
            "  candidate evaluation: {}",
            // The RCT is what tells the sweep which estimate most rows
            // share; Algorithm 1 scaling leaves every sweep a full scan.
            match (self.evaluation, self.rct) {
                (Evaluation::Sweep, true) => {
                    "fused partition-parallel gain sweep (one full scan, then the rows \
                     off the largest RCT group, per iteration; no shuffles)"
                }
                (Evaluation::Sweep, false) => {
                    "fused partition-parallel gain sweep (one scan/iteration, no shuffles)"
                }
                (Evaluation::Staged(_), _) => {
                    "staged pipeline (LCA join → ancestor stages → adjust + gain)"
                }
            },
        )?;
        writeln!(
            f,
            "  storage: {} column format(s) [{}]",
            if self.compressed { "compressed" } else { "raw" },
            self.column_formats.join(", "),
        )?;
        match (self.evaluation, self.packed_bits, self.combine) {
            (Evaluation::Sweep, Some(bits), Some(combine)) => writeln!(
                f,
                "  sweep accumulators: packed u{bits} rule codes, {combine} combine"
            )?,
            (Evaluation::Sweep, ..) => writeln!(
                f,
                "  sweep accumulators: Rule-keyed maps (layout > 128 bits)"
            )?,
            (Evaluation::Staged(_), Some(bits), _) => {
                writeln!(f, "  staged records: packed u{bits} rule codes")?
            }
            (Evaluation::Staged(_), None, _) => {
                writeln!(f, "  staged records: Rule records (layout > 128 bits)")?
            }
        }
        write!(
            f,
            "  shape: {} iteration(s) at a full {} rule(s) each, {} LCA pairs/iteration{}",
            self.estimated_iterations,
            self.rules_per_iter,
            self.estimated_lca_pairs,
            if self.cached {
                " — cached, would be served without execution"
            } else {
                ""
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

/// An incremental-maintenance stream over one table's rule model, from
/// [`SirumService::stream`]: batches ingested through the handle update the
/// model with warm-started refits ([`StreamingMiner`], §7), and
/// [`Self::mine_more`] mines additional rules when the model drifts.
///
/// The handle owns its maintainer (single-owner, `&mut` ingestion) but
/// shares the catalog's table `Arc` for dictionaries, so codes can be
/// decoded and validated without copying the table, and the service's
/// engine, so a stream's mine spills through the same block store and
/// memory budget as every other mine.
pub struct IngestHandle {
    miner: StreamingMiner,
    table: Arc<Table>,
    engine: Engine,
}

impl IngestHandle {
    /// The table this stream was seeded from (dictionaries, schema).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Rows in the model's history (seed rows + ingested rows).
    pub fn len(&self) -> usize {
        self.miner.len()
    }

    /// True before any row arrives (cannot happen for catalog-seeded
    /// streams, which start with the table's rows).
    pub fn is_empty(&self) -> bool {
        self.miner.is_empty()
    }

    /// Current rule list (all-wildcards first).
    pub fn rules(&self) -> &[Rule] {
        self.miner.rules()
    }

    /// Exact KL divergence of the current model over the whole history.
    pub fn kl(&self) -> f64 {
        self.miner.kl()
    }

    /// Ingest one batch of dictionary-coded rows and re-fit the model from
    /// the current multipliers (warm start). Codes must come from the
    /// seeding table's dictionaries (e.g. via [`sirum_table::Dictionary::code`]).
    /// A refused batch leaves the model untouched.
    ///
    /// # Errors
    /// * [`SirumError::Table`] — a code was never interned in the seeding
    ///   table's dictionary.
    /// * [`SirumError::InvalidConfig`] — a row's arity does not match the
    ///   table.
    /// * [`SirumError::InvalidMeasure`] — a measure is negative or not
    ///   finite.
    pub fn ingest(&mut self, rows: &[(&[u32], f64)]) -> Result<(), SirumError> {
        // Only the dictionaries need the table; arity (hence the `take`)
        // and measures are the maintainer's checks.
        for (row, _) in rows {
            for (column, &code) in row.iter().enumerate().take(self.table.num_dims()) {
                if code as usize >= self.table.dict(column).cardinality() {
                    return Err(SirumError::Table(TableError::UninternedCode {
                        column,
                        code,
                    }));
                }
            }
        }
        self.miner.ingest(rows).map(|_| ())
    }

    /// Mine up to `k` additional rules over the accumulated history
    /// (typically after [`Self::kl`] reveals drift): a [`Miner`] run on a
    /// fresh fork of the service engine with the stream's rules as prior
    /// knowledge — the `Miner` fits that seed model from λ = 1 on the RCT,
    /// and the maintainer then adopts each new rule with its usual warm
    /// refit. Returns the new rules with their selection-time gains.
    ///
    /// # Errors
    /// As [`Miner::try_mine_prepared`]: [`SirumError::InvalidConfig`] when
    /// `k` more rules would exceed the rule-coverage bit-array capacity,
    /// [`SirumError::Dataflow`] on a spill-I/O failure.
    pub fn mine_more(&mut self, k: usize) -> Result<Vec<(Rule, f64)>, SirumError> {
        self.miner.mine_more(&self.engine, k)
    }
}

impl std::fmt::Debug for IngestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestHandle")
            .field("rows", &self.len())
            .field("rules", &self.rules().len())
            .finish()
    }
}

// Re-exported here so the JSON rendering of service output lives next to
// its producers in the docs.
pub use json::mining_result_to_json;

#[cfg(test)]
mod tests {
    use super::*;

    fn flights_service() -> SirumService {
        let service = SirumService::in_memory().unwrap();
        service.register_demo("flights").unwrap();
        service
    }

    #[test]
    fn catalog_table_and_preparation_share_one_copy() {
        use sirum_table::Compression;
        // Raw or compressed, the catalog's table and its mining preparation
        // hold the same column buffers: registration copies nothing.
        let service = SirumService::in_memory().unwrap();
        let tables = [
            ("raw", generators::income_like(500, 3)),
            (
                "compressed",
                generators::tlc_like_with(500, 3, Compression::Always),
            ),
        ];
        for (name, table) in tables {
            service.register(name, table).unwrap();
            let entry = service.entry(name).unwrap();
            let (t, p) = (entry.table.frame(), entry.prepared.frame());
            assert_eq!(t.is_compressed(), name == "compressed");
            for j in 0..t.num_dims() {
                let shared = std::ptr::eq(t.column(j).segments(), p.column(j).segments());
                assert!(shared, "{name}: column {j} copied");
            }
            assert!(
                std::ptr::eq(t.measures(), p.measures()),
                "{name}: measure copied"
            );
        }
    }

    #[test]
    fn request_defaults_match_optimized_sirum() {
        let service = flights_service();
        let request = service.mine("flights").k(3).sample_size(14);
        let config = request.spec.build_config(14);
        assert_eq!(config.k, 3);
        assert!(config.rct);
        assert_eq!(config.evaluation, Evaluation::Sweep);
        assert_eq!(
            config.strategy,
            CandidateStrategy::SampleLca { sample_size: 14 }
        );
    }

    #[test]
    fn builder_order_does_not_matter_for_variant_and_k() {
        let service = SirumService::in_memory().unwrap();
        let a = service
            .mine("t")
            .k(5)
            .variant(Variant::Rct)
            .spec
            .build_config(100);
        let b = service
            .mine("t")
            .variant(Variant::Rct)
            .k(5)
            .spec
            .build_config(100);
        assert_eq!(a.k, b.k);
        assert_eq!(a.rct, b.rct);
    }

    #[test]
    fn builder_mode_preserves_earlier_overrides() {
        // workers() before mode() must survive the mode switch.
        let service = SirumService::builder()
            .workers(3)
            .partitions(7)
            .mode(EngineMode::DiskMr)
            .build()
            .unwrap();
        let config = service.engine().config();
        assert_eq!(config.mode, EngineMode::DiskMr);
        assert_eq!(config.workers, 3);
        assert_eq!(config.partitions, 7);
        // Switching back changes the mode only.
        let service = SirumService::builder()
            .workers(3)
            .mode(EngineMode::DiskMr)
            .mode(EngineMode::InMemory)
            .build()
            .unwrap();
        let config = service.engine().config();
        assert_eq!(config.mode, EngineMode::InMemory);
        assert_eq!(config.workers, 3);
    }

    #[test]
    fn submit_wait_round_trip_matches_run() {
        let service = flights_service();
        let a = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .submit()
            .unwrap()
            .wait()
            .unwrap();
        assert!(!a.from_cache);
        // Identical request → cache hit, same allocation.
        let b = service.mine("flights").k(2).sample_size(14).run().unwrap();
        assert!(b.from_cache);
        assert!(Arc::ptr_eq(&a.result, &b.result));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.jobs_executed, 1);
    }

    #[test]
    fn different_builder_paths_normalize_to_one_cache_key() {
        let service = flights_service();
        // Optimized-by-default vs the explicit Optimized variant: the
        // normalized configs are identical, so the second is a hit.
        let _ = service.mine("flights").k(2).sample_size(14).run().unwrap();
        let again = service
            .mine("flights")
            .variant(Variant::Optimized)
            .rules_per_iter(1) // Optimized defaults to l=2; override back to the default config's l=1
            .k(2)
            .sample_size(14)
            .run()
            .unwrap();
        assert!(
            again.from_cache,
            "normalized configs are identical, so the explicit-variant spelling must hit"
        );
        // Sample size larger than the table clamps to n → one key.
        let big = service
            .mine("flights")
            .k(2)
            .sample_size(10_000)
            .run()
            .unwrap();
        let clamped = service.mine("flights").k(2).sample_size(14).run().unwrap();
        assert!(clamped.from_cache);
        assert!(Arc::ptr_eq(&big.result, &clamped.result));
    }

    #[test]
    fn sweep_inert_knobs_normalize_to_one_cache_key() {
        let service = flights_service();
        let a = service.mine("flights").k(2).sample_size(14).run().unwrap();
        // column_groups (like broadcast_join/fast_pruning) has no effect
        // under the fused sweep, so it must not split the cache key.
        let b = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .column_groups(3)
            .run()
            .unwrap();
        assert!(b.from_cache, "inert knob must hit the same entry");
        assert!(Arc::ptr_eq(&a.result, &b.result));
        // A staged variant's pipeline is steered by the knob again → own key.
        let staged = |groups| {
            service
                .mine("flights")
                .k(2)
                .sample_size(14)
                .variant(Variant::Rct)
                .column_groups(groups)
                .run()
                .unwrap()
        };
        assert!(!staged(1).from_cache);
        assert!(!staged(3).from_cache);
    }

    #[test]
    fn observers_bypass_the_cache() {
        let service = flights_service();
        let _ = service.mine("flights").k(2).sample_size(14).run().unwrap();
        let observed = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .on_iteration(|_| IterationDecision::Continue)
            .run()
            .unwrap();
        assert!(!observed.from_cache, "observer requests must re-execute");
        let stats = service.stats();
        assert_eq!(stats.jobs_executed, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn concurrent_identical_submissions_coalesce() {
        let service = SirumService::builder().pool_workers(4).build().unwrap();
        service
            .register_demo_with("income", Some(1_500), 3)
            .unwrap();
        let n = 6;
        let handles: Vec<JobHandle> = (0..n)
            .map(|_| service.mine("income").k(3).submit().unwrap())
            .collect();
        let outputs: Vec<JobOutput> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        let stats = service.stats();
        assert_eq!(
            stats.jobs_executed + stats.jobs_coalesced + stats.cache_hits,
            n as u64,
            "every submission is accounted for: {stats:?}"
        );
        assert!(stats.jobs_executed >= 1);
        // All outputs carry identical results; followers share the
        // leader's allocation.
        for output in &outputs {
            assert_eq!(output.result.rules.len(), outputs[0].result.rules.len());
            assert_eq!(output.result.final_kl(), outputs[0].result.final_kl());
        }
        let shared = outputs
            .iter()
            .filter(|o| Arc::ptr_eq(&o.result, &outputs[0].result))
            .count();
        assert!(shared >= 1);
    }

    #[test]
    fn submit_reports_bad_requests_before_queueing() {
        let service = flights_service();
        assert!(matches!(
            service.mine("nope").submit(),
            Err(SirumError::UnknownTable { .. })
        ));
        assert!(matches!(
            service.mine("flights").sample_size(0).submit(),
            Err(SirumError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn try_poll_delivers_exactly_once_and_wait_after_poll_errors() {
        let service = flights_service();
        let mut handle = service
            .mine("flights")
            .k(1)
            .sample_size(14)
            .submit()
            .unwrap();
        let output = loop {
            match handle.try_poll() {
                Some(outcome) => break outcome.unwrap(),
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(output.result.rules.len(), 2);
        assert!(handle.try_poll().is_none(), "delivered exactly once");
        assert!(matches!(handle.wait(), Err(SirumError::Service { .. })));
    }

    #[test]
    fn cancelled_job_never_caches_and_resubmission_executes_fresh() {
        // Regression (ISSUE 4): a run that ends cancelled is partial; the
        // cache must stay unpopulated so re-submitting the identical
        // request performs a fresh, full execution.
        let service = SirumService::builder().pool_workers(1).build().unwrap();
        service
            .register_demo_with("income", Some(1_000), 7)
            .unwrap();
        // Occupy the single pool worker so the target job is still queued
        // when we cancel it — the miner then observes the token before its
        // first iteration, making the cancellation deterministic.
        let blocker = service.mine("income").k(4).submit().unwrap();
        let target = service.mine("income").k(2).submit().unwrap();
        target.cancel();
        let out = target.wait().unwrap();
        assert!(out.result.cancelled, "queued job cancels before iterating");
        assert!(!out.from_cache);
        assert_eq!(out.result.rules.len(), 1, "seed rule only");
        let _ = blocker.wait().unwrap();
        // Identical request: must be a fresh full execution, not a cache
        // hit on the partial result.
        let fresh = service
            .mine("income")
            .k(2)
            .submit()
            .unwrap()
            .wait()
            .unwrap();
        assert!(!fresh.from_cache, "partial results must never be cached");
        assert!(!fresh.result.cancelled);
        assert_eq!(fresh.result.rules.len(), 3, "(*,…,*) + k=2 rules");
        let stats = service.stats();
        assert_eq!(stats.jobs_cancelled, 1);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn cancelled_leader_fails_followers_instead_of_partial_results() {
        // Regression (ISSUE 4): followers coalesced onto a leader that got
        // cancelled asked for the FULL answer; resolving them with the
        // leader's partial rules would silently serve truncated results.
        let service = SirumService::builder().pool_workers(1).build().unwrap();
        service
            .register_demo_with("income", Some(1_000), 7)
            .unwrap();
        let blocker = service.mine("income").k(4).submit().unwrap();
        let leader = service.mine("income").k(2).submit().unwrap();
        let follower = service.mine("income").k(2).submit().unwrap();
        assert_eq!(service.stats().jobs_coalesced, 1);
        leader.cancel();
        let _ = blocker.wait().unwrap();
        let lead_out = leader.wait().unwrap();
        assert!(lead_out.result.cancelled, "the leader sees its partial run");
        match follower.wait() {
            Err(SirumError::Service { reason }) => {
                assert!(reason.contains("cancelled"), "reason: {reason}")
            }
            other => panic!("follower must get a retryable error, got {other:?}"),
        }
        // And the retry executes fresh and fully.
        let retry = service
            .mine("income")
            .k(2)
            .submit()
            .unwrap()
            .wait()
            .unwrap();
        assert!(!retry.from_cache);
        assert!(!retry.result.cancelled);
        assert_eq!(retry.result.rules.len(), 3);
    }

    #[test]
    fn cancelled_results_are_not_cached() {
        let service = SirumService::in_memory().unwrap();
        service
            .register_demo_with("income", Some(2_000), 7)
            .unwrap();
        let handle = service.mine("income").k(8).submit().unwrap();
        handle.cancel(); // may land before the first iteration
        let out = handle.wait().unwrap();
        if out.result.cancelled {
            let rerun = service.mine("income").k(8).run().unwrap();
            assert!(!rerun.from_cache, "partial results must not be served");
        }
    }

    #[test]
    fn explain_plans_without_executing() {
        let service = flights_service();
        let plan = service
            .mine("flights")
            .k(3)
            .sample_size(14)
            .explain()
            .unwrap();
        assert_eq!(plan.rows, 14);
        assert_eq!(plan.dims, 3);
        assert!(plan.rct, "Optimized default uses the RCT");
        assert_eq!(
            plan.strategy,
            CandidateStrategy::SampleLca { sample_size: 14 }
        );
        assert!(!plan.cached);
        // Flights: 3 dims of tiny cardinality, well inside a u64 code; one
        // row a partition is far under the slot table's 2^3, so it probes.
        assert_eq!(plan.packed_bits, Some(64));
        assert_eq!(plan.combine, Some(CombineStrategy::HashProbe));
        assert!(plan.to_string().contains("packed u64 rule codes"));
        let later_sweeps = "one full scan, then the rows off the largest RCT group, per iteration";
        assert!(plan.to_string().contains(later_sweeps), "{plan}");
        // 14 rows is far below the Auto compression threshold: the plan
        // reports raw per-column formats.
        assert!(!plan.compressed);
        assert_eq!(plan.column_formats, vec!["raw"; 3]);
        assert!(plan.to_string().contains("raw column format(s)"));
        // A staged variant keys its records by the same codes, and has no
        // combine stage to report at all.
        let plan_staged = service
            .mine("flights")
            .k(3)
            .sample_size(14)
            .variant(Variant::Rct)
            .explain()
            .unwrap();
        assert_eq!(plan_staged.packed_bits, Some(64));
        assert_eq!(plan_staged.combine, None);
        assert!(!plan_staged.to_string().contains("sweep accumulators"));
        // Without the RCT nothing names a shared estimate: every sweep is
        // a full scan, and the plan says so.
        let plan_alg1 = MiningPlan {
            rct: false,
            ..plan.clone()
        };
        assert!(plan_alg1.to_string().contains("one scan/iteration"));
        assert_eq!(service.stats().jobs_executed, 0, "explain ran nothing");
        // After executing, the same plan reports a cache hit ahead.
        let _ = service.mine("flights").k(3).sample_size(14).run().unwrap();
        let plan = service
            .mine("flights")
            .k(3)
            .sample_size(14)
            .explain()
            .unwrap();
        assert!(plan.cached);
        assert!(plan.to_string().contains("cached"));
    }

    #[test]
    fn a_run_stays_inside_what_its_plan_promises() {
        type Shape = for<'s> fn(ServiceRequest<'s>) -> ServiceRequest<'s>;
        let shapes: [(&str, Shape, u64); 4] = [
            ("default", |r| r, 14),
            ("baseline", |r| r.variant(Variant::Baseline), 14),
            ("full cube", |r| r.full_cube(), 1),
            ("two rules an iteration", |r| r.rules_per_iter(2), 14),
        ];
        let service = flights_service();
        for (name, shape, pairs_per_row) in shapes {
            let request = || shape(service.mine("flights").k(3));
            let plan = request().explain().unwrap();
            assert!(!plan.cached, "{name}");
            // The default |s| = 64 is clamped to the table's 14 rows.
            assert_eq!(plan.estimated_lca_pairs, 14 * pairs_per_row, "{name}");
            // Every iteration inserts between one and `l` rules, so ⌈k/l⌉
            // is a ceiling only where l = 1: flights takes 3 iterations,
            // not 2, to place 3 rules two at a time.
            let l = plan.rules_per_iter;
            assert_eq!(plan.estimated_iterations, 3usize.div_ceil(l), "{name}");
            let result = request().run().unwrap().result;
            let mined = result.rules.len() - 1;
            assert!(
                (mined.div_ceil(l)..=plan.k).contains(&result.iterations),
                "{name}: {} iterations for {mined} rules",
                result.iterations
            );
            assert!(request().explain().unwrap().cached, "{name}");
        }
    }

    #[test]
    fn explain_reports_the_slot_table_exactly_where_the_sweep_takes_it() {
        // tlc-shaped: 9 dims, 20 000 rows over the default 16 partitions —
        // 1250 rows a partition against a 2^9-entry-per-sample-row table.
        let service = SirumService::in_memory().unwrap();
        service
            .register("tlc", generators::tlc_like(20_000, 5))
            .unwrap();
        let plan = service.mine("tlc").k(3).sample_size(16).explain().unwrap();
        assert_eq!((plan.rows, plan.dims), (20_000, 9));
        assert_eq!(plan.combine, Some(CombineStrategy::SlotTable));
        let text = plan.to_string();
        assert!(text.contains("slot-table combine"), "{text}");
        // The full cube has no sample rows to address slots by.
        let cube = service.mine("tlc").k(3).full_cube().explain().unwrap();
        assert_eq!(cube.combine, Some(CombineStrategy::HashProbe));
        // The same 9 dims over 250 rows a partition fall under 2^9: the
        // partition probes, however many pairs the sample makes it emit.
        service
            .register("income", generators::income_like(4000, 5))
            .unwrap();
        let few = service
            .mine("income")
            .k(3)
            .sample_size(16)
            .explain()
            .unwrap();
        assert_eq!(few.combine, Some(CombineStrategy::HashProbe));
        assert!(few.to_string().contains("hash-probe combine"));
        let many = service
            .mine("income")
            .k(3)
            .sample_size(128)
            .explain()
            .unwrap();
        assert_eq!(many.combine, Some(CombineStrategy::HashProbe));
        assert!(many.to_string().contains("hash-probe combine"));
        assert_eq!(service.stats().jobs_executed, 0, "explain ran nothing");
    }

    /// 20 all-distinct columns over 64 rows need 7 bits each (64 values +
    /// the wildcard slot) = 140 bits: past u128, so rules key as `Rule`s.
    fn wide_layout_table() -> Table {
        let dims: Vec<String> = (0..20).map(|j| format!("a{j}")).collect();
        let mut b = Table::builder(sirum_table::Schema::try_new(dims, "m").unwrap());
        for i in 0..64 {
            let values: Vec<String> = (0..20).map(|j| format!("v{i}_{j}")).collect();
            let row: Vec<&str> = values.iter().map(String::as_str).collect();
            b.try_push_row(&row, 1.0 + i as f64).unwrap();
        }
        b.build()
    }

    #[test]
    fn explain_names_the_staged_record_keys() {
        let service = SirumService::in_memory().unwrap();
        service
            .register("income", generators::income_like(4000, 5))
            .unwrap();
        service.register("wide", wide_layout_table()).unwrap();
        let packed = service
            .mine("income")
            .k(3)
            .variant(Variant::Baseline)
            .explain()
            .unwrap();
        assert!(matches!(packed.evaluation, Evaluation::Staged(_)));
        assert_eq!(packed.packed_bits, Some(64));
        let text = packed.to_string();
        assert!(
            text.contains("staged records: packed u64 rule codes"),
            "{text}"
        );
        assert!(!text.contains("sweep accumulators"), "{text}");
        let wide = service
            .mine("wide")
            .k(2)
            .variant(Variant::Baseline)
            .explain()
            .unwrap();
        assert_eq!(wide.packed_bits, None);
        let text = wide.to_string();
        assert!(
            text.contains("staged records: Rule records (layout > 128 bits)"),
            "{text}"
        );
        assert_eq!(service.stats().jobs_executed, 0, "explain ran nothing");
    }

    #[test]
    fn explain_reports_no_combine_strategy_for_rule_keyed_layouts() {
        // Past u128 the sweep runs Rule-keyed — and that path only ever
        // probes its one map, so the plan must not advertise a combine
        // strategy.
        let service = SirumService::in_memory().unwrap();
        service.register("wide", wide_layout_table()).unwrap();
        let plan = service.mine("wide").k(2).explain().unwrap();
        assert_eq!(plan.evaluation, Evaluation::Sweep);
        assert_eq!(plan.packed_bits, None);
        assert_eq!(plan.combine, None);
        let text = plan.to_string();
        assert!(
            text.contains("sweep accumulators: Rule-keyed maps (layout > 128 bits)"),
            "{text}"
        );
        assert!(!text.contains("combine"), "{text}");
    }

    #[test]
    fn lru_cache_evicts_oldest() {
        let mut cache = ResultCache::new(2);
        let key = |i: u64| RequestKey {
            fingerprint: i,
            spec: String::new(),
        };
        let result = || {
            Arc::new(MiningResult {
                rules: Vec::new(),
                kl_trace: vec![0.0],
                timings: Default::default(),
                scaling_iterations: Vec::new(),
                ancestors_emitted: 0,
                iterations: 0,
                transform_shift: 0.0,
                cancelled: false,
            })
        };
        cache.insert(key(1), result());
        cache.insert(key(2), result());
        assert!(cache.get(&key(1)).is_some()); // 1 is now most recent
        cache.insert(key(3), result()); // evicts 2
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn stream_rejects_tables_beyond_the_expansion_limit() {
        // Regression: stream()+mine_more() used to reach the lattice
        // expansion assert on >24-dim tables where mine() already returned
        // a typed error.
        let service = SirumService::in_memory().unwrap();
        let mut b = Table::builder(
            sirum_table::Schema::try_new((0..30).map(|i| format!("c{i}")).collect::<Vec<_>>(), "m")
                .unwrap(),
        );
        for i in 0..3 {
            let vals: Vec<String> = (0..30).map(|c| format!("v{}", (i + c) % 2)).collect();
            let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
            b.try_push_row(&refs, 1.0).unwrap();
        }
        service.register("wide", b.build()).unwrap();
        assert!(matches!(
            service.stream("wide"),
            Err(SirumError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn stream_handle_maintains_the_model() {
        let service = flights_service();
        let mut stream = service.stream("flights").unwrap();
        assert_eq!(stream.len(), 14);
        assert!(!stream.is_empty());
        // Ingest a valid coded row and a few invalid ones.
        let row: Vec<u32> = stream.table().row(0).to_vec();
        stream.ingest(&[(&row, 5.0)]).unwrap();
        assert_eq!(stream.len(), 15);
        assert!(matches!(
            stream.ingest(&[(&row[..2], 1.0)]),
            Err(SirumError::InvalidConfig { .. })
        ));
        assert!(matches!(
            stream.ingest(&[(&row, -1.0)]),
            Err(SirumError::InvalidMeasure { .. })
        ));
        let bad = vec![u32::MAX - 1; 3];
        assert!(matches!(
            stream.ingest(&[(&bad, 1.0)]),
            Err(SirumError::Table(TableError::UninternedCode { .. }))
        ));
        let added = stream.mine_more(2).unwrap();
        assert!(added.len() <= 2);
        assert!(stream.kl().is_finite());
    }

    #[test]
    fn stream_mines_through_the_service_memory_budget() {
        // mine_more runs on a fork of the service engine, so a budget far
        // below the history's working set makes its blocks spill and
        // reload mid-mine — and the rules must not notice.
        let mine = |budget: Option<usize>| {
            let mut builder = SirumService::builder().partitions(4).workers(2);
            if let Some(bytes) = budget {
                builder = builder.memory_budget(bytes);
            }
            let service = builder.build().unwrap();
            service
                .register("income", generators::income_like(6_000, 23))
                .unwrap();
            let mut stream = service.stream("income").unwrap();
            let added: Vec<(Rule, u64)> = stream
                .mine_more(2)
                .unwrap()
                .into_iter()
                .map(|(rule, gain)| (rule, gain.to_bits()))
                .collect();
            (added, service.stats().memory)
        };
        let (reference, roomy) = mine(None);
        let (starved, tight) = mine(Some(48 << 10));
        assert_eq!(reference.len(), 2);
        assert_eq!(reference, starved);
        assert_eq!(roomy.evictions, 0);
        assert!(tight.evictions > 0, "budget never forced an eviction");
        assert!(
            tight.spilled_bytes > 0,
            "nothing round-tripped through disk"
        );
    }

    /// An observer that parks its job until `release` flips — used to hold
    /// a pool worker deterministically. Observer requests are uncacheable,
    /// so they never coalesce with each other.
    fn parked(
        release: &Arc<std::sync::atomic::AtomicBool>,
    ) -> impl Fn(&IterationEvent) -> IterationDecision + Send + Sync + 'static {
        let release = Arc::clone(release);
        move |_| {
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            IterationDecision::Continue
        }
    }

    #[test]
    fn try_submit_sheds_load_with_overloaded_while_submit_would_queue() {
        let service = SirumService::builder()
            .pool_workers(1)
            .queue_capacity(1)
            .build()
            .unwrap();
        service.register_demo("flights").unwrap();
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Occupy the single worker, then wait until the job has observably
        // left the queue (its first act is decrementing `queue_depth`).
        let running = service
            .mine("flights")
            .k(1)
            .sample_size(14)
            .on_iteration(parked(&release))
            .submit()
            .unwrap();
        while service.stats().queue_depth > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Fill the single queue slot behind the parked worker.
        let queued = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .on_iteration(parked(&release))
            .try_submit()
            .unwrap();
        // Queue is full: the next non-blocking admission must shed.
        match service
            .mine("flights")
            .k(3)
            .sample_size(14)
            .on_iteration(parked(&release))
            .try_submit()
        {
            Err(SirumError::Overloaded { queue_capacity }) => assert_eq!(queue_capacity, 1),
            other => panic!("expected Overloaded, got {:?}", other.map(|h| h.id())),
        }
        let stats = service.stats();
        assert!(stats.jobs_rejected >= 1);
        assert_eq!(stats.queue_depth, 1, "one job still queued");
        assert!(!stats.active_jobs.is_empty());
        release.store(true, Ordering::SeqCst);
        running.wait().unwrap();
        queued.wait().unwrap();
    }

    #[test]
    fn zero_deadline_cancels_before_the_first_iteration() {
        let service = flights_service();
        let expired = || {
            service
                .mine("flights")
                .k(3)
                .sample_size(14)
                .deadline(Duration::ZERO)
        };
        let submitted = expired().submit().unwrap().wait().unwrap().result;
        let ran = expired().run().unwrap().result;
        let sampled = expired().run_on_sample(0.5).unwrap().result;
        for (door, result) in [
            ("submit", &*submitted),
            ("run", &*ran),
            ("run_on_sample", &sampled),
        ] {
            assert!(
                result.cancelled,
                "{door}: expired deadline → partial result"
            );
            assert_eq!(result.rules.len(), 1, "{door}: seed rule only");
        }
        // Sampled runs bypass the job accounting.
        assert_eq!(service.stats().jobs_cancelled, 2);
        // A generous deadline does not perturb the run — and, crucially,
        // does not split the cache key: the identical request without a
        // deadline seeds the cache for the deadline-carrying one.
        let full = service.mine("flights").k(2).sample_size(14).run().unwrap();
        assert!(!full.result.cancelled);
        let patient = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .deadline(Duration::from_secs(3600))
            .submit()
            .unwrap()
            .wait()
            .unwrap();
        assert!(patient.from_cache, "deadline must not split the cache key");
        assert!(Arc::ptr_eq(&full.result, &patient.result));
    }

    #[test]
    fn wait_timeout_times_out_then_delivers_exactly_once() {
        let service = SirumService::builder().pool_workers(1).build().unwrap();
        service.register_demo("flights").unwrap();
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handle = service
            .mine("flights")
            .k(1)
            .sample_size(14)
            .on_iteration(parked(&release))
            .submit()
            .unwrap();
        assert!(
            handle.wait_timeout(Duration::from_millis(20)).is_none(),
            "parked job must time out"
        );
        release.store(true, Ordering::SeqCst);
        let out = handle
            .wait_timeout(Duration::from_secs(30))
            .expect("released job finishes well within the window")
            .unwrap();
        assert_eq!(out.result.rules.len(), 2);
        // Delivered exactly once, like try_poll.
        assert!(handle.try_poll().is_none());
    }

    #[test]
    fn job_registry_reports_status_output_and_cancellation() {
        let service = flights_service();
        let handle = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .submit()
            .unwrap();
        let id = handle.id();
        assert!(id >= 1);
        assert!(service.job_ids().contains(&id));
        // Out-of-band wait + repeatable peeks.
        let out = service
            .wait_job(id, Duration::from_secs(30))
            .expect("job finishes")
            .unwrap();
        assert_eq!(out.result.rules.len(), 3);
        let again = service.job_output(id).expect("still peekable").unwrap();
        assert!(Arc::ptr_eq(&out.result, &again.result));
        let status = service.job_status(id).unwrap();
        assert_eq!(status.table, "flights");
        assert_eq!(
            status.state,
            JobState::Done {
                from_cache: false,
                cancelled: false
            }
        );
        assert!(!status.cancel_requested);
        // The handle's own consuming wait still works after peeks…
        let owned = handle.wait().unwrap();
        assert!(Arc::ptr_eq(&owned.result, &out.result));
        // …after which the registry reports the slot as consumed.
        assert_eq!(service.job_status(id).unwrap().state, JobState::Consumed);
        assert!(matches!(
            service.job_output(id),
            Some(Err(SirumError::Service { .. }))
        ));
        // Unknown ids are distinguishable.
        assert!(service.job_status(id + 999).is_none());
        assert!(!service.cancel_job(id + 999));
        assert!(
            service.cancel_job(id),
            "known id is cancellable (no-op: done)"
        );
        // The registry records executions, not answers: the same request
        // again is a cache hit — a finished handle with a fresh id the
        // registry never saw.
        let hit = service
            .mine("flights")
            .k(2)
            .sample_size(14)
            .submit()
            .unwrap();
        assert!(hit.id() > id && hit.is_finished());
        assert!(service.job_status(hit.id()).is_none());
        assert_eq!(service.job_ids(), [id]);
        assert!(hit.wait().unwrap().from_cache);
    }

    #[test]
    fn job_registry_evicts_finished_records_oldest_first() {
        let service = SirumService::builder()
            .job_registry_capacity(2)
            .build()
            .unwrap();
        service.register_demo("flights").unwrap();
        let mut ids = Vec::new();
        for k in 1..=3 {
            let handle = service
                .mine("flights")
                .k(k)
                .sample_size(14)
                .submit()
                .unwrap();
            ids.push(handle.id());
            handle.wait().unwrap();
        }
        let remembered = service.job_ids();
        assert_eq!(remembered.len(), 2);
        assert!(!remembered.contains(&ids[0]), "oldest finished evicted");
        assert!(remembered.contains(&ids[2]));
    }

    #[test]
    fn stats_expose_queue_depth_active_jobs_and_latency() {
        let service = flights_service();
        let before = service.stats();
        assert_eq!(before.job_latency.count, 0);
        assert!(before.active_jobs.is_empty());
        let _ = service.mine("flights").k(2).sample_size(14).run().unwrap();
        let after = service.stats();
        assert_eq!(after.job_latency.count, 1);
        assert!(after.job_latency.max_nanos > 0);
        assert_eq!(after.queue_depth, 0);
    }

    #[test]
    fn unregister_keeps_shared_handles_alive() {
        let service = flights_service();
        let table = service.table("flights").unwrap();
        let removed = service.unregister("flights").unwrap();
        assert!(Arc::ptr_eq(&table, &removed));
        assert!(service.table("flights").is_err());
        assert_eq!(table.num_rows(), 14, "existing Arcs still usable");
    }
}
