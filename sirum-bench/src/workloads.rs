//! The five workloads: their frozen sizes, the set-up that stands the
//! system up, and the closed-loop clients that drive it.
//!
//! Every workload stands the whole system up — a `SirumService` with the
//! shipped defaults behind a `Server` on a loopback socket. Four of them
//! are plain closed loops of real (cache-miss) mines and differ in the
//! table, the shape of the request and the entry point; `serve_mix` is the
//! operator's traffic, where real mines are rare.

use crate::check::Mined;
use crate::stats::Samples;
use sirum::dataflow::EngineConfig;
use sirum::json::JsonValue;
use sirum::prelude::*;
use sirum::table::csv::{read_csv, write_csv};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub enum TableKind {
    Tlc,
    /// `susy_like` projected to this many dimensions.
    SusyWide(usize),
    Income,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One connection, one real mine after another and nothing else.
    Mines,
    /// Two connections, each drawing every op from [`SERVE_PER_MILLE`]:
    /// the operator's traffic, where real mines are rare.
    Serve,
}

/// What each 1 000 ops of a [`Mix::Serve`] connection hold: the real
/// mines and the uploads at fixed places (so their counts do not vary
/// from run to run), the rest drawn in these shares.
pub const SERVE_PER_MILLE: PerMille = PerMille {
    hits: 600,
    reads: 250,
    streams: 147,
    colds: 1,
    uploads: 2,
};

pub struct PerMille {
    pub hits: u64,
    pub reads: u64,
    pub streams: u64,
    pub colds: u64,
    pub uploads: u64,
}

/// Distinct cached request bodies a `Serve` connection draws its hits
/// from; half the 64-entry result cache, so the rare real mines churn the
/// LRU without evicting them.
pub const SERVE_HOT_BODIES: usize = 32;
/// Rows of the CSV body `POST /tables/scratch` uploads.
pub const UPLOAD_ROWS: usize = 4_000;
/// `mine_more` rides on every 50th stream op until the stream holds this
/// many rules, so ingest cost is stationary over the window (and the
/// stream never reaches the rule-capacity error).
const STREAM_RULE_CAP: u64 = 16;

/// Frozen sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub table: TableKind,
    pub rows: usize,
    /// Write the generated table as CSV and read it back during set-up,
    /// so set-up time is the ingest path.
    pub csv_round_trip: bool,
    pub budget_mb: Option<usize>,
    pub variant: Option<Variant>,
    pub k: usize,
    pub sample_size: usize,
    /// Real mines go through `POST /mine`; otherwise through
    /// `service.mine(..).run()`, the embedded entry point.
    pub cold_over_wire: bool,
    pub mix: Mix,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "cold_sweep",
        table: TableKind::Tlc,
        rows: 256_000,
        csv_round_trip: false,
        budget_mb: None,
        variant: None,
        k: 3,
        sample_size: 16,
        cold_over_wire: true,
        mix: Mix::Mines,
    },
    Spec {
        name: "wide_expand",
        table: TableKind::SusyWide(12),
        rows: 2_000,
        csv_round_trip: false,
        budget_mb: None,
        variant: None,
        k: 4,
        sample_size: 32,
        cold_over_wire: false,
        mix: Mix::Mines,
    },
    Spec {
        name: "staged_baseline",
        table: TableKind::Income,
        rows: 8_000,
        csv_round_trip: false,
        budget_mb: None,
        variant: Some(Variant::Baseline),
        k: 5,
        sample_size: 32,
        cold_over_wire: false,
        mix: Mix::Mines,
    },
    Spec {
        name: "serve_mix",
        table: TableKind::Income,
        rows: 4_000,
        csv_round_trip: false,
        budget_mb: None,
        variant: None,
        k: 2,
        sample_size: 16,
        // Not over the wire: see the README on the job-registry defect.
        cold_over_wire: false,
        mix: Mix::Serve,
    },
    Spec {
        name: "budget_spill",
        table: TableKind::Tlc,
        rows: 256_000,
        csv_round_trip: true,
        budget_mb: Some(10),
        variant: None,
        k: 3,
        sample_size: 16,
        cold_over_wire: false,
        mix: Mix::Mines,
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at `1/divisor` of its rows (and a quarter of its
    /// sample), for the smoke run.
    pub fn scaled(mut self, divisor: usize) -> Spec {
        if divisor > 1 {
            self.rows = (self.rows / divisor).max(200);
            self.sample_size = (self.sample_size / 4).max(4);
            if let TableKind::SusyWide(d) = self.table {
                self.table = TableKind::SusyWide(d.min(8));
            }
        }
        self
    }

    pub fn connections(&self) -> usize {
        match self.mix {
            Mix::Mines => 1,
            Mix::Serve => 2,
        }
    }

    fn generate(&self, seed: u64) -> Table {
        match self.table {
            TableKind::Tlc => generators::tlc_like(self.rows, seed),
            TableKind::SusyWide(d) => generators::susy_like(self.rows, seed).project(d),
            TableKind::Income => generators::income_like(self.rows, seed),
        }
    }

    /// The `POST /mine` body of this workload's request with `seed`; the
    /// in-process request below sets the same fields, so both resolve to
    /// one cache key.
    pub fn mine_body(&self, seed: u64) -> String {
        let variant = self
            .variant
            .map_or(String::new(), |v| format!(",\"variant\":\"{v}\""));
        format!(
            "{{\"table\":\"main\",\"k\":{},\"sample_size\":{},\"seed\":{seed}{variant}}}",
            self.k, self.sample_size
        )
    }

    pub fn mine_request<'s>(&self, service: &'s SirumService, seed: u64) -> ServiceRequest<'s> {
        let request = service
            .mine("main")
            .k(self.k)
            .sample_size(self.sample_size)
            .seed(seed);
        match self.variant {
            Some(v) => request.variant(v),
            None => request,
        }
    }

    /// The configuration the service derives for [`Self::mine_request`],
    /// for the traced pass's direct `Miner` run.
    pub fn miner_config(&self, rows: usize, seed: u64) -> SirumConfig {
        let sample_size = self.sample_size.min(rows);
        let mut config = match self.variant {
            Some(v) => v.config(self.k, sample_size),
            None => SirumConfig {
                k: self.k,
                strategy: CandidateStrategy::SampleLca { sample_size },
                ..SirumConfig::default()
            },
        };
        config.seed = seed;
        config
    }
}

/// Request seeds are offsets from one base derived from `--seed`, in
/// disjoint ranges so no two real mines of a run share a cache key.
pub struct Seeds(u64);

impl Seeds {
    pub fn new(seed: u64) -> Seeds {
        Seeds(seed.wrapping_mul(7_919) % (1 << 40))
    }
    /// Seeds of the bodies set-up puts in the cache; the first is the
    /// discarded warm-up mine.
    pub fn hot(&self, i: usize) -> u64 {
        self.0 + i as u64
    }
    pub fn cold(&self, connection: usize, i: u64) -> u64 {
        self.0 + 1_000 + connection as u64 * 100_000_000 + i
    }
    pub fn traced(&self, i: u64) -> u64 {
        self.0 + 1_000_000_000 + i
    }
}

/// The system under test, stood up and warm.
pub struct System {
    pub spec: Spec,
    pub seeds: Seeds,
    pub service: SirumService,
    pub server: Server,
    pub addr: SocketAddr,
    pub main: Arc<Table>,
    flights_cards: Vec<u64>,
    upload_csv: Vec<u8>,
    upload_rows: usize,
    /// Bodies already in the result cache when the window opens.
    pub hot: Vec<String>,
    /// The process's `VmHWM` once `main` was ingested and registered,
    /// before the first mine.
    pub ingest_rss_mb: f64,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl System {
    /// Everything before the timed window: generate the inputs from the
    /// seed, (CSV round trip,) register, bind the server, and run one
    /// discarded op of every class the window holds (filling the cache
    /// with the hot bodies where it holds hits).
    pub fn set_up(spec: Spec, seed: u64, out_dir: &Path) -> Result<System, String> {
        let mut main = spec.generate(seed);
        if spec.csv_round_trip {
            let mut bytes = Vec::new();
            write_csv(&main, &mut bytes).map_err(err("write_csv"))?;
            drop(main); // only the bytes cross the round trip
            main = read_csv(bytes.as_slice()).map_err(err("read_csv"))?;
        }
        // Only the spill directory departs from the shipped defaults: it
        // must lie inside the checkout.
        let engine = EngineConfig::in_memory().with_spill_dir(out_dir.join("spill"));
        let mut builder = SirumService::builder().engine_config(engine);
        if let Some(mb) = spec.budget_mb {
            builder = builder.memory_budget(mb << 20);
        }
        let service = builder.build().map_err(err("build service"))?;
        let main = service
            .register("main", main)
            .map_err(err("register main"))?;
        let ingest_rss_mb = crate::host::peak_rss_mb();
        let flights = service
            .register_demo("flights")
            .map_err(err("register flights"))?;
        let router = Router::new(
            service.clone(),
            Arc::new(NetMetrics::new()),
            RouterConfig::default(),
        );
        let server = Server::bind("127.0.0.1:0", router, ServerConfig::default())
            .map_err(err("bind server"))?;
        let upload_rows = UPLOAD_ROWS.min(spec.rows);
        let mut upload_csv = Vec::new();
        write_csv(
            &generators::income_like(upload_rows, seed ^ 0x5eed),
            &mut upload_csv,
        )
        .map_err(err("write upload csv"))?;

        let seeds = Seeds::new(seed);
        let hot_bodies = match spec.mix {
            Mix::Mines => 1,
            Mix::Serve => SERVE_HOT_BODIES,
        };
        let system = System {
            spec,
            hot: (0..hot_bodies)
                .map(|i| spec.mine_body(seeds.hot(i)))
                .collect(),
            seeds,
            addr: server.local_addr(),
            service,
            server,
            main,
            flights_cards: (0..flights.num_dims())
                .map(|c| flights.dict(c).cardinality() as u64)
                .collect(),
            upload_csv,
            upload_rows,
            ingest_rss_mb,
        };
        let mut warm = Client::new(&system, 0);
        warm.cold(system.seeds.hot(0));
        if spec.mix == Mix::Serve {
            for body in &system.hot[1..] {
                warm.wire_mine(body, false, Class::Cold);
            }
            warm.hit();
            warm.read();
            warm.stream();
            warm.upload();
        }
        if warm.tally.failed > 0 {
            return Err(format!(
                "warm-up failed: {}",
                warm.tally.failures.join("; ")
            ));
        }
        Ok(system)
    }

    /// Stop the server (clients must be gone) and remove spill files.
    pub fn tear_down(self) {
        self.server.shutdown();
        self.service.engine().store().cleanup();
    }

    /// Drive the system for `window` with the workload's connections and
    /// return the merged tally and the window's wall time.
    pub fn run_window(&self, window: Duration) -> (Tally, Duration) {
        let before = self.service.stats();
        let started = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.spec.connections())
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = Client::new(self, c);
                        client.drive(started, window);
                        client.tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = started.elapsed();
        let after = self.service.stats();
        let mut merged = Tally {
            counters: Counters {
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                jobs_executed: after.jobs_executed - before.jobs_executed,
                jobs_coalesced: after.jobs_coalesced - before.jobs_coalesced,
                jobs_rejected: after.jobs_rejected - before.jobs_rejected,
            },
            ..Tally::default()
        };
        for t in tallies {
            merged.merge(t);
        }
        (merged, wall)
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Class {
    Cold,
    Hit,
    Read,
    Stream,
    Upload,
}

/// How far the service's counters moved over the windows of a tally.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub jobs_executed: u64,
    pub jobs_coalesced: u64,
    pub jobs_rejected: u64,
}

/// Exact latency samples per op class plus the failure count.
#[derive(Debug, Default)]
pub struct Tally {
    pub cold: Samples,
    pub hit: Samples,
    pub read: Samples,
    pub stream: Samples,
    pub upload: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the operator.
    pub failures: Vec<String>,
    /// Largest `queue_depth` any `/stats` read saw.
    pub queue_depth_max: u64,
    pub counters: Counters,
}

impl Tally {
    fn samples(&mut self, class: Class) -> &mut Samples {
        match class {
            Class::Cold => &mut self.cold,
            Class::Hit => &mut self.hit,
            Class::Read => &mut self.read,
            Class::Stream => &mut self.stream,
            Class::Upload => &mut self.upload,
        }
    }

    /// Count one op: a latency sample when it passed its checks, a failure
    /// otherwise (non-2xx, `429`, transport error or a failed check alike).
    pub fn record(&mut self, class: Class, latency: Duration, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.samples(class).push(latency.as_nanos() as u64),
            Err(reason) => self.fail(format!("{class:?}: {reason}")),
        }
    }

    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(reason);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.cold.extend(other.cold);
        self.hit.extend(other.hit);
        self.read.extend(other.read);
        self.stream.extend(other.stream);
        self.upload.extend(other.upload);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.counters.cache_hits += other.counters.cache_hits;
        self.counters.cache_misses += other.counters.cache_misses;
        self.counters.jobs_executed += other.counters.jobs_executed;
        self.counters.jobs_coalesced += other.counters.jobs_coalesced;
        self.counters.jobs_rejected += other.counters.jobs_rejected;
    }
}

/// Per-connection xorshift, so the op sequence is a function of the seed.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One closed-loop connection: the next request is sent only after the
/// previous one was answered and checked.
pub struct Client<'a> {
    system: &'a System,
    connection: usize,
    http: HttpClient,
    rng: Xorshift,
    colds: u64,
    reads: usize,
    /// The read rotation: `/stats`, `/metrics` and the workload's `/explain`.
    read_paths: [String; 3],
    streams: u64,
    stream_rules: u64,
    pub tally: Tally,
}

fn parse_ok(response: std::io::Result<ClientResponse>) -> Result<JsonValue, String> {
    let response = response.map_err(err("transport"))?;
    if response.status != 200 {
        return Err(format!("status {}: {}", response.status, response.text()));
    }
    response.json().map_err(err("response body"))
}

impl<'a> Client<'a> {
    pub fn new(system: &'a System, connection: usize) -> Client<'a> {
        Client {
            system,
            connection,
            http: HttpClient::new(system.addr),
            // Odd (never the all-zero fixed point) and distinct per connection.
            rng: Xorshift(
                (system.seeds.hot(0) ^ 0x9e37_79b9_7f4a_7c15).wrapping_add(connection as u64) << 1
                    | 1,
            ),
            colds: 0,
            reads: 0,
            read_paths: [
                "/stats".to_string(),
                "/metrics".to_string(),
                format!(
                    "/explain?table=main&k={}&sample_size={}",
                    system.spec.k, system.spec.sample_size
                ),
            ],
            streams: 0,
            stream_rules: 0,
            tally: Tally::default(),
        }
    }

    fn drive(&mut self, started: Instant, window: Duration) {
        let open = || started.elapsed() < window;
        match self.system.spec.mix {
            Mix::Mines => {
                while open() {
                    self.next_cold();
                }
            }
            Mix::Serve => {
                let mix = &SERVE_PER_MILLE;
                let cheap = mix.hits + mix.reads + mix.streams;
                let mut op = 0_u64;
                while open() {
                    op += 1;
                    if op % (1_000 / mix.colds) == 500 {
                        self.next_cold();
                    } else if op % (1_000 / mix.uploads) == 250 {
                        self.upload();
                    } else {
                        let draw = self.rng.next() % cheap;
                        if draw < mix.hits {
                            self.hit();
                        } else if draw < mix.hits + mix.reads {
                            self.read();
                        } else {
                            self.stream();
                        }
                    }
                }
            }
        }
    }

    fn next_cold(&mut self) {
        let seed = self.system.seeds.cold(self.connection, self.colds);
        self.colds += 1;
        self.cold(seed);
    }

    /// One real (cache-miss) mine through the workload's entry point.
    /// Returns its latency and what it mined when it passed the checks.
    pub fn cold(&mut self, seed: u64) -> Option<(Duration, Mined)> {
        let spec = self.system.spec;
        if spec.cold_over_wire {
            self.wire_mine(&spec.mine_body(seed), false, Class::Cold)
        } else {
            let t0 = Instant::now();
            let run = spec.mine_request(&self.system.service, seed).run();
            let latency = t0.elapsed();
            let mined = run
                .map_err(err("run"))
                .map(|output| Mined::from_result(&output.result, output.from_cache))
                .and_then(|m| m.check(spec.k, false).map(|()| m));
            self.tally.record(
                Class::Cold,
                latency,
                mined.as_ref().map(|_| ()).map_err(String::clone),
            );
            mined.ok().map(|m| (latency, m))
        }
    }

    /// `POST /mine` with `body`, checked against the workload's `k` and
    /// against whether the cache should have answered.
    pub fn wire_mine(
        &mut self,
        body: &str,
        expect_cached: bool,
        class: Class,
    ) -> Option<(Duration, Mined)> {
        let t0 = Instant::now();
        let response = self.http.post_json("/mine", body);
        let latency = t0.elapsed();
        let mined = parse_ok(response)
            .and_then(|job| Mined::from_wire(&job))
            .and_then(|m| m.check(self.system.spec.k, expect_cached).map(|()| m));
        self.tally.record(
            class,
            latency,
            mined.as_ref().map(|_| ()).map_err(String::clone),
        );
        mined.ok().map(|m| (latency, m))
    }

    /// `POST /mine` with a body the cache holds.
    pub fn hit(&mut self) {
        let system = self.system;
        let body = &system.hot[self.rng.next() as usize % system.hot.len()];
        self.wire_mine(body, true, Class::Hit);
    }

    /// The next of the three read endpoints, in rotation. (Three, so the
    /// median falls inside the middle endpoint's latencies and not on the
    /// edge between two endpoints'.)
    pub fn read(&mut self) {
        let path = &self.read_paths[self.reads % 3];
        self.reads += 1;
        let t0 = Instant::now();
        let response = self.http.get(path);
        let latency = t0.elapsed();
        let tally = &mut self.tally;
        let outcome = parse_ok(response).and_then(|body| {
            if body.entries().is_none() {
                return Err(format!("{path} did not answer a JSON object"));
            }
            if let Some(depth) = body.get("queue_depth").and_then(JsonValue::as_u64) {
                tally.queue_depth_max = tally.queue_depth_max.max(depth);
            }
            Ok(())
        });
        self.tally.record(Class::Read, latency, outcome);
    }

    /// Ingest one row into the `flights` stream — the write path.
    pub fn stream(&mut self) {
        let system = self.system;
        let codes: Vec<String> = system
            .flights_cards
            .iter()
            .map(|&card| (self.rng.next() % card).to_string())
            .collect();
        let measure = (self.rng.next() % 50) as f64 / 10.0;
        self.streams += 1;
        let mine_more = if self.streams.is_multiple_of(50) && self.stream_rules < STREAM_RULE_CAP {
            ",\"mine_more\":1"
        } else {
            ""
        };
        let body = format!(
            "{{\"rows\":[{{\"codes\":[{}],\"measure\":{measure}}}]{mine_more}}}",
            codes.join(",")
        );
        let t0 = Instant::now();
        let response = self.http.post_json("/stream/flights", &body);
        let latency = t0.elapsed();
        let outcome = parse_ok(response).and_then(|body| {
            self.stream_rules = body
                .get("rules")
                .and_then(JsonValue::as_u64)
                .ok_or("stream answer carries no rule count")?;
            Ok(())
        });
        self.tally.record(Class::Stream, latency, outcome);
    }

    /// Replace the `scratch` table with a CSV body: parse, prepare and a
    /// catalog write beside the readers.
    pub fn upload(&mut self) {
        let t0 = Instant::now();
        let response = self
            .http
            .post("/tables/scratch", &self.system.upload_csv, "text/csv");
        let latency = t0.elapsed();
        let rows = self.system.upload_rows as u64;
        let outcome = parse_ok(response).and_then(|body| {
            match body.get("rows").and_then(JsonValue::as_u64) {
                Some(n) if n == rows => Ok(()),
                other => Err(format!("uploaded {rows} rows, server registered {other:?}")),
            }
        });
        self.tally.record(Class::Upload, latency, outcome);
    }
}
