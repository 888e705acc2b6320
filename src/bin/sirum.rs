//! `sirum` — command-line informative rule mining on the service API.
//!
//! Reads a CSV file whose last column is a numeric measure and whose other
//! columns are categorical dimensions, mines `k` informative rules, and
//! prints them as a table (or JSON).
//!
//! ```sh
//! sirum data.csv --k 10 --sample-size 64 --variant optimized
//! sirum data.csv --k 5 --engine single-thread --rules-per-iter 2
//! sirum --demo flights --k 3              # built-in demo datasets
//! sirum --demo tlc --target-kl 0.05 --progress
//! sirum --demo income --repeat 8 --jobs 4 # exercise the worker pool + cache
//! sirum --demo flights --k 3 --format json
//! sirum --demo gdelt --explain            # plan, no run
//! sirum serve --demo flights              # HTTP front end on 127.0.0.1:7878
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (unreadable/malformed data,
//! engine trouble), `2` usage error (unknown flags, unparsable values).

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use sirum::prelude::*;
use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("unknown format {other:?} (expected text or json)")),
        }
    }
}

struct Args {
    input: Option<String>,
    demo: Option<String>,
    engine: EngineMode,
    partitions: usize,
    /// Mining-field flags in order: `(--flag, value text)`.
    fields: Vec<(String, String)>,
    /// `--seed`, which seeds the demo generator as well as the request.
    seed: u64,
    progress: bool,
    jobs: usize,
    repeat: usize,
    format: OutputFormat,
    explain: bool,
}

const USAGE: &str = "\
sirum — scalable informative rule mining

USAGE:
  sirum <input.csv> [OPTIONS]
  sirum --demo <flights|income|gdelt|susy|tlc|dirty> [OPTIONS]

The CSV's last column must be numeric (the measure); all other columns are
treated as categorical dimension attributes. The first line is the header.

MINING FIELDS (the fields POST /mine and GET /explain take; each value is
read as a GET /explain query value is, booleans as true|false):
  --k <N>            rules to mine beyond (*, …, *)      [default: 10]
  --sample-size <N>  candidate-pruning sample size |s|   [default: 64]
  --variant <V>      naive|baseline|rct|fast-pruning|fast-ancestor|
                     multi-rule|optimized; without it, the fused gain
                     sweep with one rule per iteration
  --full-cube <B>    every supported rule is a candidate
  --two-sided <B>    also surface unusually LOW-measure regions
  --epsilon <F>      iterative-scaling tolerance         [default: 0.01]
  --max-scaling-iterations <N>  λ-update cap per scaling run
  --seed <N>         sampling seed, and the demo data's  [default: 42]
  --rules-per-iter <N>  disjoint rules inserted per iteration
  --target-kl <F>    keep mining until KL reaches this target
  --max-rules <N>    cap on mined rules under --target-kl
  --column-groups <N>   ancestor stages of a staged variant
  --prior <JSON>     prior rules, e.g. [[0,null,null]]

OPTIONS:
  --engine <E>       in-memory|disk-mr|single-thread     [default: in-memory]
  --partitions <N>   dataset partitions                  [default: 16]
  --jobs <N>         worker-pool size for --repeat       [default: 2]
  --repeat <N>       submit the request N times through the service's
                     worker pool and report cache behavior
  --format <F>       text|json result output             [default: text]
  --explain          print the plan (normalized configuration and the
                     decisions a run would take) instead of mining
  --progress         report each mining iteration on stderr
                     (incompatible with --repeat: observers disable caching)
  --help             print this help

SERVING:
  sirum serve [OPTIONS] [input.csv ...]

  Start the wire front end: a dependency-free HTTP/1.1 + JSON server over
  the same service API. Endpoints: POST /tables/{name} (CSV body),
  GET /tables, POST /mine, GET|DELETE /jobs/{id}, GET /explain,
  POST /stream/{table}, GET /metrics, GET /stats, GET /health.

  --addr <A>         listen address                      [default: 127.0.0.1:7878]
  --demo <NAME>      pre-register a demo table (repeatable)
  --jobs <N>         mining worker threads               [default: 4]
  --queue <N>        job queue depth before /mine sheds
                     load with 429 + Retry-After         [default: 64]
  --max-connections <N>  concurrent connections before new
                     accepts get 503                     [default: 64]
  --read-timeout <SECS>  per-socket read timeout (slow-loris
                     guard)                              [default: 10]
  --engine / --partitions / --seed    as in mining mode
";

/// Print a usage error and exit with status 2.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    exit(2);
}

/// Parse `raw` as the value of `flag`, exiting with a friendly usage
/// message instead of panicking when it does not parse.
fn parse_value<T: FromStr>(flag: &str, raw: &str) -> T
where
    T::Err: Display,
{
    match raw.parse() {
        Ok(value) => value,
        Err(e) => usage_error(format!("{flag} {raw:?}: {e}")),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        input: None,
        demo: None,
        engine: EngineMode::InMemory,
        partitions: 16,
        fields: Vec::new(),
        seed: 42,
        progress: false,
        jobs: 2,
        repeat: 1,
        format: OutputFormat::Text,
        explain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v,
                None => usage_error(format!("missing value for {name}")),
            }
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--demo" => args.demo = Some(value("--demo")),
            "--engine" => args.engine = parse_value("--engine", &value("--engine")),
            "--progress" => args.progress = true,
            "--explain" => args.explain = true,
            "--partitions" => {
                args.partitions = parse_value("--partitions", &value("--partitions"));
            }
            "--jobs" => args.jobs = parse_value("--jobs", &value("--jobs")),
            "--repeat" => args.repeat = parse_value("--repeat", &value("--repeat")),
            "--format" => args.format = parse_value("--format", &value("--format")),
            other if !other.starts_with('-') && args.input.is_none() => {
                args.input = Some(other.to_string());
            }
            other if other.starts_with("--") => {
                let text = value(other);
                if other == "--seed" {
                    args.seed = parse_value(other, &text);
                }
                args.fields.push((other.to_string(), text));
            }
            other => usage_error(format!("unexpected argument {other:?}")),
        }
    }
    if args.jobs == 0 {
        usage_error("--jobs must be ≥ 1");
    }
    if args.repeat == 0 {
        usage_error("--repeat must be ≥ 1");
    }
    if args.progress && args.repeat > 1 {
        // Progress observers disable result caching, which is the very
        // thing --repeat demonstrates; combining them would silently
        // change what --repeat measures.
        usage_error("--progress cannot be combined with --repeat");
    }
    args
}

/// The name the mined table registers under: the demo's, or the CSV path.
fn table_name(args: &Args) -> &str {
    match (&args.demo, &args.input) {
        (Some(demo), _) => demo,
        (None, Some(path)) => path,
        (None, None) => {
            eprint!("{USAGE}");
            exit(2);
        }
    }
}

/// Register the requested dataset in the service under `name`.
fn load_table(service: &SirumService, name: &str, args: &Args) -> Result<(), SirumError> {
    if args.demo.is_some() {
        service.register_demo_with(name, None, args.seed)?;
        return Ok(());
    }
    let file = std::fs::File::open(name).map_err(|e| SirumError::Table(TableError::Io(e)))?;
    service.register_csv(name, std::io::BufReader::new(file))?;
    Ok(())
}

/// The request the mining-field flags describe, each set through the
/// service's one field table; a flag it does not take is a usage error,
/// returned as its message.
fn request<'s>(
    service: &'s SirumService,
    name: &str,
    args: &Args,
) -> Result<ServiceRequest<'s>, String> {
    let mut request = service.mine(name);
    for (flag, text) in &args.fields {
        let field = flag.trim_start_matches('-').replace('-', "_");
        request = request.set_text(&field, text).map_err(|e| match e {
            FieldError::Unknown => format!("unexpected argument {flag:?}"),
            FieldError::Invalid(why) => format!("{flag} {text:?}: {why}"),
        })?;
    }
    Ok(request)
}

fn print_text(result: &MiningResult, table: &Table) {
    println!(
        "\n{:>4}  {:<60} {:>12} {:>10} {:>10}",
        "id",
        format!("rule ({})", table.schema().dim_names().join(", ")),
        "AVG(m)",
        "count",
        "gain"
    );
    for (i, r) in result.rules.iter().enumerate() {
        println!(
            "{:>4}  {:<60} {:>12.4} {:>10} {:>10.3}",
            i + 1,
            r.rule.display(table),
            r.avg_measure,
            r.count,
            r.gain
        );
    }
    println!(
        "\nKL divergence {:.6} → {:.6} (information gain {:.6})",
        result.kl_trace[0],
        result.final_kl(),
        result.information_gain()
    );
    if result.timings.gain_sweep > 0.0 {
        println!(
            "timings: rule generation {:.2}s (fused gain sweep {:.2}s, selection {:.2}s), scaling {:.2}s, total {:.2}s",
            result.timings.rule_generation(),
            result.timings.gain_sweep,
            result.timings.gain_computation,
            result.timings.iterative_scaling,
            result.timings.total
        );
    } else {
        println!(
            "timings: rule generation {:.2}s (pruning {:.2}s, ancestors {:.2}s, gain {:.2}s), scaling {:.2}s, total {:.2}s",
            result.timings.rule_generation(),
            result.timings.candidate_pruning,
            result.timings.ancestor_generation,
            result.timings.gain_computation,
            result.timings.iterative_scaling,
            result.timings.total
        );
    }
}

struct ServeArgs {
    addr: String,
    demos: Vec<String>,
    inputs: Vec<String>,
    jobs: usize,
    queue: usize,
    max_connections: usize,
    read_timeout_secs: u64,
    engine: EngineMode,
    partitions: usize,
    seed: u64,
}

fn parse_serve_args(it: impl Iterator<Item = String>) -> ServeArgs {
    let mut args = ServeArgs {
        addr: "127.0.0.1:7878".to_string(),
        demos: Vec::new(),
        inputs: Vec::new(),
        jobs: 4,
        queue: 64,
        max_connections: 64,
        read_timeout_secs: 10,
        engine: EngineMode::InMemory,
        partitions: 16,
        seed: 42,
    };
    let mut it = it;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v,
                None => usage_error(format!("missing value for {name}")),
            }
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--addr" => args.addr = value("--addr"),
            "--demo" => args.demos.push(value("--demo")),
            "--jobs" => args.jobs = parse_value("--jobs", &value("--jobs")),
            "--queue" => args.queue = parse_value("--queue", &value("--queue")),
            "--max-connections" => {
                args.max_connections =
                    parse_value("--max-connections", &value("--max-connections"));
            }
            "--read-timeout" => {
                args.read_timeout_secs = parse_value("--read-timeout", &value("--read-timeout"));
            }
            "--engine" => args.engine = parse_value("--engine", &value("--engine")),
            "--partitions" => {
                args.partitions = parse_value("--partitions", &value("--partitions"));
            }
            "--seed" => args.seed = parse_value("--seed", &value("--seed")),
            other if !other.starts_with('-') => args.inputs.push(other.to_string()),
            other => usage_error(format!("unexpected argument {other:?}")),
        }
    }
    if args.jobs == 0 {
        usage_error("--jobs must be ≥ 1");
    }
    if args.read_timeout_secs == 0 {
        usage_error("--read-timeout must be ≥ 1 second");
    }
    args
}

/// `sirum serve`: register the requested tables, bind the HTTP front end,
/// and serve until the process is killed.
fn run_serve(args: &ServeArgs) -> Result<(), SirumError> {
    let service = SirumService::builder()
        .mode(args.engine)
        .partitions(args.partitions)
        .pool_workers(args.jobs)
        .queue_capacity(args.queue)
        .build()?;
    for demo in &args.demos {
        service.register_demo_with(demo, None, args.seed)?;
    }
    for path in &args.inputs {
        let file = std::fs::File::open(path).map_err(|e| SirumError::Table(TableError::Io(e)))?;
        service.register_csv(path.clone(), std::io::BufReader::new(file))?;
    }
    let tables = service.table_names();
    let router = Router::new(
        service,
        std::sync::Arc::new(NetMetrics::new()),
        RouterConfig::default(),
    );
    let config = ServerConfig {
        max_connections: args.max_connections,
        read_timeout: std::time::Duration::from_secs(args.read_timeout_secs),
        ..ServerConfig::default()
    };
    let server = Server::bind(args.addr.as_str(), router, config)
        .map_err(|e| SirumError::service(format!("cannot bind {}: {e}", args.addr)))?;
    eprintln!(
        "sirum serving on http://{} — tables: [{}]; try GET /health, POST /mine",
        server.local_addr(),
        tables.join(", "),
    );
    // Serve until killed; the accept loop runs on its own thread and the
    // Server's Drop handles draining if this ever unparks.
    loop {
        std::thread::park();
    }
}

fn run(args: &Args) -> Result<(), SirumError> {
    let service = SirumService::builder()
        .mode(args.engine)
        .partitions(args.partitions)
        .pool_workers(args.jobs)
        .build()?;
    let name = table_name(args);
    // Flag mistakes are usage errors, reported before any data loads and
    // after the service drops, so its spill directory goes with it.
    let first = match request(&service, name, args) {
        Ok(first) => first,
        Err(msg) => {
            drop(service);
            usage_error(msg)
        }
    };
    load_table(&service, name, args)?;
    let table = service.table(name)?;
    eprintln!(
        "{} rows × {} dimensions ({}), measure = {}",
        table.num_rows(),
        table.num_dims(),
        table.schema().dim_names().join(", "),
        table.schema().measure_name(),
    );

    if args.explain {
        println!("{}", first.explain()?);
        return Ok(());
    }

    let output = if args.repeat > 1 {
        // Exercise the concurrent path: submit N identical jobs to the
        // pool; the first execution populates the result cache and the
        // rest are served from it.
        let mut handles = vec![first.submit()?];
        for _ in 1..args.repeat {
            let again = request(&service, name, args).map_err(SirumError::service)?;
            handles.push(again.submit()?);
        }
        let mut outputs = Vec::with_capacity(handles.len());
        for handle in handles {
            outputs.push(handle.wait()?);
        }
        let stats = service.stats();
        eprintln!(
            "{} jobs: {} executed, {} coalesced onto in-flight runs, {} served from cache \
             ({} entries cached)",
            args.repeat,
            stats.jobs_executed,
            stats.jobs_coalesced,
            stats.cache_hits,
            stats.cache_entries
        );
        let Some(output) = outputs.into_iter().next() else {
            return Err(SirumError::service("no job output produced"));
        };
        output
    } else {
        let mut request = first;
        if args.progress {
            request = request.on_iteration(|event| {
                eprintln!(
                    "iteration {:>3}: {} rules, KL {:.6} ({:.2}s)",
                    event.iteration, event.rules_mined, event.kl, event.elapsed_secs
                );
                IterationDecision::Continue
            });
        }
        request.run()?
    };

    match args.format {
        OutputFormat::Json => {
            println!(
                "{}",
                sirum::json::mining_result_to_json(&output.result, &table)
            );
        }
        OutputFormat::Text => print_text(&output.result, &table),
    }
    Ok(())
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        let args = parse_serve_args(std::env::args().skip(2));
        if let Err(e) = run_serve(&args) {
            eprintln!("error: {e}");
            exit(1);
        }
        return;
    }
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        exit(1);
    }
}
