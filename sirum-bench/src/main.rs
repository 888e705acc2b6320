//! `sirum-bench` — the repository's benchmark. One invocation runs one
//! workload against the whole system (service, server, socket), checks
//! every answer, and prints the metrics `BENCHMARK.json` names.
//!
//! ```text
//! sirum-bench --workload W --seed N --seconds S --trace 0|1   one run (the contract)
//! sirum-bench smoke                                            every workload, tiny, schema-checked
//! sirum-bench repeat [--sets 2] [--runs 5] [--workload W]      spread and set-to-set drift vs the bounds
//! ```
//!
//! See `README.md` beside this package for the metric glossary.

mod check;
mod host;
mod layers;
mod repeat;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{benchmark_json, Family, Metrics, SCHEMA_VERSION};
use sirum::json::{json_number, json_string, parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Spec, System, Tally, SERVE_PER_MILLE, WORKLOADS};

/// The seed `golden.json` was recorded at.
pub const DEFAULT_SEED: u64 = 2016;
/// Rounds per run: each is one full set-up and a fifth of the window.
const ROUNDS: usize = 5;
const GOLDEN: &str = include_str!("../golden.json");

const USAGE: &str = "\
usage:
  sirum-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
  sirum-bench smoke
  sirum-bench repeat [--sets N] [--runs N] [--seconds S] [--seed N] [--workload <name>]
workloads: cold_sweep wide_expand staged_baseline serve_mix budget_spill";

pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Row divisor; above 1 only in the smoke run.
    pub scale: usize,
}

pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Option<Metrics>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Where result, trace and spill files go: under cargo's target directory,
/// which is inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("sirum-bench")
}

fn golden_digest(workload: &str) -> Option<String> {
    let golden = parse_json(GOLDEN).expect("golden.json is valid JSON");
    debug_assert_eq!(
        golden.get("seed").and_then(JsonValue::as_u64),
        Some(DEFAULT_SEED)
    );
    let digest = golden.get("digests")?.get(workload)?.as_str()?;
    Some(digest.to_string())
}

/// One run of one workload. The window is split into [`ROUNDS`] rounds,
/// each on a freshly set-up system, and the set-up time and the two rates
/// are medians over the rounds: how the scheduler happened to place one
/// instance's threads then moves one round, not the run. Real mines are
/// too few per round for that, so their median is taken over all rounds'
/// samples. With `trace` the traced pass follows the last round.
pub fn run_workload(opts: &Options, out: &Path) -> Result<Outcome, String> {
    let spec = opts.spec.scaled(opts.scale);
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;

    // One value per round; the run reports their medians.
    let (mut setup_s, mut rows_per_s, mut req_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut wall_s = 0.0;
    // `VmHWM` of the first round after ingest, after set-up, after the window.
    let mut rss_mb = [0.0; 3];
    let mut dims = 0;
    let mut per_layer = None;
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let system = System::set_up(spec, opts.seed, out)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let setup_rss_mb = host::peak_rss_mb();
        let (measured, wall) = system.run_window(opts.window / ROUNDS as u32);
        if round == 0 {
            // Later rounds inherit what earlier ones left in the allocator,
            // so only the first round's peak is the workload's own.
            rss_mb = [system.ingest_rss_mb, setup_rss_mb, host::peak_rss_mb()];
            eprintln!(
                "peak RSS: {:.1} MB after ingest, {:.1} after set-up, {:.1} after the window",
                rss_mb[0], rss_mb[1], rss_mb[2]
            );
            dims = system.main.num_dims();
        }
        let round_s = wall.as_secs_f64();
        rows_per_s.push((system.main.num_rows() * measured.cold.len()) as f64 / round_s);
        req_per_s.push((measured.attempted - measured.failed) as f64 / round_s);
        wall_s += round_s;
        tally.merge(measured);
        if opts.trace && round + 1 == ROUNDS {
            let window = layers::Window::new(&tally);
            let golden = (opts.seed == DEFAULT_SEED && opts.scale == 1)
                .then(|| golden_digest(spec.name))
                .flatten();
            let traced = layers::traced_pass(&system, &window, golden.as_deref(), &mut tally)?;
            let path = out.join(format!("trace-{}.json", spec.name));
            std::fs::write(&path, &traced.trace_json)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("rule digest at seed {}: {}", opts.seed, traced.digest);
            per_layer = Some(traced.metrics);
        }
        system.tear_down();
    }

    let mut e2e = Metrics::new(Family::EndToEnd);
    e2e.set("setup_s", stats::median(&setup_s));
    e2e.set("rows_per_s", stats::median(&rows_per_s));
    e2e.set("req_per_s", stats::median(&req_per_s));
    e2e.set(
        "mine_p50_ms",
        tally.cold.clone().sorted().percentile_ms(50.0),
    );
    e2e.set("peak_rss_mb", rss_mb[2]);
    let counts = [
        ("cold", tally.cold.len()),
        ("hit", tally.hit.len()),
        ("read", tally.read.len()),
        ("stream", tally.stream.len()),
        ("upload", tally.upload.len()),
    ];

    let outcome = Outcome {
        end_to_end: e2e,
        per_layer,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
    };
    let result = result_file(opts, &spec, dims, &outcome, wall_s, &counts, rss_mb);
    let path = out.join(format!("result-{}.json", spec.name));
    std::fs::write(&path, result).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(outcome)
}

/// The self-describing result file: header (schema, revision, seed, host,
/// the workload's frozen sizes), sample counts, then every metric.
fn result_file(
    opts: &Options,
    spec: &Spec,
    dims: usize,
    outcome: &Outcome,
    wall_s: f64,
    counts: &[(&str, usize)],
    rss_mb: [f64; 3],
) -> String {
    let variant = spec
        .variant
        .map_or("null".to_string(), |v| json_string(&v.to_string()));
    let budget = spec
        .budget_mb
        .map_or("null".to_string(), |mb| mb.to_string());
    let mix = match spec.mix {
        workloads::Mix::Mines => "{\"kind\":\"mines\"}".to_string(),
        workloads::Mix::Serve => format!(
            "{{\"kind\":\"serve\",\"per_mille\":{{\"cold\":{},\"hit\":{},\"read\":{},\"stream\":{},\"upload\":{}}}}}",
            SERVE_PER_MILLE.colds,
            SERVE_PER_MILLE.hits,
            SERVE_PER_MILLE.reads,
            SERVE_PER_MILLE.streams,
            SERVE_PER_MILLE.uploads
        ),
    };
    let samples: Vec<String> = counts
        .iter()
        .map(|(class, n)| format!("{}:{n}", json_string(class)))
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
    format!(
        "{{\"schema\":{SCHEMA_VERSION},\"git_rev\":{},\"seed\":{},\"workload\":{},\
         \"sizes\":{{\"rows\":{},\"dims\":{},\"k\":{},\"sample_size\":{},\"variant\":{variant},\
         \"budget_mb\":{budget},\"csv_round_trip\":{},\"cold_over_wire\":{},\"connections\":{},\
         \"scale_divisor\":{},\"mix\":{mix}}},\
         \"host\":{{\"cores\":{}}},\"window_s\":{},\"samples\":{{{}}},\
         \"rss_mb\":{{\"after_ingest\":{},\"after_setup\":{},\"after_window\":{}}},\
         \"attempted\":{},\"failed\":{},\"failures\":[{}],\
         \"end_to_end\":{},\"per_layer\":{}}}\n",
        json_string(&host::git_rev(Path::new("."))),
        opts.seed,
        json_string(spec.name),
        spec.rows,
        dims,
        spec.k,
        spec.sample_size,
        spec.csv_round_trip,
        spec.cold_over_wire,
        spec.connections(),
        opts.scale,
        host::cores(),
        json_number(wall_s),
        samples.join(","),
        json_number(rss_mb[0]),
        json_number(rss_mb[1]),
        json_number(rss_mb[2]),
        outcome.attempted,
        outcome.failed,
        failures.join(","),
        outcome.end_to_end.to_json(),
        outcome
            .per_layer
            .as_ref()
            .map_or("null".to_string(), Metrics::to_json),
    )
}

/// Every workload at a fiftieth of its size, asserting the output schema:
/// names well-formed and within the contract's counts, every name of
/// `BENCHMARK.json` printed (`Metrics` takes no other), nothing failed.
fn smoke() -> Result<(), String> {
    let benchmark = benchmark_json();
    let listed: Vec<&str> = benchmark
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    let built: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
    if listed != built {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the binary has {built:?}"
        ));
    }
    for (family, limit) in [(Family::EndToEnd, 16), (Family::PerLayer, 128)] {
        let metrics = Metrics::new(family);
        let declared = metrics.declared();
        if declared.len() > limit {
            return Err(format!(
                "{} {family:?} metrics, at most {limit}",
                declared.len()
            ));
        }
        for (name, unit) in declared {
            let well_formed = |s: &str, extra: &str| {
                !s.is_empty()
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            if !well_formed(name, "_.-") || !well_formed(unit, "_/%.-") {
                return Err(format!("malformed metric name or unit: {name:?} {unit:?}"));
            }
        }
    }
    let out = out_dir().join("smoke");
    for spec in WORKLOADS {
        let opts = Options {
            spec,
            seed: DEFAULT_SEED,
            window: Duration::from_millis(300),
            trace: true,
            scale: 50,
        };
        let outcome = run_workload(&opts, &out).map_err(|e| format!("{}: {e}", spec.name))?;
        if outcome.failed > 0 || outcome.attempted == 0 {
            return Err(format!(
                "{}: {} of {} ops failed: {}",
                spec.name,
                outcome.failed,
                outcome.attempted,
                outcome.failures.join("; ")
            ));
        }
        let layers = outcome.per_layer.expect("smoke runs traced");
        for metrics in [&outcome.end_to_end, &layers] {
            let missing = metrics.missing();
            if !missing.is_empty() {
                return Err(format!("{}: metrics not printed: {missing:?}", spec.name));
            }
            if let Some((name, value, _)) = metrics.rows().find(|(_, v, _)| !v.is_finite()) {
                return Err(format!("{}: {name} is {value}", spec.name));
            }
        }
        if let Some((name, ..)) = outcome.end_to_end.rows().find(|(_, v, _)| *v <= 0.0) {
            return Err(format!("{}: end-to-end metric {name} is 0", spec.name));
        }
        eprintln!("smoke {}: ok ({} ops)", spec.name, outcome.attempted);
    }
    Ok(())
}

fn parse_contract(args: &[String]) -> Result<Options, String> {
    let mut spec = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0_f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => spec = Some(Spec::named(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Options {
        spec: spec.ok_or("--workload is required")?,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        scale: 1,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("smoke") => smoke().map(|()| true),
        Some("repeat") => repeat::repeat(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => parse_contract(&args).and_then(|opts| {
            let outcome = run_workload(&opts, &out_dir())?;
            for failure in &outcome.failures {
                eprintln!("failed: {failure}");
            }
            let metrics = match (&outcome.per_layer, opts.trace) {
                (Some(layers), true) => layers,
                _ => &outcome.end_to_end,
            };
            for (name, value, unit) in metrics.rows() {
                eprintln!("{name:<32} {value:>16.4} {unit}");
            }
            let correct = outcome.failed == 0 && metrics.missing().is_empty();
            println!(
                "{}",
                report::result_line(correct, outcome.attempted, outcome.failed, metrics)
            );
            Ok(correct)
        }),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The smoke run as a test of this package (`cargo test` in this
    /// directory): every workload runs clean at small scale and prints
    /// every metric `BENCHMARK.json` names.
    #[test]
    fn smoke_run_prints_every_metric() {
        super::smoke().unwrap();
    }
}
