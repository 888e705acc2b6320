//! The traced pass: after the untraced window, a few extra operations are
//! run with spans recorded around the public calls into each layer, and
//! each layer's small costs are timed on their own. Its numbers are the
//! per-layer metrics; none of them feeds an end-to-end metric.

use crate::check::{rules_digest, Mined, Phases};
use crate::host;
use crate::report::{Family, Metrics};
use crate::stats::{median, Sorted};
use crate::trace::Recorder;
use crate::workloads::{Class, Client, Counters, System, Tally};
use sirum::core::try_evaluate_rules_prepared;
use sirum::dataflow::StageRecord;
use sirum::json::{json_string, mining_result_to_json, parse_json};
use sirum::net::http::{read_request, write_response, HttpLimits};
use sirum::prelude::*;
use sirum::table::csv::{read_csv, write_csv};
use sirum::table::ColumnFormat;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Traced operations per workload; layer metrics are medians over them.
const TRACED_OPS: u32 = 3;
/// Repetitions of each microsecond-scale call timed on its own.
const MICRO_REPS: usize = 200;
/// The miner stops scaling at its tolerance and the evaluator refits from
/// scratch to the same tolerance, so the two final KLs agree to the
/// tolerance's order, not to the last bit.
const KL_REL_TOLERANCE: f64 = 1e-3;

/// What the untraced rounds hand the traced pass: every class's samples,
/// sorted, and how far the service counters moved, over all rounds.
pub struct Window {
    cold: Sorted,
    hit: Sorted,
    read: Sorted,
    stream: Sorted,
    upload: Sorted,
    counters: Counters,
    queue_depth_max: u64,
}

impl Window {
    pub fn new(tally: &Tally) -> Window {
        Window {
            cold: tally.cold.clone().sorted(),
            hit: tally.hit.clone().sorted(),
            read: tally.read.clone().sorted(),
            stream: tally.stream.clone().sorted(),
            upload: tally.upload.clone().sorted(),
            counters: tally.counters,
            queue_depth_max: tally.queue_depth_max,
        }
    }
}

pub struct Traced {
    pub metrics: Metrics,
    /// The trace file's content.
    pub trace_json: String,
    pub digest: String,
}

/// Median seconds of `reps` calls of `f`, and the last value.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let value = f();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&secs), last.expect("reps ≥ 1"))
}

const MB: f64 = 1_048_576.0;

/// One direct `Miner` run on a metrics-isolated fork of the service's
/// engine: the only place the dataflow stage records are visible.
struct Direct {
    wall: f64,
    result: MiningResult,
    stages: Vec<StageRecord>,
    spilled_mb: f64,
    evictions: f64,
    disk_read_mb: f64,
    disk_write_mb: f64,
    resident_mb: f64,
}

fn direct_run(
    system: &System,
    prepared: &PreparedTable,
    config: SirumConfig,
    rec: &mut Recorder,
    op: u32,
) -> Result<Direct, String> {
    let shared = system.service.engine();
    let engine = shared.fork();
    let memory = engine.store().memory_stats();
    // Disk counters accumulate in the engine the store was built with.
    let io = shared.metrics().counters();
    let miner = Miner::new(engine.clone(), config);
    let (span, result) = rec.time(op, "core.miner", None, || {
        miner.try_mine_prepared(prepared, &[])
    });
    let result = result.map_err(|e| format!("direct miner run: {e}"))?;
    rec.aggregate_children(span, &Phases::from(&result.timings).named());
    let after = engine.store().memory_stats();
    let io_after = shared.metrics().counters();
    Ok(Direct {
        wall: rec.duration_ns(span) as f64 / 1e9,
        result,
        stages: engine.metrics().stages(),
        spilled_mb: (after.spilled_bytes - memory.spilled_bytes) as f64 / MB,
        evictions: (after.evictions - memory.evictions) as f64,
        disk_read_mb: (io_after.disk_bytes_read - io.disk_bytes_read) as f64 / MB,
        disk_write_mb: (io_after.disk_bytes_written - io.disk_bytes_written) as f64 / MB,
        resident_mb: after.resident_bytes as f64 / MB,
    })
}

/// Per-label sums of one run's stage records.
struct StageSum {
    stages: usize,
    tasks: usize,
    busy_ns: u64,
    max_task_ns: u64,
    shuffled_bytes: u64,
}

fn sum_by_label(stages: &[StageRecord]) -> BTreeMap<&str, StageSum> {
    let mut by_label: BTreeMap<&str, StageSum> = BTreeMap::new();
    for stage in stages {
        let sum = by_label.entry(stage.label.as_str()).or_insert(StageSum {
            stages: 0,
            tasks: 0,
            busy_ns: 0,
            max_task_ns: 0,
            shuffled_bytes: 0,
        });
        sum.stages += 1;
        sum.tasks += stage.tasks.len();
        sum.busy_ns += stage.tasks.iter().map(|t| t.nanos).sum::<u64>();
        sum.max_task_ns = sum
            .max_task_ns
            .max(stage.tasks.iter().map(|t| t.nanos).max().unwrap_or(0));
        sum.shuffled_bytes += stage.shuffled_bytes;
    }
    by_label
}

/// Slowest task ÷ mean task of the stage with the most task time: how far
/// the stage's wall time is set by its slowest part.
fn task_skew(stages: &[StageRecord]) -> f64 {
    let Some(longest) = stages
        .iter()
        .max_by_key(|s| s.tasks.iter().map(|t| t.nanos).sum::<u64>())
    else {
        return 0.0;
    };
    let total: u64 = longest.tasks.iter().map(|t| t.nanos).sum();
    let max = longest.tasks.iter().map(|t| t.nanos).max().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    max as f64 * longest.tasks.len() as f64 / total as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the traced pass. Checks that fail are counted in `tally`, like any
/// failed op.
pub fn traced_pass(
    system: &System,
    window: &Window,
    golden: Option<&str>,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let spec = system.spec;
    let service = &system.service;
    let table = &*system.main;
    let rows = table.num_rows();
    let mut m = Metrics::new(Family::PerLayer);
    host::calibrate(&mut m, service.engine().config());

    // -- table -----------------------------------------------------------
    let mut csv = Vec::new();
    write_csv(table, &mut csv).map_err(|e| format!("write_csv: {e}"))?;
    let (csv_secs, reread) = timed(3, || read_csv(csv.as_slice()));
    if reread.map_or(0, |t| t.num_rows()) != rows {
        tally.fail("read_csv did not return the rows write_csv wrote".into());
    }
    m.set("table.csv_read_ms", csv_secs * 1e3);
    m.set("table.csv_mb_per_s", csv.len() as f64 / 1e6 / csv_secs);
    drop(csv);
    let (prepare_secs, prepared) = timed(3, || PreparedTable::try_new(table));
    let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
    m.set("table.prepare_ms", prepare_secs * 1e3);
    m.set(
        "table.fingerprint_ms",
        timed(3, || table.fingerprint()).0 * 1e3,
    );
    let frame = prepared.frame();
    m.set(
        "table.dim_bytes_per_row",
        frame.dim_bytes() as f64 / rows as f64,
    );
    m.set(
        "table.compressed_cols",
        frame
            .column_formats()
            .iter()
            .filter(|f| matches!(f, ColumnFormat::Compressed { .. }))
            .count() as f64,
    );
    // A k = 0 mine is one full pass over every column and nothing else.
    let mut scan = spec.miner_config(rows, 0);
    scan.k = 0;
    let scanner = Miner::new(service.engine().fork(), scan);
    let (scan_secs, scanned) = timed(3, || scanner.try_mine_prepared(&prepared, &[]));
    scanned.map_err(|e| format!("k = 0 scan: {e}"))?;
    m.set("table.seed_scan_ns_per_row", scan_secs * 1e9 / rows as f64);

    // -- traced operations -------------------------------------------------
    let mut rec = Recorder::new();
    let mut client = Client::new(system, 0);
    let mut entry_secs = Vec::new();
    let mut unattributed = Vec::new();
    let mut cold_overhead_us = Vec::new();
    let mut directs = Vec::new();
    let mut cached_seed = system.seeds.hot(0);
    for op in 0..TRACED_OPS {
        let seed = |i: u32| system.seeds.traced(u64::from(op * 3 + i));
        let entry = if spec.cold_over_wire {
            "net.wire_mine"
        } else {
            "service.run"
        };
        let (span, done) = rec.time(op, entry, None, || client.cold(seed(0)));
        if let Some((latency, mined)) = done {
            rec.aggregate_children(span, &mined.phases.named());
            entry_secs.push(latency.as_secs_f64());
            unattributed.push(ratio(
                rec.self_ns(span) as f64,
                rec.duration_ns(span) as f64,
            ));
            cached_seed = seed(0);
            if !spec.cold_over_wire {
                cold_overhead_us.push((latency.as_secs_f64() - mined.phases.total) * 1e6);
            }
        }
        if spec.cold_over_wire {
            // The same request through the embedded entry point, so the
            // service's own overhead is separable from the wire's.
            let (span, run) = rec.time(op, "service.run", None, || {
                spec.mine_request(service, seed(1)).run()
            });
            match run {
                Ok(output) => {
                    let phases = Phases::from(&output.result.timings);
                    rec.aggregate_children(span, &phases.named());
                    cold_overhead_us
                        .push((rec.duration_ns(span) as f64 / 1e9 - phases.total) * 1e6);
                }
                Err(e) => tally.fail(format!("traced service.run: {e}")),
            }
        }
        let direct = direct_run(
            system,
            &prepared,
            spec.miner_config(rows, seed(2)),
            &mut rec,
            op,
        )?;
        tally.attempted += 1;
        if let Err(reason) = Mined::from_result(&direct.result, false).check(spec.k, false) {
            tally.fail(format!("direct miner run: {reason}"));
        }
        directs.push(direct);
    }
    tally.merge(std::mem::take(&mut client.tally));

    // Once per workload: re-derive the final KL from the mined rules, and
    // at the default seed compare the rule set with the recorded one.
    let first = &directs[0];
    let rules: Vec<Rule> = first.result.rules.iter().map(|r| r.rule.clone()).collect();
    let scaling = spec.miner_config(rows, 0).scaling;
    tally.attempted += 1;
    match try_evaluate_rules_prepared(&prepared, &rules, &scaling) {
        Ok(eval) => {
            let mined_kl = first.result.final_kl();
            if (eval.kl - mined_kl).abs() > KL_REL_TOLERANCE * mined_kl.abs().max(1e-12) {
                tally.fail(format!(
                    "final KL {mined_kl} does not re-derive ({})",
                    eval.kl
                ));
            }
        }
        Err(e) => tally.fail(format!("re-deriving KL: {e}")),
    }
    let digest = rules_digest(&first.result);
    if let Some(expected) = golden {
        tally.attempted += 1;
        if expected != digest {
            tally.fail(format!(
                "rule digest {digest} is not the recorded {expected}"
            ));
        }
    }

    // -- core and dataflow, medians over the direct runs ---------------------
    let over = |f: &dyn Fn(&Direct) -> f64| median(&directs.iter().map(f).collect::<Vec<_>>());
    let t = |f: fn(&sirum::core::PhaseTimings) -> f64| over(&|d| f(&d.result.timings) * 1e3);
    m.set("core.sweep_ms", t(|t| t.gain_sweep));
    m.set("core.scaling_ms", t(|t| t.iterative_scaling));
    m.set("core.select_ms", t(|t| t.gain_computation));
    m.set("core.pruning_ms", t(|t| t.candidate_pruning));
    m.set("core.ancestor_ms", t(|t| t.ancestor_generation));
    m.set(
        "core.unattributed_ms",
        t(|t| t.total - t.rule_generation() - t.iterative_scaling),
    );
    let sample = spec.sample_size.min(rows) as f64;
    m.set(
        "core.sweep_ns_per_pair",
        over(&|d| {
            let pairs = rows as f64 * sample * d.result.iterations as f64;
            ratio(d.result.timings.gain_sweep * 1e9, pairs)
        }),
    );
    m.set(
        "core.sweep_ns_per_ancestor",
        over(&|d| {
            ratio(
                d.result.timings.gain_sweep * 1e9,
                d.result.ancestors_emitted as f64,
            )
        }),
    );
    m.set("core.iterations", over(&|d| d.result.iterations as f64));
    m.set(
        "core.scaling_updates",
        over(&|d| d.result.scaling_iterations.iter().sum::<usize>() as f64),
    );
    m.set(
        "core.ancestors_emitted",
        over(&|d| d.result.ancestors_emitted as f64),
    );
    m.set("core.rules", over(&|d| d.result.rules.len() as f64));
    let optimized_over_baseline = if spec.variant == Some(Variant::Baseline) {
        let mut config = Variant::Optimized.config(spec.k, spec.sample_size.min(rows));
        config.seed = system.seeds.traced(u64::from(TRACED_OPS * 3));
        let optimized = direct_run(system, &prepared, config, &mut rec, TRACED_OPS)?;
        ratio(optimized.wall, over(&|d| d.wall))
    } else {
        0.0
    };
    m.set("core.optimized_over_baseline", optimized_over_baseline);

    m.set("dataflow.stage_count", over(&|d| d.stages.len() as f64));
    m.set(
        "dataflow.task_busy_ms",
        over(&|d| {
            d.stages
                .iter()
                .flat_map(|s| &s.tasks)
                .map(|t| t.nanos)
                .sum::<u64>() as f64
                / 1e6
        }),
    );
    m.set("dataflow.task_skew", over(&|d| task_skew(&d.stages)));
    m.set(
        "dataflow.shuffled_mb",
        over(&|d| d.stages.iter().map(|s| s.shuffled_bytes).sum::<u64>() as f64 / MB),
    );
    m.set("dataflow.spilled_mb_per_mine", over(&|d| d.spilled_mb));
    m.set("dataflow.evictions_per_mine", over(&|d| d.evictions));
    m.set("dataflow.disk_read_mb", over(&|d| d.disk_read_mb));
    m.set("dataflow.disk_write_mb", over(&|d| d.disk_write_mb));
    m.set("dataflow.resident_mb", over(&|d| d.resident_mb));

    // -- the cached request, layer by layer ----------------------------------
    let body = spec.mine_body(cached_seed);
    let cached = spec
        .mine_request(service, cached_seed)
        .run()
        .map_err(|e| format!("cached run: {e}"))?;
    tally.attempted += 1;
    if !cached.from_cache {
        tally.fail("the traced op's answer was not in the result cache".into());
    }
    let raw = format!(
        "POST /mine HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        system.addr,
        body.len()
    );
    let limits = HttpLimits::default();
    let (read_secs, request) = timed(MICRO_REPS, || read_request(&mut raw.as_bytes(), &limits));
    let request = request.map_err(|e| format!("read_request replay: {e}"))?;
    let router = system.server.router();
    let (handle_secs, (_, response)) = timed(MICRO_REPS, || router.handle(&request));
    tally.attempted += 1;
    if response.status != 200 {
        tally.fail(format!(
            "Router::handle replay answered {}",
            response.status
        ));
    }
    let (write_secs, written) = timed(MICRO_REPS, || {
        let mut out = Vec::with_capacity(response.body.len() + 256);
        write_response(&mut out, &response, true).map(|()| out.len())
    });
    written.map_err(|e| format!("write_response replay: {e}"))?;
    let (parse_secs, parsed) = timed(MICRO_REPS, || parse_json(&body));
    parsed.map_err(|e| format!("parse_json: {e}"))?;
    let (hit_secs, _) = timed(MICRO_REPS, || spec.mine_request(service, cached_seed).run());
    let (render_secs, rendered) =
        timed(MICRO_REPS, || mining_result_to_json(&cached.result, table));
    let mut wire = Client::new(system, 0);
    let (rtt_secs, _) = timed(MICRO_REPS, || wire.wire_mine(&body, true, Class::Hit));
    tally.merge(std::mem::take(&mut wire.tally));
    let mut http = HttpClient::new(system.addr);
    let (health_secs, health) = timed(MICRO_REPS, || http.get("/health").map(|r| r.status));
    tally.attempted += 1;
    if !matches!(health, Ok(200)) {
        tally.fail(format!("GET /health answered {health:?}"));
    }
    m.set("json.parse_us", parse_secs * 1e6);
    m.set("json.render_us", render_secs * 1e6);
    m.set("json.mine_body_bytes", rendered.len() as f64);
    m.set("service.hit_inproc_us", hit_secs * 1e6);
    m.set("service.cold_overhead_us", median(&cold_overhead_us));
    m.set("net.read_request_us", read_secs * 1e6);
    m.set(
        "net.route_us",
        (handle_secs - parse_secs - hit_secs - render_secs).max(0.0) * 1e6,
    );
    m.set("net.write_response_us", write_secs * 1e6);
    m.set(
        "net.socket_us",
        (rtt_secs - read_secs - handle_secs - write_secs).max(0.0) * 1e6,
    );
    m.set("net.health_rtt_us", health_secs * 1e6);

    // -- counters and tails of the untraced window --------------------------
    let counters = &window.counters;
    let (hits, misses) = (counters.cache_hits as f64, counters.cache_misses as f64);
    m.set("service.cache_hit_ratio", ratio(hits, hits + misses));
    m.set("service.jobs_executed", counters.jobs_executed as f64);
    m.set("service.jobs_coalesced", counters.jobs_coalesced as f64);
    m.set("service.jobs_rejected", counters.jobs_rejected as f64);
    m.set("service.queue_depth_max", window.queue_depth_max as f64);
    let tail = window.cold.supported_tail();
    m.set("service.mine_tail_ms", window.cold.percentile_ms(tail));
    m.set("service.mine_tail_pct", tail);
    m.set("net.hit_p50_us", window.hit.percentile_us(50.0));
    m.set("net.hit_p90_us", window.hit.percentile_us(90.0));
    m.set("net.hit_p99_us", window.hit.percentile_us(99.0));
    m.set("net.hit_max_us", window.hit.max() as f64 / 1e3);
    m.set("net.read_p50_us", window.read.percentile_us(50.0));
    m.set("net.read_p99_us", window.read.percentile_us(99.0));
    m.set("net.stream_p50_us", window.stream.percentile_us(50.0));
    m.set("net.stream_p99_us", window.stream.percentile_us(99.0));
    m.set("net.upload_p50_ms", window.upload.percentile_ms(50.0));
    let untraced = window.cold.median() as f64 / 1e9;
    m.set(
        "trace.overhead_share",
        ratio(median(&entry_secs), untraced) - 1.0,
    );
    m.set("trace.unattributed_share", median(&unattributed));

    // -- the trace file ------------------------------------------------------
    let mut stages = String::from("[");
    for (op, direct) in directs.iter().enumerate() {
        for (label, sum) in sum_by_label(&direct.stages) {
            if stages.len() > 1 {
                stages.push(',');
            }
            let _ = write!(
                stages,
                "\n  {{\"op\":{op},\"label\":{},\"stages\":{},\"tasks\":{},\"busy_ns\":{},\"max_task_ns\":{},\"shuffled_bytes\":{}}}",
                json_string(label),
                sum.stages,
                sum.tasks,
                sum.busy_ns,
                sum.max_task_ns,
                sum.shuffled_bytes,
            );
        }
    }
    stages.push_str("\n]");
    let trace_json = format!(
        "{{\"workload\":{},\"spans\":{},\"stages\":{stages}}}\n",
        json_string(spec.name),
        rec.to_json(),
    );
    Ok(Traced {
        metrics: m,
        trace_json,
        digest,
    })
}
