//! Regenerate every figure of the thesis evaluation (Chapters 3–5).
//!
//! ```sh
//! cargo run -p sirum_figures --release --bin figures            # everything
//! cargo run -p sirum_figures --release --bin figures -- f5_3 f5_5
//! ```
//!
//! Each experiment prints the series the corresponding figure plots and
//! writes a TSV under `target/figures/`.

#![forbid(unsafe_code)]

use sirum_figures::baselines::{sarawagi_explore, SarawagiConfig};
use sirum_figures::core::{
    try_explore, try_mine_on_sample, CandidateStrategy, Miner, MiningResult, SirumConfig, Variant,
};
use sirum_figures::dataflow::{Engine, EngineConfig};
use sirum_figures::table::Table;
use sirum_figures::{secs, speedup, timed, workloads, FigureReport};

const PARTITIONS: usize = 32;

fn engine() -> Engine {
    engine_with(EngineConfig::in_memory().with_partitions(PARTITIONS))
}

fn engine_with(config: EngineConfig) -> Engine {
    Engine::try_new(config).expect("engine")
}

fn run(table: &Table, config: SirumConfig) -> MiningResult {
    Miner::new(engine(), config).try_mine(table).expect("mine")
}

fn run_on(e: Engine, table: &Table, config: SirumConfig) -> MiningResult {
    Miner::new(e, config).try_mine(table).expect("mine")
}

/// Runs behind each time the measured figures (5.1, 5.2, 5.5, 5.6, 5.11,
/// 5.16, 5.17) report: the median of this many mines.
const RUNS: usize = 3;

/// The median of `times`, which it sorts.
fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// `min-max` of `times` — how far one cell's runs spread — in seconds.
fn spread(times: &[f64]) -> String {
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{}-{}", secs(min), secs(max))
}

/// Printed under Figs 5.1, 5.16 and 5.17, which the thesis measured on a
/// cluster of 24-core nodes.
const ONE_HOST: &str = "note: measured on one host; the paper's 2->16-executor \
     cluster curves are not reproduced (DESIGN.md, \"Laptop-scale dataset substitutions\")";

/// Median wall seconds of [`RUNS`] mines of `table`, each on a fresh
/// engine.
fn median_wall(engine: EngineConfig, table: &Table, config: &SirumConfig) -> f64 {
    let [[mut walls]] =
        turns(|_| [timed(|| run_on(engine_with(engine.clone()), table, config.clone())).1]);
    median(&mut walls)
}

/// [`RUNS`] repeats of `N` mines taking turns (`mine(i)` for each `i` in
/// order inside every repeat), each mine measuring `M` values: per mine and
/// per value, the repeats' measurements.
fn turns<const N: usize, const M: usize>(
    mut mine: impl FnMut(usize) -> [f64; M],
) -> [[Vec<f64>; M]; N] {
    let mut out: [[Vec<f64>; M]; N] = std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()));
    for _ in 0..RUNS {
        for (i, values) in out.iter_mut().enumerate() {
            for (times, x) in values.iter_mut().zip(mine(i)) {
                times.push(x);
            }
        }
    }
    out
}

/// Worker counts the scaling figures sweep: 1 up to the host's cores.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fig 3.1: Baseline SIRUM runtimes, rule generation vs iterative scaling,
/// per dataset (k = 5; |s| = 64, 16 on SUSY).
fn f3_1() {
    let mut rep = FigureReport::new(
        "f3_1_baseline_runtimes",
        &["dataset", "rule_gen_s", "iter_scaling_s", "total_s"],
    );
    let datasets: Vec<(&str, Table, usize)> = vec![
        ("Income", workloads::income(), 64),
        ("GDELT", workloads::gdelt(), 64),
        ("SUSY", workloads::susy(), 16),
        ("TLC", workloads::tlc(60_000), 64),
    ];
    for (name, t, s) in datasets {
        let r = run(&t, Variant::Baseline.config(5, s));
        rep.row(vec![
            name.into(),
            secs(r.timings.rule_generation()),
            secs(r.timings.iterative_scaling),
            secs(r.timings.total),
        ]);
    }
    rep.finish();
}

/// Fig 3.2: rule-generation runtime by step as dimensions grow
/// (k = 5; |s| = 64 on Income and GDELT, 16 on SUSY projected onto
/// 10/14/18 dims).
fn f3_2() {
    let mut rep = FigureReport::new(
        "f3_2_rulegen_steps",
        &[
            "dataset",
            "dims",
            "pruning_s",
            "ancestor_s",
            "gain_s",
            "pruning_%",
            "ancestor_%",
            "gain_%",
        ],
    );
    let susy = workloads::susy();
    let datasets: Vec<(String, Table, usize)> = vec![
        ("Income".into(), workloads::income(), 64),
        ("GDELT".into(), workloads::gdelt(), 64),
        ("SUSY(10)".into(), susy.project(10), 16),
        ("SUSY(14)".into(), susy.project(14), 16),
        ("SUSY(18)".into(), susy.clone(), 16),
    ];
    for (name, t, s) in datasets {
        let r = run(&t, Variant::Baseline.config(5, s));
        let tm = &r.timings;
        let total = tm.rule_generation().max(1e-9);
        rep.row(vec![
            name,
            t.num_dims().to_string(),
            secs(tm.candidate_pruning),
            secs(tm.ancestor_generation),
            secs(tm.gain_computation),
            format!("{:.0}", 100.0 * tm.candidate_pruning / total),
            format!("{:.0}", 100.0 * tm.ancestor_generation / total),
            format!("{:.0}", 100.0 * tm.gain_computation / total),
        ]);
    }
    rep.finish();
}

/// Fig 4.3: memory used by cached blocks over time under two budgets.
fn f4_3() {
    let mut rep = FigureReport::new(
        "f4_3_memory_budgets",
        &[
            "budget_mb",
            "time_s",
            "peak_block_mb",
            "disk_read_mb",
            "disk_reads",
        ],
    );
    let t = workloads::tlc(80_000);
    let bytes = t.data_bytes();
    // "5GB vs 3GB executors" scaled: generous (fits) vs starved (spills).
    for (label, budget) in [("fits", bytes * 4), ("starved", bytes / 2)] {
        let e = engine_with(
            EngineConfig::in_memory()
                .with_partitions(PARTITIONS)
                .with_memory_budget(budget),
        );
        let cfg = SirumConfig {
            k: 5,
            strategy: CandidateStrategy::SampleLca { sample_size: 16 },
            ..SirumConfig::default()
        };
        let (_, elapsed) = timed(|| run_on(e.clone(), &t, cfg));
        let trace = e.store().trace();
        let peak = trace.iter().map(|s| s.resident_bytes).max().unwrap_or(0);
        let c = e.metrics().counters();
        rep.row(vec![
            format!("{label}({})", budget / (1024 * 1024)),
            secs(elapsed),
            format!("{:.1}", peak as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", c.disk_bytes_read as f64 / (1024.0 * 1024.0)),
            c.disk_reads.to_string(),
        ]);
        // Persist the raw trace for plotting.
        let mut tsv = String::from("secs\tresident_bytes\n");
        for s in &trace {
            tsv.push_str(&format!("{:.4}\t{}\n", s.secs, s.resident_bytes));
        }
        std::fs::write(
            sirum_figures::figures_dir().join(format!("f4_3_trace_{label}.tsv")),
            tsv,
        )
        .unwrap();
    }
    rep.finish();
}

/// Fig 4.4: memory over time — full data vs SIRUM on sample data under the
/// starved budget.
fn f4_4() {
    let mut rep = FigureReport::new(
        "f4_4_sample_data_memory",
        &["mode", "time_s", "rows", "disk_read_mb", "info_gain"],
    );
    let t = workloads::tlc(80_000);
    let budget = t.data_bytes() / 2;
    for (label, rate) in [("full", 1.0), ("sample60%", 0.6), ("sample10%", 0.1)] {
        let e = engine_with(
            EngineConfig::in_memory()
                .with_partitions(PARTITIONS)
                .with_memory_budget(budget),
        );
        let cfg = SirumConfig {
            k: 5,
            strategy: CandidateStrategy::SampleLca { sample_size: 16 },
            ..SirumConfig::default()
        };
        let (out, elapsed) = timed(|| {
            try_mine_on_sample(&Miner::new(e.clone(), cfg), &t, rate).expect("sampled mine")
        });
        let c = e.metrics().counters();
        rep.row(vec![
            label.into(),
            secs(elapsed),
            out.rows_used.to_string(),
            format!("{:.1}", c.disk_bytes_read as f64 / (1024.0 * 1024.0)),
            format!("{:.4}", out.eval.information_gain),
        ]);
    }
    rep.finish();
}

/// Fig 5.1: Baseline SIRUM on Spark vs PostgreSQL, both on the running host.
fn f5_1() {
    let mut rep = FigureReport::new(
        "f5_1_spark_vs_postgres",
        &["platform", "measured_s", "slowdown"],
    );
    let t = workloads::income();
    let cfg = Variant::Baseline.config(10, 16);
    let spark = median_wall(
        EngineConfig::in_memory().with_partitions(PARTITIONS),
        &t,
        &cfg,
    );
    let pg = median_wall(
        EngineConfig::single_thread().with_partitions(PARTITIONS),
        &t,
        &cfg,
    );
    rep.row(vec!["Spark".into(), secs(spark), "1.0x".into()]);
    rep.row(vec!["PostgreSQL".into(), secs(pg), speedup(pg, spark)]);
    rep.finish();
    println!("{ONE_HOST}");
}

/// Printed under Fig 5.2: what Hive mode measures.
const HIVE_MODE: &str = "note: Hive mode is a serialized disk round trip of every stage \
     output and shuffle bucket; MapReduce job startup is not emulated (DESIGN.md, \
     \"Laptop-scale dataset substitutions\")";

/// Fig 5.2: Baseline SIRUM on Spark vs Hive (disk-materialized MapReduce):
/// per platform the median of [`RUNS`] mines, the two taking turns inside
/// each repeat, and the runs' min-max.
fn f5_2() {
    let mut rep = FigureReport::new(
        "f5_2_spark_vs_hive",
        &[
            "platform",
            "measured_s",
            "min-max_s",
            "stages",
            "disk_writes",
            "disk_write_mb",
            "slowdown",
        ],
    );
    let t = workloads::tlc(30_000);
    let platforms = [EngineConfig::in_memory(), EngineConfig::disk_mr()];
    // Wall seconds, stages, files and MB written; the last three are the
    // same in every repeat.
    let [mut spark, hive] = turns(|i| {
        let e = engine_with(platforms[i].clone().with_partitions(PARTITIONS));
        let wall = timed(|| run_on(e.clone(), &t, Variant::Baseline.config(10, 16))).1;
        let counters = e.metrics().counters();
        let stages = e.metrics().stage_count() as f64;
        let mb = counters.disk_bytes_written as f64 / (1024.0 * 1024.0);
        [wall, stages, counters.disk_writes as f64, mb]
    });
    let spark_s = median(&mut spark[0]);
    for (name, [mut times, mut stages, mut writes, mut mb]) in [("Spark", spark), ("Hive", hive)] {
        let wall = median(&mut times);
        rep.row(vec![
            name.into(),
            secs(wall),
            spread(&times),
            median(&mut stages).to_string(),
            median(&mut writes).to_string(),
            format!("{:.1}", median(&mut mb)),
            speedup(wall, spark_s),
        ]);
    }
    rep.finish();
    println!("{HIVE_MODE}");
}

/// Figs 5.3/5.4: iterative-scaling time, Baseline vs RCT, vs k.
fn f5_3() {
    let mut rep = FigureReport::new(
        "f5_3_f5_4_rct",
        &["dataset", "k", "baseline_s", "rct_s", "speedup"],
    );
    for (name, t, s) in [
        ("GDELT", workloads::gdelt(), 64usize),
        ("SUSY", workloads::susy(), 16),
    ] {
        for k in [5usize, 10] {
            let base = run(&t, Variant::Baseline.config(k, s));
            let rct = run(&t, Variant::Rct.config(k, s));
            rep.row(vec![
                name.into(),
                k.to_string(),
                secs(base.timings.iterative_scaling),
                secs(rct.timings.iterative_scaling),
                speedup(
                    base.timings.iterative_scaling,
                    rct.timings.iterative_scaling,
                ),
            ]);
        }
    }
    rep.finish();
}

/// Fig 5.5: rule-generation time, Baseline vs FastPruning, vs |s| (GDELT,
/// k = 5): per cell the median of [`RUNS`] mines, the two variants taking
/// turns inside each repeat, and the runs' min-max. Each variant's candidate
/// pruning is split into its two stages: the LCA emit (`lca-naive` /
/// `lca-fast`, where the index acts) and the `lca-agg` shuffle, as the
/// median over the same runs of task-busy seconds summed over partitions.
fn f5_5() {
    let mut rep = FigureReport::new(
        "f5_5_fast_pruning",
        &[
            "|s|",
            "baseline_s",
            "baseline_min-max_s",
            "fastpruning_s",
            "fastpruning_min-max_s",
            "speedup",
            "baseline_emit_busy_s",
            "baseline_agg_busy_s",
            "fastpruning_emit_busy_s",
            "fastpruning_agg_busy_s",
        ],
    );
    let t = workloads::gdelt();
    // Task-busy seconds of the emit stage and of the `lca-agg` shuffle.
    let split = |e: &Engine| {
        let busy = |stage: &dyn Fn(&str) -> bool| {
            let stages = e.metrics().stages();
            let tasks = stages.iter().filter(|s| stage(&s.label));
            tasks.flat_map(|s| &s.tasks).map(|t| t.nanos).sum::<u64>() as f64 * 1e-9
        };
        let emit = busy(&|l| l == "lca-naive" || l == "lca-fast");
        (emit, busy(&|l| l.starts_with("lca-agg")))
    };
    let variants = [Variant::Baseline, Variant::FastPruning];
    for s in [64usize, 128, 256] {
        // Per variant: rule-generation, emit and agg seconds.
        let [mut base, mut fast] = turns(|i| {
            let e = engine();
            let result = run_on(e.clone(), &t, variants[i].config(5, s));
            let (emit, agg) = split(&e);
            [result.timings.rule_generation(), emit, agg]
        });
        let (base_s, fast_s) = (median(&mut base[0]), median(&mut fast[0]));
        rep.row(vec![
            s.to_string(),
            secs(base_s),
            spread(&base[0]),
            secs(fast_s),
            spread(&fast[0]),
            speedup(base_s, fast_s),
            secs(median(&mut base[1])),
            secs(median(&mut base[2])),
            secs(median(&mut fast[1])),
            secs(median(&mut fast[2])),
        ]);
    }
    rep.finish();
}

/// Fig 5.6: rule-generation time, Baseline vs FastAncestor, vs |s| (SUSY,
/// k = 5, |s| = 8/16/32): per cell the median of [`RUNS`] mines, the two variants taking
/// turns inside each repeat, and the runs' min-max.
fn f5_6() {
    let mut rep = FigureReport::new(
        "f5_6_fast_ancestor",
        &[
            "|s|",
            "baseline_s",
            "baseline_min-max_s",
            "fastancestor_s",
            "fastancestor_min-max_s",
            "speedup",
        ],
    );
    let t = workloads::susy();
    let variants = [Variant::Baseline, Variant::FastAncestor];
    for s in [8usize, 16, 32] {
        let [[mut base], [mut fast]] =
            turns(|i| [run(&t, variants[i].config(5, s)).timings.rule_generation()]);
        let (base_s, fast_s) = (median(&mut base), median(&mut fast));
        rep.row(vec![
            s.to_string(),
            secs(base_s),
            spread(&base),
            secs(fast_s),
            spread(&fast),
            speedup(base_s, fast_s),
        ]);
    }
    rep.finish();
}

/// Figs 5.7/5.8: rule-generation time and #ancestors emitted vs number of
/// dimensions (SUSY projected onto 10–18 dims, k = 5, |s| = 16).
fn f5_7() {
    let mut rep = FigureReport::new(
        "f5_7_f5_8_dims",
        &[
            "dims",
            "baseline_s",
            "fastancestor_s",
            "baseline_ancestors",
            "fastancestor_ancestors",
        ],
    );
    let susy = workloads::susy();
    for d in [10usize, 12, 14, 16, 18] {
        let t = susy.project(d);
        let base = run(&t, Variant::Baseline.config(5, 16));
        let fast = run(&t, Variant::FastAncestor.config(5, 16));
        rep.row(vec![
            d.to_string(),
            secs(base.timings.rule_generation()),
            secs(fast.timings.rule_generation()),
            base.ancestors_emitted.to_string(),
            fast.ancestors_emitted.to_string(),
        ]);
    }
    rep.finish();
}

/// Figs 5.9/5.10: multi-rule insertion (l = 2, 3 and their `*` variants).
fn f5_9() {
    let mut rep = FigureReport::new(
        "f5_9_f5_10_multirule",
        &[
            "dataset",
            "k",
            "variant",
            "rule_gen_s",
            "rules_mined",
            "final_kl",
        ],
    );
    for (name, t, s, ks) in [
        ("GDELT", workloads::gdelt(), 64usize, vec![5usize, 10]),
        ("SUSY", workloads::susy(), 16, vec![5]),
    ] {
        for k in ks {
            let base = run(&t, Variant::Baseline.config(k, s));
            let target = base.final_kl();
            rep.row(vec![
                name.into(),
                k.to_string(),
                "Baseline".into(),
                secs(base.timings.rule_generation()),
                (base.rules.len() - 1).to_string(),
                format!("{:.5}", base.final_kl()),
            ]);
            for l in [2usize, 3] {
                let cfg = SirumConfig {
                    rules_per_iter: l,
                    ..Variant::Baseline.config(k, s)
                };
                let r = run(&t, cfg);
                rep.row(vec![
                    name.into(),
                    k.to_string(),
                    format!("{l}-rule"),
                    secs(r.timings.rule_generation()),
                    (r.rules.len() - 1).to_string(),
                    format!("{:.5}", r.final_kl()),
                ]);
                // The `*` variant mines until it matches Baseline's KL.
                let cfg_star = SirumConfig {
                    rules_per_iter: l,
                    target_kl: Some(target),
                    max_rules: Some((2 * k).min(60)),
                    ..Variant::Baseline.config(k, s)
                };
                let r = run(&t, cfg_star);
                rep.row(vec![
                    name.into(),
                    k.to_string(),
                    format!("{l}-rule*"),
                    secs(r.timings.rule_generation()),
                    (r.rules.len() - 1).to_string(),
                    format!("{:.5}", r.final_kl()),
                ]);
            }
        }
    }
    rep.finish();
}

/// Fig 5.11: Naive vs Baseline vs Optimized on growing TLC samples (k = 10,
/// |s| = 64), and Optimized*, which mines until it reaches Baseline's final
/// KL, at most 20 rules: per cell the median of [`RUNS`] mines,
/// the four variants taking turns inside each repeat, and the runs'
/// min-max.
fn f5_11() {
    let mut rep = FigureReport::new(
        "f5_11_tlc_variants",
        &[
            "rows",
            "variant",
            "total_s",
            "min-max_s",
            "rules",
            "final_kl",
        ],
    );
    let variants = ["Naive", "Baseline", "Optimized", "Optimized*"];
    for rows in [10_000usize, 30_000, 60_000] {
        let t = workloads::tlc(rows);
        let mut totals: [Vec<f64>; 4] = Default::default();
        // Every repeat mines the same rules; the last one's are printed.
        let mut mined = Vec::new();
        for _ in 0..RUNS {
            let base = run(&t, Variant::Baseline.config(10, 64));
            let target = base.final_kl();
            let naive = run(&t, Variant::Naive.config(10, 64));
            let optimized = run(&t, Variant::Optimized.config(10, 64));
            let opt_star = run(
                &t,
                SirumConfig {
                    target_kl: Some(target),
                    max_rules: Some(20),
                    ..Variant::Optimized.config(10, 64)
                },
            );
            mined = vec![naive, base, optimized, opt_star];
            for (times, r) in totals.iter_mut().zip(&mined) {
                times.push(r.timings.total);
            }
        }
        for ((name, times), r) in variants.iter().zip(&mut totals).zip(&mined) {
            rep.row(vec![
                rows.to_string(),
                (*name).into(),
                secs(median(times)),
                spread(times),
                (r.rules.len() - 1).to_string(),
                format!("{:.5}", r.final_kl()),
            ]);
        }
    }
    rep.finish();
}

/// Figs 5.12/5.13: Baseline vs Optimized (and Optimized*) vs k.
fn f5_12() {
    let mut rep = FigureReport::new(
        "f5_12_f5_13_vs_k",
        &[
            "dataset",
            "k",
            "baseline_s",
            "optimized_s",
            "optimized*_s",
            "speedup",
        ],
    );
    for (name, t, s, ks) in [
        ("GDELT", workloads::gdelt(), 64usize, vec![5usize, 10, 20]),
        ("SUSY", workloads::susy(), 16, vec![5]),
    ] {
        for k in ks {
            let base = run(&t, Variant::Baseline.config(k, s));
            let opt = run(&t, Variant::Optimized.config(k, s));
            let opt_star = run(
                &t,
                SirumConfig {
                    target_kl: Some(base.final_kl()),
                    max_rules: Some((2 * k).min(60)),
                    ..Variant::Optimized.config(k, s)
                },
            );
            rep.row(vec![
                name.into(),
                k.to_string(),
                secs(base.timings.total),
                secs(opt.timings.total),
                secs(opt_star.timings.total),
                speedup(base.timings.total, opt.timings.total),
            ]);
        }
    }
    rep.finish();
}

/// Fig 5.14: performance improvement (%) of Optimized over Baseline vs |s|.
fn f5_14() {
    let mut rep = FigureReport::new(
        "f5_14_improvement_vs_s",
        &[
            "dataset",
            "|s|",
            "baseline_s",
            "optimized_s",
            "improvement_%",
        ],
    );
    for (name, t, sweep) in [
        ("Income", workloads::income(), [64usize, 128, 256]),
        ("SUSY", workloads::susy(), [8, 16, 32]),
    ] {
        for s in sweep {
            let base = run(&t, Variant::Baseline.config(5, s));
            let opt = run(&t, Variant::Optimized.config(5, s));
            let imp = 100.0 * (base.timings.total - opt.timings.total) / base.timings.total;
            rep.row(vec![
                name.into(),
                s.to_string(),
                secs(base.timings.total),
                secs(opt.timings.total),
                format!("{imp:.0}"),
            ]);
        }
    }
    rep.finish();
}

/// Fig 5.15: data-cube exploration — Sarawagi \[29\] baseline vs SIRUM
/// (k = 10, GDELT-like, exhaustive candidates).
fn f5_15() {
    let mut rep = FigureReport::new(
        "f5_15_cube_exploration",
        &[
            "system",
            "rule_gen_s",
            "iter_scaling_s",
            "total_s",
            "scaling_iters",
        ],
    );
    // FullCube enumerates 2^d ancestors per tuple; keep the table smaller.
    let t = sirum_figures::table::generators::gdelt_like(3_000, workloads::SEED);
    let e = engine();
    let (sar, _) = timed(|| {
        sarawagi_explore(
            &e,
            &t,
            &SarawagiConfig {
                k: 5,
                ..Default::default()
            },
        )
        .expect("baseline explore")
    });
    let e2 = engine();
    let (opt, _) = timed(|| {
        try_explore(
            &e2,
            &t,
            SirumConfig {
                k: 5,
                rct: true,
                rules_per_iter: 2,
                ..SirumConfig::default()
            },
        )
        .expect("explore")
    });
    let e3 = engine();
    let (opt_star, _) = timed(|| {
        try_explore(
            &e3,
            &t,
            SirumConfig {
                k: 5,
                rct: true,
                rules_per_iter: 2,
                target_kl: Some(sar.result.final_kl()),
                max_rules: Some(15),
                ..SirumConfig::default()
            },
        )
        .expect("explore")
    });
    for (name, r) in [
        ("Baseline[29]", &sar.result),
        ("Optimized", &opt.result),
        ("Optimized*", &opt_star.result),
    ] {
        rep.row(vec![
            name.into(),
            secs(r.timings.rule_generation()),
            secs(r.timings.iterative_scaling),
            secs(r.timings.total),
            r.scaling_iterations.iter().sum::<usize>().to_string(),
        ]);
    }
    rep.finish();
}

/// Fig 5.16: strong scaling — fixed data, 1..N workers on the running host.
fn f5_16() {
    let mut rep = FigureReport::new(
        "f5_16_strong_scaling",
        &["dataset", "workers", "measured_s", "speedup_vs_1"],
    );
    let cfg = Variant::Optimized.config(10, 64);
    for (name, rows) in [("TLC_small", 10_000usize), ("TLC_large", 60_000)] {
        let t = workloads::tlc(rows);
        let mut one_worker = None;
        for workers in 1..=host_cores() {
            let e = EngineConfig::in_memory()
                .with_partitions(96)
                .with_workers(workers);
            let m = median_wall(e, &t, &cfg);
            let t1 = *one_worker.get_or_insert(m);
            rep.row(vec![
                name.into(),
                workers.to_string(),
                secs(m),
                speedup(t1, m),
            ]);
        }
    }
    rep.finish();
    println!("{ONE_HOST}");
}

/// Fig 5.17: weak scaling — 20k rows per worker, 1..N workers on the
/// running host; a flat `vs_1_worker` line is ideal.
fn f5_17() {
    let mut rep = FigureReport::new(
        "f5_17_weak_scaling",
        &["workers", "rows", "measured_s", "vs_1_worker"],
    );
    let cfg = Variant::Optimized.config(10, 64);
    let mut one_worker = None;
    for workers in 1..=host_cores() {
        let rows = 20_000 * workers;
        let e = EngineConfig::in_memory()
            .with_partitions(96)
            .with_workers(workers);
        let m = median_wall(e, &workloads::tlc(rows), &cfg);
        let t1 = *one_worker.get_or_insert(m);
        rep.row(vec![
            workers.to_string(),
            rows.to_string(),
            secs(m),
            speedup(m, t1),
        ]);
    }
    rep.finish();
    println!("{ONE_HOST}");
}

/// Figs 5.18/5.19: execution time and information gain vs sampling rate.
fn f5_18() {
    let mut rep = FigureReport::new(
        "f5_18_f5_19_sampling",
        &["dataset", "rate_%", "rows", "time_s", "info_gain"],
    );
    for (name, t) in [("TLC", workloads::tlc(80_000)), ("SUSY", workloads::susy())] {
        for rate in [1.0f64, 0.1, 0.01, 0.001] {
            let e = engine();
            let cfg = SirumConfig {
                k: 5,
                strategy: CandidateStrategy::SampleLca { sample_size: 16 },
                ..SirumConfig::default()
            };
            let (out, elapsed) = timed(|| {
                try_mine_on_sample(&Miner::new(e.clone(), cfg), &t, rate).expect("sampled mine")
            });
            rep.row(vec![
                name.into(),
                format!("{:.1}", rate * 100.0),
                out.rows_used.to_string(),
                secs(elapsed),
                format!("{:.5}", out.eval.information_gain),
            ]);
        }
    }
    rep.finish();
}

/// Table 1.2: the flight-delay worked example.
fn t1_2() {
    let mut rep = FigureReport::new(
        "t1_2_flight_rules",
        &["rule_id", "rule", "avg_late", "count"],
    );
    let t = sirum_figures::table::generators::flights();
    let r = run(
        &t,
        SirumConfig {
            k: 3,
            strategy: CandidateStrategy::SampleLca { sample_size: 14 },
            ..SirumConfig::default()
        },
    );
    for (i, rule) in r.rules.iter().enumerate() {
        rep.row(vec![
            (i + 1).to_string(),
            rule.rule.display(&t),
            format!("{:.1}", rule.avg_measure),
            rule.count.to_string(),
        ]);
    }
    rep.finish();
}

fn main() {
    let all: Vec<(&str, fn())> = vec![
        ("t1_2", t1_2 as fn()),
        ("f3_1", f3_1),
        ("f3_2", f3_2),
        ("f4_3", f4_3),
        ("f4_4", f4_4),
        ("f5_1", f5_1),
        ("f5_2", f5_2),
        ("f5_3", f5_3),
        ("f5_5", f5_5),
        ("f5_6", f5_6),
        ("f5_7", f5_7),
        ("f5_9", f5_9),
        ("f5_11", f5_11),
        ("f5_12", f5_12),
        ("f5_14", f5_14),
        ("f5_15", f5_15),
        ("f5_16", f5_16),
        ("f5_17", f5_17),
        ("f5_18", f5_18),
    ];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&(&str, fn())> = if args.is_empty() {
        all.iter().collect()
    } else {
        all.iter()
            .filter(|(name, _)| args.iter().any(|a| a == name))
            .collect()
    };
    if selected.is_empty() {
        eprintln!(
            "unknown experiment(s) {:?}; available: {:?}",
            args,
            all.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        std::process::exit(1);
    }
    println!("SIRUM figure harness — {} experiment(s)", selected.len());
    for (name, f) in selected {
        let (_, elapsed) = timed(f);
        println!("[{name}] done in {elapsed:.1}s");
    }
    println!("\nTSV output written to target/figures/");
}
