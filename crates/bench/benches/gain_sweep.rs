//! Candidate gain evaluation: the fused partition-parallel sweep vs. the
//! legacy sequential scoring path (ISSUE 4).
//!
//! `mine/staged-sequential` is the pre-sweep pipeline — LCA emit → shuffle
//! → ancestor stages → shuffle → adjust + gain — on one worker: the
//! "scores candidates sequentially" baseline the sweep replaces.
//! `mine/sweep/<N>threads` runs the same mining request with the fused
//! sweep on an engine *requesting* N workers. `sweep-pass/…` isolates one
//! sweep over the distributed dataset. N is the requested concurrency (the
//! knob a user sets); `EngineConfig::effective_workers` hardware-caps it,
//! so on hosts with fewer cores the higher-N rows measure the capped
//! configuration — each row logs its effective worker count. The mining
//! output is bit-identical across every row here — see the proptests in
//! `crates/core/tests/properties.rs`.
//!
//! `sweep-pass/…` runs the default packed-`u64` accumulators with the
//! combine the cost model picks — at 2500 rows a partition against a
//! 2^9-entry-per-sample-row table that is the slot table.
//! `sweep-pass-rulekey` is the same single sweep on `Rule`-keyed maps
//! (what a layout over 128 bits runs on); `sweep-pass-hashprobe` and
//! `sweep-pass-radixgroup` force the two hashed combines a partition
//! falls back to when the table would not amortise. So packed-vs-rulekey,
//! hash-vs-radix and slot-table-vs-radix are each one compare away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirum_bench::core::candidates::SampleIndex;
use sirum_bench::core::sweep::{sweep_gains, SweepOptions};
use sirum_bench::core::{
    CandidateStrategy, Miner, PreparedTable, RuleLayout, SirumConfig, TupleBlock,
};
use sirum_bench::dataflow::cost::CombineStrategy;
use sirum_bench::dataflow::{sample_row_indices, Dataset, Engine, EngineConfig};
use sirum_bench::workloads;

// |s| = 128 doubles the paper-default pair volume, putting the workload
// squarely in the regime the sweep targets (per-stage materialization and
// shuffle overhead dominating the staged path).
const PARTITIONS: usize = 8;
const SAMPLE: usize = 128;

fn engine(workers: usize) -> Engine {
    Engine::new(
        EngineConfig::in_memory()
            .with_workers(workers)
            .with_partitions(PARTITIONS),
    )
}

fn config(gain_sweep: bool) -> SirumConfig {
    SirumConfig {
        k: 2,
        strategy: CandidateStrategy::SampleLca {
            sample_size: SAMPLE,
        },
        gain_sweep,
        ..SirumConfig::default()
    }
}

/// Columnar blocks over the prepared frame's shared columns (what the
/// miner distributes — zero copies).
fn column_blocks(engine: &Engine, prepared: &PreparedTable) -> Dataset<TupleBlock> {
    let blocks =
        TupleBlock::seed_partitions(prepared.frame(), &prepared.m_prime_slice(), PARTITIONS);
    Dataset::from_partitioned(engine, blocks)
}

fn bench(c: &mut Criterion) {
    let table = workloads::income();
    let prepared = PreparedTable::try_new(&table).unwrap();
    let d = prepared.num_dims();
    let mut group = c.benchmark_group("gain_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // The sequential path: legacy staged scoring on a single worker.
    let staged = Miner::new(engine(1), config(false));
    group.bench_function("mine/staged-sequential", |b| {
        b.iter(|| staged.try_mine_prepared(&prepared, &[]).unwrap());
    });

    // The same request on the fused sweep, requesting 1/2/4 engine workers.
    for workers in [1usize, 2, 4] {
        let e = engine(workers);
        eprintln!(
            "gain_sweep: {workers} requested worker(s) -> {} effective on this host",
            e.config().effective_workers()
        );
        let miner = Miner::new(e, config(true));
        group.bench_with_input(
            BenchmarkId::new("mine/sweep", format!("{workers}threads")),
            &workers,
            |b, _| b.iter(|| miner.try_mine_prepared(&prepared, &[]).unwrap()),
        );
    }

    // One isolated sweep pass over the distributed dataset under each
    // accumulator keying. The sample is drawn the way the miner draws it;
    // every row computes bit-identical candidates.
    let packed = SweepOptions::packed(RuleLayout::from_cardinalities(prepared.frame().cards()));
    let rows = prepared.frame().view();
    let sample: Vec<Box<[u32]>> = sample_row_indices(prepared.num_rows(), SAMPLE, 42)
        .into_iter()
        .map(|i| rows.gather_row_boxed(i))
        .collect();
    let index = SampleIndex::build(sample, d);
    for workers in [1usize, 2, 4] {
        let e = engine(workers);
        let data = column_blocks(&e, &prepared);
        group.bench_with_input(
            BenchmarkId::new("sweep-pass", format!("{workers}threads")),
            &workers,
            |b, _| b.iter(|| sweep_gains(&data, d, Some(&index), None, &packed)),
        );
    }
    // The Rule-keyed sweep and the two forced hashed combines, single
    // worker. The default `sweep-pass` row above measures the slot table;
    // of the fallbacks, the cost model would pick radix-group at this
    // workload's emission volume.
    for (id, opts) in [
        ("sweep-pass-rulekey", SweepOptions::rule_keyed()),
        (
            "sweep-pass-hashprobe",
            packed.clone().with_combine(CombineStrategy::HashProbe),
        ),
        (
            "sweep-pass-radixgroup",
            packed.with_combine(CombineStrategy::RadixGroup),
        ),
    ] {
        let e = engine(1);
        let data = column_blocks(&e, &prepared);
        group.bench_with_input(BenchmarkId::new(id, "1threads"), &1usize, |b, _| {
            b.iter(|| sweep_gains(&data, d, Some(&index), None, &opts))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
