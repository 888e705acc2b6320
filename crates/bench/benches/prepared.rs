//! Service-layer hot path: repeated mining with and without the catalog's
//! one-time table preparation (`PreparedTable`). `cold` pays per-request
//! validation, measure-transform fitting and the columnar transpose on
//! every call — what `Miner::try_mine` does; `prepared` reuses one
//! `PreparedTable` and scans its `Arc`-shared columns through zero-copy
//! views, as the service catalog does for every registered table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirum_bench::core::{CandidateStrategy, Miner, PreparedTable, SirumConfig};
use sirum_bench::dataflow::Engine;
use sirum_bench::workloads;

fn bench(c: &mut Criterion) {
    let engine = Engine::in_memory();
    let mut group = c.benchmark_group("prepared_catalog");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for rows in [20_000usize, 80_000] {
        let table = workloads::income_sized(rows);
        // k = 0 isolates the per-request setup (validation, transform fit,
        // encode, seed-model fit) that the catalog's preparation amortizes;
        // a nonzero k would bury it under rule-generation stages.
        let config = SirumConfig {
            k: 0,
            strategy: CandidateStrategy::SampleLca { sample_size: 32 },
            ..SirumConfig::default()
        };
        let miner = Miner::new(engine.clone(), config);
        group.bench_with_input(BenchmarkId::new("cold", rows), &rows, |b, _| {
            b.iter(|| miner.try_mine(&table).unwrap());
        });
        let prepared = PreparedTable::try_new(&table).unwrap();
        group.bench_with_input(BenchmarkId::new("prepared", rows), &rows, |b, _| {
            b.iter(|| miner.try_mine_prepared(&prepared, &[]).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
