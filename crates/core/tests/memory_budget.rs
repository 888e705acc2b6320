//! Release-mode memory-budget smoke test.
//!
//! A 2M-row TLC-shaped table is mined end-to-end under a block-store
//! budget the raw working set (dimension columns + 24 B/row of float
//! payload ≈ 120 MB) cannot satisfy. The store holds one generation of
//! the mining dataset at a time, so the compressed frame, whose
//! generation fits under the cap, never evicts or spills; the raw frame
//! must spill and reload to get through. Both must produce output
//! bit-identical to an unbudgeted raw-frame reference.
//!
//! Ignored by default: debug-mode scans of 2M rows take minutes. CI runs
//! it release-mode (`cargo test --release -p sirum_core --test
//! memory_budget -- --ignored`), and so should you.

use sirum_core::{CandidateStrategy, Miner, PreparedTable, SirumConfig};
use sirum_dataflow::{Engine, EngineConfig};
use sirum_table::{generators, Compression};

const ROWS: usize = 2_000_000;
const BUDGET: usize = 80 << 20;

/// An in-memory engine with a fixed partition/worker shape, so budgeted
/// and unbudgeted runs differ only in eviction churn — never in float
/// accumulation order.
fn engine(budget: Option<usize>, dir: &str) -> Engine {
    let mut config = EngineConfig::in_memory()
        .with_partitions(8)
        .with_workers(4)
        .with_spill_dir(std::env::temp_dir().join(format!("{dir}-{}", std::process::id())));
    config.memory_budget = budget;
    Engine::try_new(config).unwrap()
}

fn config() -> SirumConfig {
    SirumConfig {
        k: 2,
        strategy: CandidateStrategy::SampleLca { sample_size: 8 },
        ..SirumConfig::default()
    }
}

/// One mined rule, everything bit-significant: values, gain bits,
/// avg-measure bits, count.
type RuleBits = (Vec<u32>, u64, u64, u64);

/// Everything that must match bit for bit between runs.
fn bits(r: &sirum_core::MiningResult) -> (Vec<RuleBits>, Vec<u64>, usize) {
    (
        r.rules
            .iter()
            .map(|m| {
                (
                    m.rule.values().to_vec(),
                    m.gain.to_bits(),
                    m.avg_measure.to_bits(),
                    m.count,
                )
            })
            .collect(),
        r.kl_trace.iter().map(|k| k.to_bits()).collect(),
        r.iterations,
    )
}

#[test]
#[ignore = "release-mode smoke: 2M-row scans; run via the CI memory-budget job"]
fn two_million_rows_mine_inside_a_budget_raw_columns_cannot_satisfy() {
    // The reference is built raw from the generator's codes, so its columns
    // never passed through the segment encoder the compressed table did.
    let raw_table = generators::tlc_like_with(ROWS, 2016, Compression::Never);
    let raw = PreparedTable::try_new(&raw_table).unwrap();
    let compressed = PreparedTable::try_new(&generators::tlc_like(ROWS, 2016)).unwrap();
    assert!(!raw.frame().is_compressed());

    // The premise of the cap: the raw working set (dimension columns plus
    // the 24 B/row of m/m̂/mask float payload every block carries)
    // overflows it; compression shrinks the dimension share ~8× and pulls
    // the total under. (Auto must compress at this size at build — that's
    // the policy the service relies on.)
    assert!(compressed.frame().is_compressed());
    let float_payload = 24 * ROWS;
    assert!(
        raw.frame().dim_bytes() + float_payload > BUDGET,
        "raw working set fits; cap too loose"
    );
    assert!(
        compressed.frame().dim_bytes() + float_payload < BUDGET,
        "compressed working set {} cannot fit under {BUDGET}",
        compressed.frame().dim_bytes() + float_payload,
    );

    let reference = Miner::new(engine(None, "sirum-budget-ref"), config())
        .try_mine_prepared(&raw, &[])
        .unwrap();
    assert!(!reference.rules.is_empty());

    // Compressed under the cap: bit-identical to the unbudgeted raw
    // reference, and never out of core. A rewrite frees the generation it
    // replaces before caching the next, so one generation is all the
    // store ever holds, and it fits.
    let miner = Miner::new(engine(Some(BUDGET), "sirum-budget-c"), config());
    let under_budget = miner.try_mine_prepared(&compressed, &[]).unwrap();
    assert_eq!(bits(&reference), bits(&under_budget));
    let compressed_stats = miner.engine().store().memory_stats();
    eprintln!("compressed under budget: {compressed_stats:?}");
    assert!(compressed_stats.resident_bytes <= BUDGET);
    assert_eq!(
        compressed_stats.evictions, 0,
        "a fitting generation evicted"
    );
    assert_eq!(
        compressed_stats.spilled_bytes, 0,
        "a fitting generation spilled"
    );

    // Raw under the same cap: still correct (spill/reload is lossless),
    // but only by churning the store — one raw generation does not fit,
    // so each rewrite spills the live generation's least recently used
    // blocks and the next scan reads them back.
    let miner = Miner::new(engine(Some(BUDGET), "sirum-budget-r"), config());
    let thrashing = miner.try_mine_prepared(&raw, &[]).unwrap();
    assert_eq!(bits(&reference), bits(&thrashing));
    let raw_stats = miner.engine().store().memory_stats();
    eprintln!("raw under budget: {raw_stats:?}");
    assert!(raw_stats.resident_bytes <= BUDGET);
    assert!(raw_stats.evictions > 0, "raw columns fit the cap?");
    assert!(
        raw_stats.spilled_bytes > 2 * compressed_stats.spilled_bytes,
        "raw spill traffic {} should dwarf compressed {}",
        raw_stats.spilled_bytes,
        compressed_stats.spilled_bytes,
    );
}
