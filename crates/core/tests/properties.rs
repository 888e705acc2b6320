//! Property-based tests of the public mining API: the mined output is bit
//! for bit the same under packed and `Rule` keys, compressed and raw
//! frames, every worker count and memory pressure, and a damaged spill
//! file fails a mine with a typed error. The properties of the crate's
//! internals (rule algebra, lattice, sample pruning, scaling, the sweep)
//! live in the unit tests of the modules they check.

use proptest::prelude::*;
use sirum_core::{
    CandidateStrategy, Evaluation, IterationDecision, Miner, MiningResult, PreparedTable,
    RuleLayout, SirumConfig, SirumError, StagedPipeline, Variant,
};
use sirum_dataflow::{Engine, EngineConfig};
use sirum_table::{Compression, Frame, Schema, Segment, Table};

const MAX_D: usize = 5;
const MAX_CARD: u32 = 4;

/// Strategy: a random tuple over `d` attributes with small domains.
fn tuple(d: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..MAX_CARD, d)
}

/// Strategy: a small random table with nonnegative measures.
fn small_table() -> impl Strategy<Value = Table> {
    (1usize..=MAX_D).prop_flat_map(|d| {
        prop::collection::vec((tuple(d), 0.0f64..10.0), 1..40).prop_map(move |rows| {
            let names: Vec<String> = (0..d).map(|i| format!("a{i}")).collect();
            let mut b = Table::builder(Schema::try_new(names, "m").unwrap());
            for col in 0..d {
                for v in 0..MAX_CARD {
                    b.try_intern(col, &format!("v{v}")).unwrap();
                }
            }
            for (codes, m) in rows {
                b.try_push_coded_row(&codes, m).unwrap();
            }
            b.build()
        })
    })
}

/// Whether every segment of `frame` is in the form `compression` stores:
/// Raw under `Never`, what [`Segment::encode`] makes of its codes under
/// `Always` (Raw too, where nothing is smaller).
fn segments_follow(frame: &Frame, compression: Compression) -> bool {
    let mut codes = Vec::new();
    (0..frame.num_dims())
        .flat_map(|j| frame.column(j).segments())
        .all(|seg| {
            codes.clear();
            seg.decode_range_into(0, seg.len(), &mut codes);
            match compression {
                Compression::Never => matches!(seg, Segment::Raw(_)),
                _ => *seg == Segment::encode(&codes),
            }
        })
}

/// Everything a mining run produces that must match bit for bit between
/// two schedules or encodings of the same request: the selected rule
/// sequence with selection-time gains/averages/counts, the KL trace, the
/// λ-update counts, the emitted-pair accounting, the iteration count and
/// the cancellation flag. (Wall-clock timings are excluded by
/// construction.)
type ResultBits = (
    Vec<(Vec<u32>, u64, u64, u64)>,
    Vec<u64>,
    Vec<usize>,
    u64,
    usize,
    bool,
);

fn result_bits(r: &MiningResult) -> ResultBits {
    // Independent of any second run: adding a rule to the max-entropy
    // model can only lower the divergence, so every mined trace must be
    // non-increasing (up to the scaling tolerance's float noise).
    for w in r.kl_trace.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9 * w[0].abs().max(1.0),
            "KL rose from {} to {} in {:?}",
            w[0],
            w[1],
            r.kl_trace
        );
    }
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
        r.scaling_iterations.clone(),
        r.ancestors_emitted,
        r.iterations,
        r.cancelled,
    )
}

/// How many staged configurations [`staged_config`] names.
const STAGED_CONFIGS: usize = 7;

/// Staged configuration `i` over an `n`-row table: the six staged Table
/// 4.2 variants, then staged full-cube enumeration.
fn staged_config(i: usize, n: usize) -> SirumConfig {
    let variants = [
        Variant::Naive,
        Variant::Baseline,
        Variant::Rct,
        Variant::FastPruning,
        Variant::FastAncestor,
        Variant::MultiRule,
    ];
    match variants.get(i) {
        Some(v) => v.config(3, n.min(5)),
        None => SirumConfig {
            k: 3,
            strategy: CandidateStrategy::FullCube,
            evaluation: Evaluation::Staged(StagedPipeline {
                broadcast_join: true,
                fast_pruning: true,
                column_groups: 2,
            }),
            ..SirumConfig::default()
        },
    }
}

#[test]
fn staged_mining_on_u128_codes_matches_rule_keys() {
    // Five dimensions whose dictionaries hold 5 000 values each need
    // 13 bits apiece: 65 bits, one past a u64, so the staged pipeline
    // keys its records by u128 codes. Rows use low and high codes alike.
    let d = 5;
    let names: Vec<String> = (0..d).map(|j| format!("a{j}")).collect();
    let mut b = Table::builder(Schema::try_new(names, "m").unwrap());
    for col in 0..d {
        for v in 0..5_000 {
            b.try_intern(col, &format!("v{v}")).unwrap();
        }
    }
    for i in 0..120u32 {
        let codes: Vec<u32> = (0..d as u32)
            .map(|j| [0, 1, 2, 4_096, 4_999][((i * (j + 3) + i / 7) % 5) as usize])
            .collect();
        b.try_push_coded_row(&codes, f64::from(i % 11) + 0.5)
            .unwrap();
    }
    let table = b.build();
    let layout = RuleLayout::from_cardinalities(table.frame().cards());
    assert_eq!(layout.packed_bits(), Some(128));
    for i in 0..STAGED_CONFIGS {
        for engine in [
            EngineConfig::in_memory().with_workers(2).with_partitions(3),
            EngineConfig::disk_mr().with_partitions(2),
        ] {
            let mine = |packed_codes: bool| {
                let config = SirumConfig {
                    packed_codes,
                    ..staged_config(i, table.num_rows())
                };
                Miner::new(Engine::try_new(engine.clone()).unwrap(), config)
                    .try_mine(&table)
                    .unwrap()
            };
            let packed = mine(true);
            assert!(packed.rules.len() > 1, "config {i} mined nothing");
            assert_eq!(
                result_bits(&packed),
                result_bits(&mine(false)),
                "config {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_and_rulekey_agree_under_midmine_cancellation(
        (table, stop_after, partitions) in small_table().prop_flat_map(|t| {
            (Just(t), 1usize..3, 1usize..5)
        })
    ) {
        // Cancelling at an iteration boundary must leave the same partial
        // result under packed and Rule-keyed sweep accumulators: same
        // rules mined so far, same KL trace, same cancelled flag.
        let n = table.num_rows();
        let mine = |packed_codes: bool| {
            let engine = Engine::try_new(
                EngineConfig::in_memory()
                    .with_workers(2)
                    .with_partitions(partitions),
            ).unwrap();
            let config = SirumConfig {
                k: 4,
                strategy: CandidateStrategy::SampleLca { sample_size: n.min(5) },
                packed_codes,
                ..SirumConfig::default()
            };
            Miner::new(engine, config)
                .with_observer(move |event| {
                    if event.iteration >= stop_after {
                        IterationDecision::Stop
                    } else {
                        IterationDecision::Continue
                    }
                })
                .try_mine(&table)
                .unwrap()
        };
        let (packed, rule_keyed) = (mine(true), mine(false));
        prop_assert_eq!(packed.cancelled, rule_keyed.cancelled);
        prop_assert_eq!(result_bits(&packed), result_bits(&rule_keyed));
    }

    #[test]
    fn compressed_and_raw_frame_mining_are_bit_identical(
        (table, variant_idx, partitions, workers) in small_table().prop_flat_map(|t| {
            (Just(t), 0usize..Variant::ALL.len(), 1usize..5, 1usize..4)
        })
    ) {
        // The tentpole claim of ISSUE 10: swapping the frame's physical
        // storage — bit-packed/RLE compressed segments decoded morsel by
        // morsel vs. raw u32 columns — changes NOTHING about the mining
        // output, for every Table 4.2 variant, partition count and worker
        // count. The morsel loops visit rows in the same order the flat
        // scans did, so every float accumulation associates identically.
        let variant = Variant::ALL[variant_idx];
        let n = table.num_rows();
        let mine = |compression: Compression| {
            let engine = Engine::try_new(
                EngineConfig::in_memory()
                    .with_workers(workers)
                    .with_partitions(partitions),
            ).unwrap();
            let prepared = PreparedTable::try_new_with(&table, compression).unwrap();
            assert!(segments_follow(prepared.frame(), compression));
            let config = variant.config(2, n.min(4));
            Miner::new(engine, config).try_mine_prepared(&prepared, &[]).unwrap()
        };
        prop_assert_eq!(
            result_bits(&mine(Compression::Always)),
            result_bits(&mine(Compression::Never))
        );
    }

    #[test]
    fn compressed_and_raw_frames_agree_under_midmine_cancellation(
        (table, stop_after, partitions) in small_table().prop_flat_map(|t| {
            (Just(t), 1usize..3, 1usize..5)
        })
    ) {
        // Cancelling at an iteration boundary must leave the same partial
        // result on compressed and raw frames alike.
        let n = table.num_rows();
        let mine = |compression: Compression| {
            let engine = Engine::try_new(
                EngineConfig::in_memory()
                    .with_workers(2)
                    .with_partitions(partitions),
            ).unwrap();
            let config = SirumConfig {
                k: 4,
                strategy: CandidateStrategy::SampleLca { sample_size: n.min(5) },
                ..SirumConfig::default()
            };
            let prepared = PreparedTable::try_new_with(&table, compression).unwrap();
            Miner::new(engine, config)
                .with_observer(move |event| {
                    if event.iteration >= stop_after {
                        IterationDecision::Stop
                    } else {
                        IterationDecision::Continue
                    }
                })
                .try_mine_prepared(&prepared, &[])
                .unwrap()
        };
        let compressed = mine(Compression::Always);
        let raw = mine(Compression::Never);
        prop_assert_eq!(compressed.cancelled, raw.cancelled);
        prop_assert_eq!(result_bits(&compressed), result_bits(&raw));
    }

    #[test]
    fn packed_and_rulekey_mining_are_bit_identical(
        (table, partitions, workers) in small_table().prop_flat_map(|t| {
            (Just(t), 1usize..5, 1usize..4)
        })
    ) {
        // The tentpole claim of ISSUE 6: interning rules as packed integer
        // codes on the sweep hot path changes NOTHING about the mining
        // output — selected rules, gains, KL trace, pair accounting — for
        // any partition count and any worker count.
        let n = table.num_rows();
        let mine = |packed_codes: bool| {
            let engine = Engine::try_new(
                EngineConfig::in_memory()
                    .with_workers(workers)
                    .with_partitions(partitions),
            ).unwrap();
            let config = SirumConfig {
                k: 3,
                strategy: CandidateStrategy::SampleLca { sample_size: n.min(5) },
                packed_codes,
                ..SirumConfig::default()
            };
            Miner::new(engine, config).try_mine(&table).unwrap()
        };
        prop_assert_eq!(result_bits(&mine(true)), result_bits(&mine(false)));
    }

    #[test]
    fn packed_and_rulekey_staged_mining_are_bit_identical(
        (table, config_idx, disk_mr, partitions, workers) in small_table().prop_flat_map(|t| {
            (Just(t), 0usize..STAGED_CONFIGS, any::<bool>(), 1usize..5, 1usize..5)
        })
    ) {
        // The staged pipeline carries packed codes through the LCA join,
        // every ancestor stage and adjust + gain; keyed by `Rule` instead,
        // every record must reach the same reducer at the same position,
        // so the output is the same to the last bit — for every staged
        // configuration, both engine modes and any partitioning.
        let config = staged_config(config_idx, table.num_rows());
        let mine = |packed_codes: bool| {
            let engine = if disk_mr {
                EngineConfig::disk_mr()
            } else {
                EngineConfig::in_memory()
            };
            let engine = Engine::try_new(engine.with_workers(workers).with_partitions(partitions)).unwrap();
            let config = SirumConfig { packed_codes, ..config.clone() };
            Miner::new(engine, config).try_mine(&table).unwrap()
        };
        prop_assert_eq!(result_bits(&mine(true)), result_bits(&mine(false)));
    }

    #[test]
    fn sweep_mining_output_is_thread_invariant(
        (table, partitions) in small_table().prop_flat_map(|t| (Just(t), 1usize..5))
    ) {
        // Selected rule sequence, selection-time gains and the KL trace
        // must be bit-identical between a 1-worker and a 4-worker engine
        // over the same partitioning.
        let n = table.num_rows();
        let mine = |workers: usize| {
            let engine = Engine::try_new(
                EngineConfig::in_memory()
                    .with_workers(workers)
                    .with_partitions(partitions),
            ).unwrap();
            let config = SirumConfig {
                k: 3,
                strategy: CandidateStrategy::SampleLca {
                    sample_size: n.min(5),
                },
                ..SirumConfig::default()
            };
            Miner::new(engine, config).try_mine(&table).unwrap()
        };
        let seq = mine(1);
        let par = mine(4);
        prop_assert_eq!(seq.rules.len(), par.rules.len());
        for (a, b) in seq.rules.iter().zip(&par.rules) {
            prop_assert_eq!(a.rule.values(), b.rule.values());
            prop_assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{:?}", a.rule);
            prop_assert_eq!(a.avg_measure.to_bits(), b.avg_measure.to_bits());
            prop_assert_eq!(a.count, b.count);
        }
        let bits = |r: &MiningResult| -> Vec<u64> {
            r.kl_trace.iter().map(|k| k.to_bits()).collect()
        };
        prop_assert_eq!(bits(&seq), bits(&par));
        prop_assert_eq!(seq.ancestors_emitted, par.ancestors_emitted);
    }
}

/// A DiskMr engine (every stage round-trips through disk) with a fixed
/// partition/worker shape, so two runs differ only in the cache budget and
/// the frames they scan — never in float accumulation order.
fn disk_engine(budget: Option<usize>, dir: &str) -> Engine {
    let mut config = EngineConfig::disk_mr()
        .with_partitions(4)
        .with_workers(2)
        .with_spill_dir(std::env::temp_dir().join(format!(
            "{dir}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )));
    config.memory_budget = budget;
    Engine::try_new(config).unwrap()
}

#[test]
fn eviction_pressure_reloads_compressed_segments_bit_identically() {
    // Bit-identity must survive real memory pressure: a budget far below
    // the working set forces compressed dimension blocks to evict to disk
    // and decode back mid-mine, and the result must still match an
    // unbudgeted run over raw columns bit for bit (same engine shape, so
    // the only variables are the storage format and the eviction churn).
    let table = sirum_table::generators::income_like(6_000, 23);
    let config = || SirumConfig {
        k: 3,
        strategy: CandidateStrategy::SampleLca { sample_size: 16 },
        ..SirumConfig::default()
    };
    let raw = PreparedTable::try_new_with(&table, Compression::Never).unwrap();
    let reference = Miner::new(disk_engine(None, "sirum-evict-ref"), config())
        .try_mine_prepared(&raw, &[])
        .unwrap();

    let compressed = PreparedTable::try_new_with(&table, Compression::Always).unwrap();
    assert!(compressed.frame().is_compressed());
    let miner = Miner::new(disk_engine(Some(48 << 10), "sirum-evict"), config());
    let starved = miner.try_mine_prepared(&compressed, &[]).unwrap();
    assert_eq!(result_bits(&reference), result_bits(&starved));

    let stats = miner.engine().store().memory_stats();
    assert!(stats.evictions > 0, "budget never forced an eviction");
    assert!(
        stats.spilled_bytes > 0,
        "nothing round-tripped through disk"
    );
}

/// An in-memory engine with a fixed partition/worker shape under `budget`,
/// spilling below a directory of its own named `dir`.
fn budget_engine(budget: Option<usize>, partitions: usize, dir: &str) -> Engine {
    let mut config = EngineConfig::in_memory()
        .with_partitions(partitions)
        .with_workers(2)
        .with_spill_dir(std::env::temp_dir().join(format!("{dir}-{}", std::process::id())));
    config.memory_budget = budget;
    Engine::try_new(config).unwrap()
}

/// A named way to damage the bytes of a file.
type Corruption = (&'static str, fn(&mut Vec<u8>));

#[test]
fn corrupt_spill_files_fail_a_mine_with_a_typed_error() {
    // A spilled block whose file is altered between iterations — cut short
    // or with one byte flipped — must end the mine with a dataflow error:
    // not a panic out of the decoder, and not a result mined on the
    // altered bytes.
    let corruptions: [Corruption; 2] = [
        ("truncate", |b| b.truncate(b.len() / 2)),
        ("flip", |b| {
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
        }),
    ];
    let table = sirum_table::generators::income_like(4_000, 23);
    let prepared = PreparedTable::try_new_with(&table, Compression::Always).unwrap();
    for (what, corrupt) in corruptions {
        let dir = format!("sirum-corrupt-spill-{what}");
        let engine = budget_engine(Some(48 << 10), 4, &dir);
        let root = engine.config().spill_dir.clone();
        let config = SirumConfig {
            k: 3,
            strategy: CandidateStrategy::SampleLca { sample_size: 16 },
            ..SirumConfig::default()
        };
        let miner = Miner::new(engine, config).with_observer(move |event| {
            if event.iteration == 1 {
                let mut files = 0;
                for store in std::fs::read_dir(&root).unwrap() {
                    for file in std::fs::read_dir(store.unwrap().path()).unwrap() {
                        let path = file.unwrap().path();
                        let mut bytes = std::fs::read(&path).unwrap();
                        corrupt(&mut bytes);
                        std::fs::write(&path, bytes).unwrap();
                        files += 1;
                    }
                }
                assert!(files > 0, "nothing spilled under the budget");
            }
            IterationDecision::Continue
        });
        let result = miner.try_mine_prepared(&prepared, &[]);
        assert!(
            matches!(result, Err(SirumError::Dataflow(_))),
            "{what}: {result:?}"
        );
    }
}

#[test]
fn spill_io_failure_under_pressure_is_a_typed_error() {
    // Break the store's spill directory after the engine comes up: the
    // first stage that must write through it poisons the store, and the
    // run surfaces a typed dataflow error instead of panicking or silently
    // mining on partial data.
    let root = std::env::temp_dir().join(format!("sirum-evict-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let engine = Engine::try_new(
        EngineConfig::disk_mr()
            .with_partitions(4)
            .with_memory_budget(48 << 10)
            .with_spill_dir(root.clone()),
    )
    .unwrap();
    // Replace the per-store subdirectory with a plain file so every
    // subsequent spill write fails with a real I/O error.
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        std::fs::remove_dir_all(&path).unwrap();
        std::fs::write(&path, b"not a directory").unwrap();
    }
    let table = sirum_table::generators::income_like(2_000, 23);
    let prepared = PreparedTable::try_new_with(&table, Compression::Always).unwrap();
    let config = SirumConfig {
        k: 2,
        strategy: CandidateStrategy::SampleLca { sample_size: 8 },
        ..SirumConfig::default()
    };
    let result = Miner::new(engine, config).try_mine_prepared(&prepared, &[]);
    assert!(matches!(result, Err(SirumError::Dataflow(_))), "{result:?}");
    let _ = std::fs::remove_dir_all(&root);
}
