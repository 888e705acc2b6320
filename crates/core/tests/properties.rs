//! Property-based tests (proptest) for SIRUM's core invariants: rule
//! algebra, lattice enumeration, sample-pruning exactness, and the
//! equivalence of the RCT scaler with naive iterative scaling.

use proptest::prelude::*;
use sirum_core::candidates::{
    adjust_for_sample, exhaustive_candidates, merge_agg, Agg, SampleIndex,
};
use sirum_core::gain::kl_divergence;
use sirum_core::lattice::{ancestors, ancestors_restricted, column_groups};
use sirum_core::miner::{
    CandidateStrategy, Evaluation, IterationDecision, Miner, SirumConfig, StagedPipeline,
};
use sirum_core::rct::{mhat_for_mask, Rct};
use sirum_core::rule::{Rule, RuleLayout, WILDCARD};
use sirum_core::scaling::{iterative_scaling, relative_diff, ScalingBackend, ScalingConfig};
use sirum_core::sweep::{sweep_gains, CombineStrategy, SweepOptions, SweepOutcome, SweepState};
use sirum_core::transform::MeasureTransform;
use sirum_core::{CancellationToken, PreparedTable, TupleBlock, Variant};
use sirum_dataflow::hash::FxHashMap;
use sirum_dataflow::{Dataset, Encode, Engine, EngineConfig};
use sirum_table::{Compression, Frame, Schema, Segment, Table};

const MAX_D: usize = 5;
const MAX_CARD: u32 = 4;

/// Strategy: a random tuple over `d` attributes with small domains.
fn tuple(d: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..MAX_CARD, d)
}

/// Strategy: a random rule (each position constant or wildcard).
fn rule(d: usize) -> impl Strategy<Value = Rule> {
    prop::collection::vec(prop_oneof![Just(WILDCARD), 0..MAX_CARD], d).prop_map(Rule::from_values)
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

/// The synthetic non-uniform estimate of global row `i`.
fn synthetic_mhat(i: usize) -> f64 {
    0.5 + (i % 7) as f64
}

/// Algorithm 1 as written, the per-row reference Algorithm 3 is checked
/// against: a dense estimate per row, every rule re-matched against every
/// row on every pass.
struct RowBackend<'a> {
    table: &'a Table,
    rules: &'a [Rule],
    mhat: Vec<f64>,
}

impl<'a> RowBackend<'a> {
    fn new(table: &'a Table, rules: &'a [Rule]) -> Self {
        let mhat = vec![1.0; table.num_rows()];
        RowBackend { table, rules, mhat }
    }
}

impl ScalingBackend for RowBackend<'_> {
    fn mhat_sums(&self, out: &mut [f64]) {
        out.fill(0.0);
        for (row, mh) in self.table.rows().zip(&self.mhat) {
            for (sum, rule) in out.iter_mut().zip(self.rules) {
                if rule.matches(&row) {
                    *sum += mh;
                }
            }
        }
    }

    fn scale(&mut self, i: usize, factor: f64) {
        for (row, mh) in self.table.rows().zip(&mut self.mhat) {
            if self.rules[i].matches(&row) {
                *mh *= factor;
            }
        }
    }
}

/// `Σ_{t⊨r} m′` per rule, by one scan of the table.
fn measure_sums(table: &Table, m_prime: &[f64], rules: &[Rule]) -> Vec<f64> {
    let mut out = vec![0.0; rules.len()];
    for (row, m) in table.rows().zip(m_prime) {
        for (sum, rule) in out.iter_mut().zip(rules) {
            if rule.matches(&row) {
                *sum += m;
            }
        }
    }
    out
}

/// `table` as the miner distributes it — one columnar block per partition
/// — with the [`synthetic_mhat`] estimate column.
fn sweep_blocks(engine: &Engine, table: &Table, partitions: usize) -> Dataset<TupleBlock> {
    sweep_blocks_with(engine, table, partitions, Compression::Never)
}

/// [`sweep_blocks`] over a frame stored under `compression`.
fn sweep_blocks_with(
    engine: &Engine,
    table: &Table,
    partitions: usize,
    compression: Compression,
) -> Dataset<TupleBlock> {
    sweep_blocks_mhat(engine, table, partitions, compression, synthetic_mhat)
}

/// [`sweep_blocks_with`] under the estimate column `mhat(global row)`.
fn sweep_blocks_mhat(
    engine: &Engine,
    table: &Table,
    partitions: usize,
    compression: Compression,
    mhat: fn(usize) -> f64,
) -> Dataset<TupleBlock> {
    let column: Vec<f64> = (0..table.num_rows()).map(mhat).collect();
    sweep_blocks_column(engine, table, partitions, compression, &column)
}

/// [`sweep_blocks_with`] under the estimate column `mhat`, one per row.
fn sweep_blocks_column(
    engine: &Engine,
    table: &Table,
    partitions: usize,
    compression: Compression,
    mhat: &[f64],
) -> Dataset<TupleBlock> {
    let frame = table.frame().with_compression(compression);
    let blocks = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), partitions)
        .into_iter()
        .map(|block| {
            let start = block.dims().start();
            block.with_mhat(mhat[start..start + block.len()].to_vec())
        })
        .collect();
    Dataset::from_partitioned(engine, blocks)
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

/// Every way [`SweepOptions`] can key the sweep's hot-path accumulators
/// for `table`: the `Rule`-keyed maps, packed codes with the per-partition
/// combine choice, and packed codes with each combine strategy forced. All must produce bit-identical output.
fn sweep_variants(table: &Table) -> Vec<SweepOptions> {
    let cards: Vec<u32> = table.cardinalities().iter().map(|&c| c as u32).collect();
    let packed = SweepOptions::packed(RuleLayout::from_cardinalities(&cards));
    vec![
        SweepOptions::rule_keyed(),
        packed.clone(),
        packed.clone().with_combine(CombineStrategy::HashProbe),
        packed.with_combine(CombineStrategy::SlotTable),
    ]
}

/// Canonical, comparable form of a sweep's candidate list: per candidate
/// `(rule values, Σm bits, Σm̂ bits, count)`.
type SweepBits = Vec<(Vec<u32>, u64, u64, u64)>;

/// A sweep's candidate list **in the order it came**, float sums taken to
/// bits, so equality means *bit* equality and the same order.
fn ordered_sweep_bits(out: &SweepOutcome) -> SweepBits {
    out.candidates
        .iter()
        .map(|(r, sm, smh, c)| (r.values().to_vec(), sm.to_bits(), smh.to_bits(), *c))
        .collect()
}

/// Canonical, comparable form of a sweep's candidate list: sorted by rule
/// with float sums taken to bits, so equality means *bit* equality.
fn sweep_bits(out: &SweepOutcome) -> SweepBits {
    let mut v = ordered_sweep_bits(out);
    v.sort();
    v
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

fn result_bits(r: &sirum_core::MiningResult) -> ResultBits {
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
    assert!(!layout.fits::<u64>() && layout.fits::<u128>());
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
    fn packed_layout_round_trips_and_preserves_rule_order(
        (cards, seeds) in prop::collection::vec(1u32..(1u32 << 28), 1..10)
            .prop_flat_map(|cards| {
                let d = cards.len();
                let rules = prop::collection::vec(
                    prop::collection::vec(any::<u64>(), d),
                    2..16,
                );
                (Just(cards), rules)
            })
    ) {
        // Random dictionaries: widths span the u64 / u128 / fallback
        // regimes (up to 9 dims × ≤28 bits). Wherever the layout fits,
        // pack → unpack is the identity and packed integer order is
        // exactly lexicographic rule-value order (WILDCARD last), which is
        // what lets the sweep sort codes instead of rules.
        let layout = RuleLayout::from_cardinalities(&cards);
        let total: u32 = cards.iter().map(|&c| (32 - c.leading_zeros()).max(1)).sum();
        prop_assert_eq!(layout.total_bits(), total);
        prop_assert_eq!(layout.fits::<u64>(), total <= 64);
        prop_assert_eq!(layout.fits::<u128>(), total <= 128);
        if layout.fits::<u128>() {
            // Each dim's value drawn from {0..card-1} ∪ {WILDCARD}.
            let rules_vals: Vec<Vec<u32>> = seeds
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&cards)
                        .map(|(&s, &c)| {
                            let v = (s % (u64::from(c) + 1)) as u32;
                            if v == c { WILDCARD } else { v }
                        })
                        .collect()
                })
                .collect();
            let mut coded: Vec<(u128, Vec<u32>)> = rules_vals
                .iter()
                .map(|v| (layout.pack::<u128>(v), v.clone()))
                .collect();
            for (code, vals) in &coded {
                prop_assert_eq!(layout.unpack(*code).values(), &vals[..]);
            }
            if layout.fits::<u64>() {
                for (code, vals) in &coded {
                    let narrow: u64 = layout.pack(vals);
                    prop_assert_eq!(u128::from(narrow), *code);
                    prop_assert_eq!(layout.unpack(narrow).values(), &vals[..]);
                }
            }
            let by_values = {
                let mut v = coded.clone();
                v.sort_by(|a, b| a.1.cmp(&b.1));
                v.into_iter().map(|(_, vals)| vals).collect::<Vec<_>>()
            };
            coded.sort_by_key(|(code, _)| *code);
            let by_code: Vec<Vec<u32>> = coded.into_iter().map(|(_, vals)| vals).collect();
            prop_assert_eq!(by_code, by_values);
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_the_sequential_reference(
        (table, picks, partitions, workers) in small_table().prop_flat_map(|t| {
            let n = t.num_rows();
            (
                Just(t),
                prop::collection::vec(0..n, 1..6),
                1usize..7,
                1usize..5,
            )
        })
    ) {
        // The tentpole determinism claim: per-candidate (Σm, Σm̂) from the
        // engine-parallel sweep equal the sequential reference — the same
        // sweep on a one-worker engine, which runs every task inline on
        // the calling thread in partition order — BIT FOR BIT for any
        // table, partition count and worker count, and across every
        // accumulator-key representation (Rule-keyed, packed u64
        // slot-table, packed hash-probe).
        let d = table.num_dims();
        let sample: Vec<Box<[u32]>> = picks
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, d);
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
        let data = sweep_blocks(&engine, &table, partitions);
        let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
        let seq_data = sweep_blocks(&sequential, &table, partitions);
        for idx in [Some(&index), None] {
            let mut baseline: Option<SweepBits> = None;
            for opts in sweep_variants(&table) {
                let par = sweep_gains(&data, d, idx, None, &opts);
                let seq = sweep_gains(&seq_data, d, idx, None, &opts);
                prop_assert_eq!(par.pairs_emitted, seq.pairs_emitted);
                prop_assert_eq!(par.distinct_candidates, seq.distinct_candidates);
                let par_bits = sweep_bits(&par);
                prop_assert_eq!(&par_bits, &sweep_bits(&seq));
                match &baseline {
                    None => baseline = Some(par_bits),
                    Some(b) => prop_assert_eq!(b, &par_bits),
                }
            }
        }
    }

    #[test]
    fn combine_strategies_agree_across_frames_and_under_cancellation(
        (table, picks, partitions, workers, compressed) in small_table().prop_flat_map(|t| {
            let n = t.num_rows();
            (
                Just(t),
                prop::collection::vec(0..n, 1..6),
                1usize..7,
                1usize..5,
                any::<bool>(),
            )
        })
    ) {
        // The tentpole claim of ISSUE 15: addressing stage-1 accumulators
        // by (sample row, match mask) instead of hashing a code per pair
        // changes NOTHING. Forced slot-table ≡ forced hash-probe ≡ the
        // per-partition choice (which mixes slot-table and hashed
        // partitions on these sizes) ≡ Rule-keyed: candidates
        // bit for bit AND in the same order, the same pair accounting —
        // on raw and compressed frames, for any partitioning and worker
        // count — and the same outcome when a token fires at any poll.
        let d = table.num_dims();
        // Duplicate picks stay in: they are the "two sample rows, one
        // slot" case.
        let sample: Vec<Box<[u32]>> = picks
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, d);
        let compression = if compressed { Compression::Always } else { Compression::Never };
        let ordered = ordered_sweep_bits;
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
        let data = sweep_blocks_with(&engine, &table, partitions, compression);
        let mut baseline = None;
        for opts in sweep_variants(&table) {
            let out = sweep_gains(&data, d, Some(&index), None, &opts);
            prop_assert!(!out.cancelled);
            let got = (ordered(&out), out.pairs_emitted, out.distinct_candidates);
            match &baseline {
                None => baseline = Some(got),
                Some(b) => prop_assert_eq!(b, &got, "{:?}", opts),
            }
        }
        // A one-worker engine polls in a fixed sequence (each combine
        // task's boundary, then stage 2's, then once per window of links
        // the key-generic plan build and fold go through), so a
        // poll-budget token stops every variant at the same point.
        let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
        let seq_data = sweep_blocks_with(&sequential, &table, partitions, compression);
        for polls in 1..=(2 * partitions as u64 + 1) {
            let mut baseline = None;
            for opts in sweep_variants(&table) {
                let token = CancellationToken::new();
                token.cancel_after_polls(polls);
                let out = sweep_gains(&seq_data, d, Some(&index), Some(&token), &opts);
                let got = (out.cancelled, out.pairs_emitted, ordered(&out));
                match &baseline {
                    None => baseline = Some(got),
                    Some(b) => prop_assert_eq!(b, &got, "{:?} after {} polls", opts, polls),
                }
            }
        }
    }

    #[test]
    fn a_reused_sweep_plan_is_a_fresh_sweep(
        (table, picks, partitions, workers, compressed) in small_table().prop_flat_map(|t| {
            let n = t.num_rows();
            (
                Just(t),
                prop::collection::vec(0..n, 1..6),
                1usize..7,
                1usize..5,
                any::<bool>(),
            )
        })
    ) {
        // The tentpole claim of ISSUE 18: what stage 2 keeps between the
        // iterations of a mine — links, canonical order, multiplicities,
        // Σm, support counts — changes NOTHING. One state swept at m̂₁ and
        // then at m̂₂ equals a one-shot sweep at m̂₂: candidates bit for bit
        // AND in order, pair accounting, candidate count — for every key
        // type and combine strategy, with and without a sample (duplicate
        // picks kept), on raw and compressed frames, for any partitioning
        // and worker count — and whenever a token stops the reused sweep
        // it stops a fresh one with the same outcome.
        let d = table.num_dims();
        let sample: Vec<Box<[u32]>> = picks
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, d);
        let compression = if compressed { Compression::Always } else { Compression::Never };
        let other_mhat: fn(usize) -> f64 = |i| 0.25 + 1.5 * (i % 5) as f64;
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
        let sequential = Engine::try_new(EngineConfig::in_memory().with_workers(1)).unwrap();
        let blocks = |engine, mhat| sweep_blocks_mhat(engine, &table, partitions, compression, mhat);
        let (first, second) = (blocks(&engine, synthetic_mhat), blocks(&engine, other_mhat));
        let (seq_first, seq_second) =
            (blocks(&sequential, synthetic_mhat), blocks(&sequential, other_mhat));
        let all = |sums: &[Agg]| (0..sums.len()).collect::<Vec<usize>>();
        let whole = |out: &SweepOutcome| {
            (out.cancelled, out.pairs_emitted, out.distinct_candidates, ordered_sweep_bits(out))
        };
        let armed = |polls: u64| {
            let token = CancellationToken::new();
            token.cancel_after_polls(polls);
            token
        };
        // More polls than any sweep of these tables makes.
        let poll_budgets = 1..=(partitions as u64 + 32);
        for idx in [Some(&index), None] {
            for opts in sweep_variants(&table) {
                let fresh = whole(&sweep_gains(&second, d, idx, None, &opts));
                let mut state = SweepState::new(d, idx, &opts);
                let built = state.sweep(&first, None, all);
                prop_assert_eq!(whole(&built), whole(&sweep_gains(&first, d, idx, None, &opts)));
                prop_assert_ne!(&whole(&built), &fresh);
                prop_assert_eq!(&whole(&state.sweep(&second, None, all)), &fresh, "{:?}", opts);

                // A token firing at each poll of the reused sweep in turn
                // (fixed sequence on one worker; a cancelled fold leaves
                // the plan in place for the next budget).
                let mut state = SweepState::new(d, idx, &opts);
                state.sweep(&seq_first, None, all);
                let mut completed = false;
                for polls in poll_budgets.clone() {
                    let reused = state.sweep(&seq_second, Some(&armed(polls)), all);
                    if !reused.cancelled {
                        prop_assert_eq!(&whole(&reused), &fresh, "{:?}", opts);
                        completed = true;
                        break;
                    }
                    let one_shot = sweep_gains(&seq_second, d, idx, Some(&armed(polls)), &opts);
                    prop_assert_eq!(whole(&reused), whole(&one_shot), "{:?} after {} polls", opts, polls);
                }
                prop_assert!(completed);

                // A state cancelled before it has a plan — in combine, at
                // stage 2's boundary or part-way through the build — holds
                // no half-built one: its next sweep matches a fresh one.
                completed = false;
                for polls in poll_budgets.clone() {
                    let mut state = SweepState::new(d, idx, &opts);
                    completed = !state.sweep(&seq_second, Some(&armed(polls)), all).cancelled;
                    prop_assert_eq!(&whole(&state.sweep(&seq_second, None, all)), &fresh, "{:?}", opts);
                    if completed {
                        break;
                    }
                }
                prop_assert!(completed);
            }
        }
    }

    #[test]
    fn rows_sharing_an_estimate_are_counted_not_scanned(
        (table, picks, masks, lambdas, partitions, workers) in small_table().prop_flat_map(|t| {
            let n = t.num_rows();
            (
                Just(t),
                prop::collection::vec(0..n, 1..6),
                prop::collection::vec(0u64..8, n),
                prop::collection::vec(0.25f64..4.0, 3),
                1usize..7,
                1usize..5,
            )
        })
    ) {
        // The tentpole claim of ISSUE 24: a sweep told the estimate most
        // rows carry passes over those rows and accounts for them as
        // `est · pairs`, and that changes nothing but Σm̂'s rounding. Rows
        // get random rule-coverage bit arrays and the estimate the RCT
        // write-out gives them, m̂ = ∏ λᵢ over the set bits; the state is
        // built at another m̂ and then told the largest group's estimate.
        let d = table.num_dims();
        let sample: Vec<Box<[u32]>> = picks
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, d);
        let mhat: Vec<f64> = masks.iter().map(|&mask| mhat_for_mask(mask, &lambdas)).collect();
        let mut group_sizes = [0usize; 8];
        masks.iter().for_each(|&mask| group_sizes[mask as usize] += 1);
        let largest = (0..8).rev().max_by_key(|&mask| group_sizes[mask]).unwrap();
        let shared = mhat_for_mask(largest as u64, &lambdas);
        let carried = mhat.iter().filter(|mh| mh.to_bits() == shared.to_bits()).count();
        prop_assert!(carried >= group_sizes[largest] && carried > 0);

        let all = |sums: &[Agg]| (0..sums.len()).collect::<Vec<usize>>();
        let whole = |out: &SweepOutcome| {
            (out.cancelled, out.pairs_emitted, out.distinct_candidates, ordered_sweep_bits(out))
        };
        // Every frame encoding and worker count, as (blocks at the synthetic
        // m̂, blocks at `mhat`); the first pair is raw on one worker.
        let mut datasets = Vec::new();
        for compression in [Compression::Never, Compression::Always] {
            for workers in [1, workers] {
                let engine = Engine::try_new(EngineConfig::in_memory().with_workers(workers)).unwrap();
                datasets.push((
                    sweep_blocks_with(&engine, &table, partitions, compression),
                    sweep_blocks_column(&engine, &table, partitions, compression, &mhat),
                ));
            }
        }
        for idx in [Some(&index), None] {
            // Under the same estimate every key type, combine strategy,
            // frame encoding and worker count gives the same bits.
            let mut counted: Option<SweepOutcome> = None;
            for opts in sweep_variants(&table) {
                for (first, second) in &datasets {
                    // One state per sweep: built at the synthetic m̂, told
                    // `estimate`, swept at `mhat`.
                    let told = |estimate| {
                        let mut state = SweepState::new(d, idx, &opts);
                        state.sweep(first, None, all);
                        state.set_shared_estimate(Some(estimate));
                        state.sweep(second, None, all)
                    };
                    let fresh = sweep_gains(second, d, idx, None, &opts);
                    // An estimate no row carries — whatever it is —
                    // skips nothing: the full scan's bits.
                    for nobodys in [f64::NAN, -1.0, f64::INFINITY] {
                        let out = told(nobodys);
                        prop_assert_eq!(whole(&out), whole(&fresh), "{:?} {}", opts, nobodys);
                    }
                    // The largest group's: exact in everything but Σm̂,
                    // which moves in its last places only.
                    let out = told(shared);
                    prop_assert_eq!(
                        (out.cancelled, out.pairs_emitted, out.distinct_candidates),
                        (false, fresh.pairs_emitted, fresh.distinct_candidates)
                    );
                    prop_assert_eq!(out.candidates.len(), fresh.candidates.len());
                    for (c, f) in out.candidates.iter().zip(&fresh.candidates) {
                        prop_assert_eq!((&c.0, c.1.to_bits(), c.3), (&f.0, f.1.to_bits(), f.3));
                        prop_assert!(
                            (c.2 - f.2).abs() <= 1e-12 * f.2.abs(),
                            "{:?}: {} vs {} ({:?})", c.0, c.2, f.2, opts
                        );
                    }
                    match &counted {
                        None => counted = Some(out),
                        Some(b) => prop_assert_eq!(whole(b), whole(&out), "{:?}", opts),
                    }
                }
            }
            let counted = whole(&counted.expect("at least one variant"));

            // A token firing at each poll of the skipping sweep in turn
            // (fixed sequence on one worker): cancelled and empty, or the
            // un-cancelled outcome — and the plan still serves the next.
            let (first, second) = &datasets[0];
            for opts in sweep_variants(&table) {
                let mut state = SweepState::new(d, idx, &opts);
                state.sweep(first, None, all);
                state.set_shared_estimate(Some(shared));
                let mut completed = false;
                for polls in 1..=(partitions as u64 + 32) {
                    let token = CancellationToken::new();
                    token.cancel_after_polls(polls);
                    let out = state.sweep(second, Some(&token), all);
                    if !out.cancelled {
                        prop_assert_eq!(&whole(&out), &counted, "{:?}", opts);
                        completed = true;
                        break;
                    }
                    prop_assert_eq!(
                        (out.candidates.len(), out.pairs_emitted, out.distinct_candidates),
                        (0, 0, 0)
                    );
                    prop_assert_eq!(
                        &whole(&state.sweep(second, None, all)), &counted,
                        "{:?} after {} polls", opts, polls
                    );
                }
                prop_assert!(completed);
            }
        }
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
        let bits = |r: &sirum_core::MiningResult| -> Vec<u64> {
            r.kl_trace.iter().map(|k| k.to_bits()).collect()
        };
        prop_assert_eq!(bits(&seq), bits(&par));
        prop_assert_eq!(seq.ancestors_emitted, par.ancestors_emitted);
    }

    #[test]
    fn sweep_aggregates_equal_the_exhaustive_reference(
        (table, picks) in small_table().prop_flat_map(|t| {
            let n = t.num_rows();
            (Just(t), prop::collection::vec(0..n, 1..6))
        })
    ) {
        // Semantic exactness: the sweep's adjusted sums equal the exact
        // support-set sums of the exhaustive reference aggregation.
        let d = table.num_dims();
        let mhat: Vec<f64> = (0..table.num_rows()).map(synthetic_mhat).collect();
        let sample: Vec<Box<[u32]>> = picks
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample, d);
        let engine = Engine::try_new(EngineConfig::in_memory().with_workers(2)).unwrap();
        let data = sweep_blocks(&engine, &table, 3);
        let exhaustive = exhaustive_candidates(&table, &mhat, None).expect("uncancelled");
        for opts in sweep_variants(&table) {
            let out = sweep_gains(&data, d, Some(&index), None, &opts);
            for (rule, sum_m, sum_mhat, count) in &out.candidates {
                let (em, emh, ec) = exhaustive[rule];
                prop_assert!((sum_m - em).abs() < 1e-6, "{:?}: {} vs {}", rule, sum_m, em);
                prop_assert!((sum_mhat - emh).abs() < 1e-6, "{:?}", rule);
                prop_assert_eq!(*count, ec, "{:?}", rule);
            }
        }
    }

    #[test]
    fn lca_is_a_common_ancestor((a, b) in (1usize..=MAX_D).prop_flat_map(|d| (tuple(d), tuple(d)))) {
        let lca = Rule::lca(&a, &b);
        prop_assert!(lca.matches(&a));
        prop_assert!(lca.matches(&b));
    }

    #[test]
    fn lca_is_least((a, b, r) in (1usize..=MAX_D).prop_flat_map(|d| (tuple(d), tuple(d), rule(d)))) {
        // Any rule covering both tuples is an ancestor of their LCA.
        let lca = Rule::lca(&a, &b);
        if r.matches(&a) && r.matches(&b) {
            prop_assert!(r.is_ancestor_of(&lca), "{r:?} not ancestor of {lca:?}");
        }
    }

    #[test]
    fn ancestor_count_is_two_to_the_constants(r in (1usize..=MAX_D).prop_flat_map(rule)) {
        let anc = ancestors(&r);
        prop_assert_eq!(anc.len(), 1usize << r.num_constants());
        // All distinct, all ancestors, and the rule itself is included.
        let mut seen = std::collections::HashSet::new();
        for a in &anc {
            prop_assert!(a.is_ancestor_of(&r));
            prop_assert!(seen.insert(a.clone()));
        }
        prop_assert!(anc.contains(&r));
        prop_assert!(anc.contains(&Rule::all_wildcards(r.arity())));
    }

    #[test]
    fn ancestors_are_exactly_the_matching_rules(t in (1usize..=3usize).prop_flat_map(tuple)) {
        // For a full tuple, its lattice = every rule that matches it.
        let base = Rule::from_tuple(&t);
        let anc: std::collections::HashSet<Rule> = ancestors(&base).into_iter().collect();
        // Enumerate all rules over the tuple's arity and cross-check.
        let d = t.len();
        let mut all = vec![Vec::<u32>::new()];
        for _ in 0..d {
            let mut next = Vec::new();
            for prefix in &all {
                for v in (0..MAX_CARD).chain([WILDCARD]) {
                    let mut p = prefix.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            all = next;
        }
        for vals in all {
            let r = Rule::from_values(vals);
            prop_assert_eq!(r.matches(&t), anc.contains(&r), "{:?}", r);
        }
    }

    #[test]
    fn staged_generation_equals_single_stage(
        (r, g, seed) in (1usize..=MAX_D).prop_flat_map(|d| (rule(d), 1usize..=d, any::<u64>()))
    ) {
        // Appendix A: column-grouped expansion yields the same set, with
        // each ancestor produced exactly once.
        let d = r.arity();
        let groups = column_groups(d, g, seed);
        let mut staged = vec![r.clone()];
        for group in &groups {
            let mut next = Vec::new();
            for rule in &staged {
                next.extend(ancestors_restricted(rule, group));
            }
            staged = next;
        }
        let mut full = ancestors(&r);
        prop_assert_eq!(staged.len(), full.len(), "uniqueness (Appendix A)");
        staged.sort_by(|a, b| a.values().cmp(b.values()));
        full.sort_by(|a, b| a.values().cmp(b.values()));
        prop_assert_eq!(staged, full);
    }

    #[test]
    fn disjoint_rules_never_share_tuples(
        (a, b, t) in (1usize..=MAX_D).prop_flat_map(|d| (rule(d), rule(d), tuple(d)))
    ) {
        if a.is_disjoint(&b) {
            prop_assert!(!(a.matches(&t) && b.matches(&t)));
        }
    }

    #[test]
    fn disjointness_is_symmetric_and_irreflexive(
        (a, b) in (1usize..=MAX_D).prop_flat_map(|d| (rule(d), rule(d)))
    ) {
        prop_assert_eq!(a.is_disjoint(&b), b.is_disjoint(&a));
        prop_assert!(!a.is_disjoint(&a));
    }

    #[test]
    fn sample_pruned_aggregates_are_exact(
        (table, picks) in small_table().prop_flat_map(|t| {
            let n = t.num_rows();
            (Just(t), prop::collection::vec(0..n, 1..6))
        })
    ) {
        // §3.1.1 multiplicity adjustment: candidate aggregates after
        // division by the sample match count equal exact support sums.
        let d = table.num_dims();
        let mhat: Vec<f64> = (0..table.num_rows()).map(synthetic_mhat).collect();
        let sample: Vec<Box<[u32]>> = picks
            .iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect();
        let index = SampleIndex::build(sample.clone(), d);
        // LCA(s, D) with pair-level aggregates, then every ancestor.
        let mut lcas: FxHashMap<Rule, Agg> = FxHashMap::default();
        for (i, row) in table.rows().enumerate() {
            for s in &sample {
                let agg = lcas.entry(Rule::lca(s, &row)).or_insert((0.0, 0.0, 0));
                merge_agg(agg, (table.measure(i), mhat[i], 1));
            }
        }
        let mut cands: FxHashMap<Rule, Agg> = FxHashMap::default();
        for (rule, agg) in &lcas {
            for anc in ancestors(rule) {
                merge_agg(cands.entry(anc).or_insert((0.0, 0.0, 0)), *agg);
            }
        }
        let adjusted = adjust_for_sample(cands, &index);
        let exhaustive =
            exhaustive_candidates(&table.with_measure(table.measures().to_vec()), &mhat, None)
                .expect("uncancelled");
        for (rule, sum_m, sum_mhat, count) in adjusted {
            let (em, emh, ec) = exhaustive[&rule];
            prop_assert!((sum_m - em).abs() < 1e-6, "{:?}: {} vs {}", rule, sum_m, em);
            prop_assert!((sum_mhat - emh).abs() < 1e-6);
            prop_assert_eq!(count, ec);
        }
    }

    #[test]
    fn rct_and_naive_scaling_agree(table in small_table()) {
        // Build a model from the all-wildcards rule plus up to 3 supported
        // single-constant rules; both scalers must converge to the same
        // multipliers and estimates.
        let d = table.num_dims();
        let (_tr, m_prime) = MeasureTransform::try_fit(table.measures()).unwrap();
        let mut rules = vec![Rule::all_wildcards(d)];
        'outer: for col in 0..d {
            for code in 0..MAX_CARD {
                if rules.len() >= 4 {
                    break 'outer;
                }
                let mut vals = vec![WILDCARD; d];
                vals[col] = code;
                let r = Rule::from_values(vals);
                // Only rules with positive measure mass are constrainable.
                let mass: f64 = table
                    .rows()
                    .enumerate()
                    .filter(|(_, row)| r.matches(row))
                    .map(|(i, _)| m_prime[i])
                    .sum();
                if mass > 0.0 {
                    rules.push(r);
                }
            }
        }
        let m_sums = measure_sums(&table, &m_prime, &rules);
        let cfg = ScalingConfig { epsilon: 1e-9, max_iterations: 200_000 };

        let mut naive_lambdas = vec![1.0; rules.len()];
        let mut backend = RowBackend::new(&table, &rules);
        let naive_out = iterative_scaling(&mut backend, &m_sums, &mut naive_lambdas, &cfg, None);

        let masks: Vec<u64> = table
            .rows()
            .map(|row| {
                rules.iter().enumerate().fold(0u64, |mask, (i, r)| {
                    if r.matches(&row) { mask | (1 << i) } else { mask }
                })
            })
            .collect();
        let mut rct = Rct::build(&masks, &m_prime, &vec![1.0; table.num_rows()]);
        let mut rct_lambdas = vec![1.0; rules.len()];
        let rct_out = iterative_scaling(&mut rct, &m_sums, &mut rct_lambdas, &cfg, None);

        prop_assert_eq!(naive_out.converged, rct_out.converged);
        if naive_out.converged {
            for (i, &mask) in masks.iter().enumerate() {
                let via_rct = mhat_for_mask(mask, &rct_lambdas);
                prop_assert!(
                    (via_rct - backend.mhat[i]).abs() < 1e-5,
                    "tuple {}: {} vs {}", i, via_rct, backend.mhat[i]
                );
            }
        }
    }

    #[test]
    fn scaling_constraints_hold_at_convergence(table in small_table()) {
        let d = table.num_dims();
        let (_tr, m_prime) = MeasureTransform::try_fit(table.measures()).unwrap();
        let rules = vec![Rule::all_wildcards(d)];
        let m_sums = measure_sums(&table, &m_prime, &rules);
        let cfg = ScalingConfig { epsilon: 1e-9, max_iterations: 100_000 };
        let mut lambdas = vec![1.0];
        let mut backend = RowBackend::new(&table, &rules);
        let out = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None);
        prop_assert!(out.converged);
        let mhat_sums: f64 = backend.mhat.iter().sum();
        prop_assert!(relative_diff(m_sums[0], mhat_sums) <= 1e-9);
        // KL of the fitted model never exceeds KL of the uniform model.
        let uniform = vec![1.0; table.num_rows()];
        let kl_fit = kl_divergence(&m_prime, &backend.mhat);
        let kl_uniform = kl_divergence(&m_prime, &uniform);
        prop_assert!(kl_fit <= kl_uniform + 1e-9);
    }

    #[test]
    fn measure_transform_is_sound(ms in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let (tr, out) = MeasureTransform::try_fit(&ms).unwrap();
        prop_assert!(out.iter().all(|&v| v >= 0.0));
        prop_assert!(out.iter().sum::<f64>() != 0.0);
        // Averages invert exactly.
        let avg_orig: f64 = ms.iter().sum::<f64>() / ms.len() as f64;
        let avg_new: f64 = out.iter().sum::<f64>() / out.len() as f64;
        prop_assert!((tr.invert_avg(avg_new) - avg_orig).abs() < 1e-9);
    }

    #[test]
    fn exhaustive_aggregates_cover_all_mass(table in small_table()) {
        // Each tuple contributes to exactly C(d, l) lattice elements with l
        // constants, so the level-l sum of the exhaustive aggregation must
        // equal C(d, l) × (total mass).
        let n = table.num_rows();
        let mhat = vec![1.0; n];
        let cands = exhaustive_candidates(&table, &mhat, None).expect("uncancelled");
        let total: f64 = table.measures().iter().sum();
        let d = table.num_dims();
        let binom = |n: usize, k: usize| -> f64 {
            let mut v = 1.0;
            for i in 0..k {
                v = v * (n - i) as f64 / (i + 1) as f64;
            }
            v
        };
        for level in 0..=d {
            let level_sum: f64 = cands
                .iter()
                .filter(|(r, _)| r.num_constants() == level)
                .map(|(_, (sm, _, _))| *sm)
                .sum();
            let expect = binom(d, level) * total;
            prop_assert!(
                (level_sum - expect).abs() < 1e-6 * (1.0 + expect.abs()),
                "level {}: {} vs {}", level, level_sum, expect
            );
        }
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

#[test]
fn a_budget_that_holds_one_generation_spills_nothing() {
    // A scaling rewrite frees the generation it replaces before it caches
    // the new one, so the block store holds one generation at a time and
    // a budget of 1.5 generations never evicts. Both rewrite paths: the
    // RCT's `update_ba` + `write_mhat` swaps (Optimized) and Algorithm 1's
    // `scale_mhat` swap per λ update (Baseline), on raw and compressed
    // frames — a compressed block is charged its overlapping segments.
    const PARTITIONS: usize = 4;
    let table = sirum_table::generators::income_like(1_500, 29);
    for compression in [Compression::Never, Compression::Always] {
        let prepared = PreparedTable::try_new_with(&table, compression).unwrap();
        let generation: usize =
            TupleBlock::seed_partitions(prepared.frame(), &prepared.m_prime_slice(), PARTITIONS)
                .iter()
                .map(Encode::size_estimate)
                .sum();
        let budget = generation * 3 / 2;
        for variant in [Variant::Optimized, Variant::Baseline] {
            let mine = |budget: Option<usize>, dir: &str| {
                let miner = Miner::new(
                    budget_engine(budget, PARTITIONS, dir),
                    variant.config(3, 16),
                );
                let result = miner.try_mine_prepared(&prepared, &[]).unwrap();
                (result, miner)
            };
            let (reference, _) = mine(None, "sirum-one-gen-ref");
            let (budgeted, miner) = mine(Some(budget), "sirum-one-gen");
            let case = format!("{variant:?} {compression:?}");
            assert!(
                reference.scaling_iterations.iter().sum::<usize>() > 0,
                "{case}"
            );
            assert_eq!(result_bits(&reference), result_bits(&budgeted), "{case}");
            let store = miner.engine().store();
            let stats = store.memory_stats();
            assert_eq!(stats.evictions, 0, "{case}: {stats:?} under {budget} B");
            assert_eq!(stats.spilled_bytes, 0, "{case}: {stats:?} under {budget} B");
            let peak = store.trace().iter().map(|s| s.resident_bytes).max();
            assert!(
                peak.is_some_and(|p| p <= budget),
                "{case}: peak {peak:?} over {budget} B"
            );
            store.cleanup();
        }
    }
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
            matches!(result, Err(sirum_core::SirumError::Dataflow(_))),
            "{what}: {result:?}"
        );
        miner.engine().store().cleanup();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_randomly_corrupted_spill_file_fails_typed_or_changes_nothing(
        (rows, seed, compressed) in (800usize..2_000, any::<u64>(), any::<bool>()),
        (eighths, iteration) in (1usize..4, 1usize..4),
        (which, how, offset) in (any::<u64>(), 0u8..3, any::<u64>()),
        noise in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        // A random table mined under a budget of 1/8 to 3/8 of one
        // generation, so most blocks live on disk. After a random
        // iteration one random spill file gets one random corruption: a
        // byte flipped, the file cut short, or bytes appended. The mine
        // must end with a dataflow error, or — where the damaged bytes are
        // never read, or are read and still verify — with the unbudgeted
        // result; never with a panic or another rule set.
        const PARTITIONS: usize = 4;
        let table = sirum_table::generators::income_like(rows, seed);
        let compression = if compressed { Compression::Always } else { Compression::Never };
        let prepared = PreparedTable::try_new_with(&table, compression).unwrap();
        let generation: usize =
            TupleBlock::seed_partitions(prepared.frame(), &prepared.m_prime_slice(), PARTITIONS)
                .iter()
                .map(Encode::size_estimate)
                .sum();
        let config = || SirumConfig {
            k: 3,
            strategy: CandidateStrategy::SampleLca { sample_size: 16 },
            ..SirumConfig::default()
        };
        let reference = Miner::new(budget_engine(None, PARTITIONS, "sirum-random-spill-ref"), config())
            .try_mine_prepared(&prepared, &[])
            .unwrap();
        let engine = budget_engine(Some(generation * eighths / 8), PARTITIONS, "sirum-random-spill");
        let root = engine.config().spill_dir.clone();
        let miner = Miner::new(engine, config()).with_observer(move |event| {
            if event.iteration == iteration {
                let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&root)
                    .unwrap()
                    .flat_map(|store| std::fs::read_dir(store.unwrap().path()).unwrap())
                    .map(|file| file.unwrap().path())
                    .collect();
                files.sort();
                assert!(!files.is_empty(), "nothing spilled under the budget");
                let path = &files[(which % files.len() as u64) as usize];
                let mut bytes = std::fs::read(path).unwrap();
                let at = (offset % bytes.len().max(1) as u64) as usize;
                match how {
                    0 if !bytes.is_empty() => bytes[at] ^= noise[0] | 1,
                    1 => bytes.truncate(at),
                    _ => bytes.extend_from_slice(&noise),
                }
                std::fs::write(path, bytes).unwrap();
            }
            IterationDecision::Continue
        });
        let result = miner.try_mine_prepared(&prepared, &[]);
        miner.engine().store().cleanup();
        match result {
            Err(sirum_core::SirumError::Dataflow(_)) => {}
            Ok(budgeted) => prop_assert_eq!(result_bits(&budgeted), result_bits(&reference)),
            Err(other) => panic!("expected a dataflow error, got {other:?}"),
        }
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
    assert!(
        matches!(result, Err(sirum_core::SirumError::Dataflow(_))),
        "{result:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
