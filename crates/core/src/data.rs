//! The mining dataset behind the greedy driver: one [`TupleBlock`] per
//! partition — a [`sirum_table::FrameView`] range over the table's shared
//! dimension columns plus per-partition `m̂`/bit-array state. Scans walk
//! contiguous columns (morsel by morsel when they are compressed); scaling
//! rewrites allocate two arrays per partition; per-row codes are gathered
//! into a reusable scratch buffer only at the LCA-probe boundary.
//!
//! Every primitive here visits rows in ascending order within a partition
//! and folds partition results in partition order, so the mining output
//! (selected rules, gains, KL traces, counts) is **bit-identical** for
//! every worker count, engine mode and frame encoding. The proptests in
//! `crates/core/tests/properties.rs` pin this.

use crate::block::TupleBlock;
use crate::cancel::CancellationToken;
use crate::candidates::{merge_agg, Agg, SampleIndex};
use crate::miner::StagedPipeline;
use crate::prepared::PreparedTable;
use crate::rct::{mhat_for_mask, rule_bits, Rct};
use crate::rule::{Rule, RuleKey};
use crate::sweep::{SlotSums, SweepOutcome, SweepState};
use sirum_dataflow::{Dataset, Engine};
use sirum_table::{ColScratch, FrameView};

/// The distributed dataset a mining run scans.
pub(crate) struct MiningData(Dataset<TupleBlock>);

/// The per-row record Naive SIRUM's reshuffle serializes: `(dimension
/// codes, m′, m̂, rule-coverage bit array)`.
type Tup = (Box<[u32]>, f64, f64, u64);

/// Visit (in ascending row order) every row of `view` the rule covers,
/// touching only the rule's constant columns — decoded morsel-by-morsel
/// into `scratch` when the columns are compressed, borrowed directly when
/// raw (a raw view scans as one whole-range morsel). The one coverage scan:
/// the miner's blocks and [`crate::evaluate`] both go through it.
pub(crate) fn for_rule_rows<F: FnMut(usize)>(
    rule: &Rule,
    view: &FrameView,
    scratch: &mut ColScratch,
    mut f: F,
) {
    let idxs: Vec<usize> = rule.constants().map(|(j, _)| j).collect();
    let vals: Vec<u32> = rule.constants().map(|(_, v)| v).collect();
    for (ms, ml) in view.morsel_bounds() {
        let cols = view.morsel_cols_indexed(&idxs, ms, ml, scratch);
        for li in 0..ml {
            if cols.iter().zip(&vals).all(|(c, &v)| c[li] == v) {
                f(ms + li);
            }
        }
    }
}

/// Visit every row of a partition in ascending order as `(codes, m′, m̂,
/// BA)`, gathering each row's codes into one reused buffer — the boundary
/// where the staged pipeline needs row-shaped records.
fn for_each_row<F: FnMut(&[u32], f64, f64, u64)>(blocks: &[TupleBlock], mut f: F) {
    let mut buf = Vec::new();
    let mut scratch = ColScratch::new();
    for block in blocks {
        let (m, mh, mask) = (block.m(), block.mhat(), block.mask());
        let dims = block.dims();
        for (ms, ml) in dims.morsel_bounds() {
            let cols = dims.morsel_cols(ms, ml, &mut scratch);
            for li in 0..ml {
                let i = ms + li;
                buf.clear();
                buf.extend(cols.iter().map(|c| c[li]));
                f(&buf, m[i], mh[i], mask[i]);
            }
        }
    }
}

fn add_assign(a: &mut [f64], b: Vec<f64>) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// What [`MiningData::update_ba`] learns on its way through `D`: the RCT
/// over the updated bit arrays and the current estimates, and each new
/// rule's `Σ m′` and support count, in the order the rules were given.
pub(crate) struct Coverage {
    pub(crate) rct: Rct,
    pub(crate) sums: Vec<f64>,
    pub(crate) counts: Vec<u64>,
}

impl Coverage {
    fn new(rules: usize) -> Coverage {
        Coverage {
            rct: Rct::default(),
            sums: vec![0.0; rules],
            counts: vec![0; rules],
        }
    }

    /// Fold the next partition's coverage in.
    fn merge(&mut self, next: Coverage) {
        self.rct.add(next.rct.groups().iter().copied());
        add_assign(&mut self.sums, next.sums);
        for (a, b) in self.counts.iter_mut().zip(next.counts) {
            *a += b;
        }
    }
}

impl MiningData {
    /// Distribute `D` from its preparation: one block per partition over
    /// the shared frame columns (zero copies), using the engine's default
    /// partition count.
    pub(crate) fn seed(engine: &Engine, prepared: &PreparedTable) -> MiningData {
        let blocks = TupleBlock::seed_partitions(
            prepared.frame(),
            &prepared.m_prime_slice(),
            engine.config().partitions,
        );
        MiningData(Dataset::from_partitioned(engine, blocks))
    }

    /// Number of partitions.
    pub(crate) fn num_partitions(&self) -> usize {
        self.0.num_partitions()
    }

    /// Persist in the block store (see [`Dataset::cache`]).
    pub(crate) fn cache(&mut self) {
        self.0 = self.0.cache();
    }

    /// Release any block-store blocks.
    pub(crate) fn free(self) {
        self.0.free();
    }

    /// Reset every estimate to 1 (Sarawagi's from-scratch re-derivation).
    pub(crate) fn reset_mhat(&self) -> MiningData {
        MiningData(self.0.map("reset-mhat", |block| {
            block.with_mhat(vec![1.0; block.len()])
        }))
    }

    /// The one pass that first meets a rule set (Algorithm 3, lines 5-6):
    /// set bit `i` of each covered tuple's bit array for every new `(i,
    /// rule)`, summing the rule's `m′` and support on the way, then fold
    /// every row into its partition's RCT. No other pass groups or sums
    /// the rows.
    pub(crate) fn update_ba(&self, new_rules: Vec<(usize, Rule)>) -> (MiningData, Coverage) {
        let n = new_rules.len();
        let (data, cover) = self.0.map_partitions_fold(
            "update-ba",
            || Coverage::new(n),
            |_, blocks| {
                let mut cover = Coverage::new(n);
                let mut scratch = ColScratch::new();
                let out = blocks.iter().map(|block| {
                    let (m, mut mask) = (block.m(), block.mask().to_vec());
                    for (j, (i, rule)) in new_rules.iter().enumerate() {
                        let bit = 1u64 << i;
                        for_rule_rows(rule, block.dims(), &mut scratch, |r| {
                            mask[r] |= bit;
                            cover.sums[j] += m[r];
                            cover.counts[j] += 1;
                        });
                    }
                    cover.rct.add_rows(&mask, m, block.mhat());
                    block.with_mask(mask)
                });
                (out.collect(), cover)
            },
            Coverage::merge,
        );
        (MiningData(data), cover)
    }

    /// Write converged estimates back: `m̂ = ∏_{i ∈ BA} λᵢ`.
    pub(crate) fn write_mhat(&self, lambdas: Vec<f64>) -> MiningData {
        MiningData(self.0.map("write-mhat", move |block| {
            let mhat: Vec<f64> = block
                .mask()
                .iter()
                .map(|&mask| mhat_for_mask(mask, &lambdas))
                .collect();
            block.with_mhat(mhat)
        }))
    }

    /// `Σ_{t⊨rⱼ} m̂` per rule (one Algorithm-1 sums pass over `D`), driven
    /// by the per-tuple bit arrays: instead of re-matching every rule
    /// against every tuple (O(rows × rules × d) value compares), each row
    /// walks the set bits of its mask word — coverage was already computed
    /// once by [`Self::update_ba`]. Per rule `j` the covered rows are
    /// visited in the same row order as a per-rule scan, so the float sums
    /// are bit-identical to one.
    pub(crate) fn scaling_sums(&self, num_rules: usize) -> Vec<f64> {
        let live = rule_bits(num_rules);
        self.0.aggregate_partitions(
            "scaling-sums",
            || vec![0.0f64; num_rules],
            |_, blocks| {
                let mut sums = vec![0.0f64; num_rules];
                for block in blocks {
                    let (mh, mask) = (block.mhat(), block.mask());
                    for i in 0..block.len() {
                        let mut bits = mask[i] & live;
                        while bits != 0 {
                            sums[bits.trailing_zeros() as usize] += mh[i];
                            bits &= bits - 1;
                        }
                    }
                }
                sums
            },
            |a, b| add_assign(a, b),
        )
    }

    /// Scale the estimates of every tuple covered by rule `j` (one
    /// Algorithm-1 update pass) — coverage read from bit `j` of each
    /// tuple's bit array, the same word [`Self::scaling_sums`] summed.
    pub(crate) fn scale_mhat(&self, j: usize, factor: f64) -> MiningData {
        let bit = 1u64 << j;
        MiningData(self.0.map("scale-mhat", move |block| {
            let mask = block.mask();
            let mhat: Vec<f64> = block
                .mhat()
                .iter()
                .enumerate()
                .map(|(i, &mh)| if mask[i] & bit != 0 { mh * factor } else { mh })
                .collect();
            block.with_mhat(mhat)
        }))
    }

    /// One fused gain sweep over this dataset through the mine's
    /// [`SweepState`] (see [`SweepState::sweep`]).
    pub(crate) fn sweep(
        &self,
        state: &mut SweepState<'_>,
        cancel: Option<&CancellationToken>,
        pick: impl FnOnce(SlotSums<'_>) -> Vec<(f64, usize)>,
    ) -> SweepOutcome {
        state.sweep(&self.0, cancel, pick)
    }

    /// The staged candidate-pruning join: emit one `(key, aggregate)` pair
    /// per (sample tuple, data tuple) LCA — or per tuple under full-cube —
    /// and reduce by key, routed by [`RuleKey::route`]. With the
    /// pipeline's `broadcast_join` off (Naive SIRUM) the data is
    /// re-shuffled first, as row records — exactly what a real shuffle
    /// serializes.
    pub(crate) fn lca_candidates<K: RuleKey>(
        &self,
        cx: &K::Codec,
        partitions: usize,
        index: Option<&SampleIndex>,
        pipeline: &StagedPipeline,
    ) -> Dataset<(K, Agg)> {
        let data = &self.0;
        let emit = LcaEmit::new(index, pipeline.fast_pruning);
        let pairs = if pipeline.broadcast_join {
            data.map_partitions(emit.label(), move |_, blocks| {
                let n: usize = blocks.iter().map(TupleBlock::len).sum();
                let mut out = Vec::with_capacity(n * emit.per_row());
                for_each_row(blocks, |dims, m, mh, _mask| {
                    emit.emit::<K>(cx, dims, (m, mh, 1), &mut out);
                });
                out
            })
        } else {
            let rows: Dataset<Tup> = data.map_partitions("materialize-rows", |_, blocks| {
                let n: usize = blocks.iter().map(TupleBlock::len).sum();
                let mut out = Vec::with_capacity(n);
                for_each_row(blocks, |dims, m, mh, mask| {
                    out.push((dims.into(), m, mh, mask))
                });
                out
            });
            let base = rows.repartition(data.num_partitions());
            rows.free();
            let pairs = base.map_partitions(emit.label(), move |_, rows| {
                let mut out = Vec::with_capacity(rows.len() * emit.per_row());
                for (dims, m, mh, _mask) in rows {
                    emit.emit::<K>(cx, dims, (*m, *mh, 1), &mut out);
                }
                out
            });
            base.free();
            pairs
        };
        let cand = pairs.reduce_by_key("lca-agg", partitions, |k| k.route(cx), merge_agg);
        pairs.free();
        cand
    }
}

/// What one data tuple emits in the LCA pair stage (§3.1.1 / §4.2), for
/// tuples arriving as blocks or as reshuffled rows alike.
#[derive(Clone, Copy)]
enum LcaEmit<'a> {
    /// One inverted-index probe yields all `|s|` LCAs (§4.2).
    Fast(&'a SampleIndex),
    /// One `d`-wide comparison per sample tuple (§3.1.1).
    Naive(&'a SampleIndex),
    /// Full cube: the tuple itself is its only "LCA".
    Tuple,
}

impl LcaEmit<'_> {
    fn new(index: Option<&SampleIndex>, fast_pruning: bool) -> LcaEmit<'_> {
        match index {
            Some(idx) if fast_pruning => LcaEmit::Fast(idx),
            Some(idx) => LcaEmit::Naive(idx),
            None => LcaEmit::Tuple,
        }
    }

    /// The stage label (the figures group stage records by it).
    fn label(&self) -> &'static str {
        match self {
            LcaEmit::Fast(_) => "lca-fast",
            LcaEmit::Naive(_) => "lca-naive",
            LcaEmit::Tuple => "tuple-rule",
        }
    }

    /// Pairs emitted per data tuple (the output capacity hint).
    fn per_row(&self) -> usize {
        match self {
            LcaEmit::Fast(idx) | LcaEmit::Naive(idx) => idx.len(),
            LcaEmit::Tuple => 1,
        }
    }

    /// Append one tuple's pairs to `out`, in sample order.
    fn emit<K: RuleKey>(&self, cx: &K::Codec, dims: &[u32], agg: Agg, out: &mut Vec<(K, Agg)>) {
        match self {
            LcaEmit::Fast(idx) => idx.lca_keys_into(cx, dims, agg, out),
            LcaEmit::Naive(idx) => {
                for srow in idx.rows() {
                    out.push((K::lca(cx, srow, dims), agg));
                }
            }
            LcaEmit::Tuple => out.push((K::lca(cx, dims, dims), agg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::WILDCARD;
    use proptest::prelude::*;
    use sirum_dataflow::EngineConfig;
    use sirum_table::{Compression, Frame};

    /// A random table (codes in `0..3`, measures often exactly 0) as rows,
    /// and a random rule list over it, all-wildcards first.
    fn table_and_rules() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<f64>, Vec<Rule>)> {
        (1usize..=3).prop_flat_map(|d| {
            let value = prop_oneof![Just(WILDCARD), 0u32..3];
            let row = (
                prop::collection::vec(0u32..3, d),
                prop_oneof![Just(0.0), 0.0f64..10.0],
            );
            (
                prop::collection::vec(row, 1..200),
                prop::collection::vec(prop::collection::vec(value, d), 0..8),
            )
                .prop_map(move |(rows, extra)| {
                    let (codes, m): (Vec<Vec<u32>>, Vec<f64>) = rows.into_iter().unzip();
                    let mut rules = vec![Rule::all_wildcards(d)];
                    rules.extend(extra.into_iter().map(Rule::from_values));
                    (codes, m, rules)
                })
        })
    }

    /// The updated columns of `data`, in global row order: masks, `m′`, `m̂`.
    fn columns(data: &MiningData) -> (Vec<u64>, Vec<f64>, Vec<f64>) {
        let blocks = data.0.collect();
        let masks = blocks.iter().flat_map(|b| b.mask().to_vec()).collect();
        let m = blocks.iter().flat_map(|b| b.m().to_vec()).collect();
        let mhat = blocks.iter().flat_map(|b| b.mhat().to_vec()).collect();
        (masks, m, mhat)
    }

    fn close(a: f64, b: f64) -> bool {
        a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
    }

    /// `cover` against references over the columns it left: the RCT
    /// against `Rct::build`, each rule's sum and support against a per-row
    /// scan of `codes`, each row's mask against the rules it matches.
    fn check(
        cover: &Coverage,
        (masks, m, mhat): &(Vec<u64>, Vec<f64>, Vec<f64>),
        codes: &[Vec<u32>],
        rules: &[Rule],
        new: std::ops::Range<usize>,
    ) {
        for (row, &mask) in codes.iter().zip(masks) {
            let hits = rules[..new.end].iter().enumerate();
            let want = hits.fold(0, |acc, (i, r)| acc | u64::from(r.matches(row)) << i);
            prop_assert_eq!(mask, want);
        }
        let reference = Rct::build(masks, m, mhat);
        prop_assert_eq!(cover.rct.groups().len(), reference.groups().len());
        for (g, r) in cover.rct.groups().iter().zip(reference.groups()) {
            prop_assert_eq!((g.mask, g.count), (r.mask, r.count));
            prop_assert!(close(g.sum_m, r.sum_m) && close(g.sum_mhat, r.sum_mhat));
        }
        for (j, rule) in rules[new].iter().enumerate() {
            let rows = codes.iter().zip(m).filter(|(row, _)| rule.matches(row));
            let (sum, count) = rows.fold((0.0, 0), |(s, c), (_, &mi)| (s + mi, c + 1));
            prop_assert_eq!(cover.counts[j], count);
            prop_assert!(close(cover.sums[j], sum), "{} vs {sum}", cover.sums[j]);
        }
    }

    /// Every float a coverage carries, as bits.
    fn bits(cover: &Coverage) -> Vec<u64> {
        let groups = cover.rct.groups().iter();
        let group_bits =
            groups.flat_map(|g| [g.mask, g.count, g.sum_m.to_bits(), g.sum_mhat.to_bits()]);
        let sums = cover.sums.iter().map(|s| s.to_bits());
        group_bits
            .chain(sums)
            .chain(cover.counts.iter().copied())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn coverage_pass_matches_a_reference(
            (codes, m, rules) in table_and_rules(),
            split in 1usize..8,
            parts in 1usize..=8,
            lambdas in prop::collection::vec(0.25f64..4.0, 8),
        ) {
            // Two passes: the first rules over fresh estimates, the rest
            // over the estimates a fit of the first wrote.
            let split = split.min(rules.len());
            let d = codes[0].len();
            let cols: Vec<Vec<u32>> = (0..d).map(|j| codes.iter().map(|r| r[j]).collect()).collect();
            let indexed = |range: std::ops::Range<usize>| -> Vec<(usize, Rule)> {
                range.map(|i| (i, rules[i].clone())).collect()
            };
            let mut seen: Option<Vec<u64>> = None;
            for compression in [Compression::Never, Compression::Always] {
                let frame = Frame::from_columns(cols.clone(), m.clone()).with_compression(compression);
                for config in [EngineConfig::in_memory(), EngineConfig::disk_mr()] {
                    for workers in [1, 2] {
                        let engine = Engine::try_new(config.clone().with_workers(workers)).unwrap();
                        let blocks = TupleBlock::seed_partitions(&frame, &frame.measure_slice(), parts);
                        let data = MiningData(Dataset::from_partitioned(&engine, blocks));
                        let (first, c1) = data.update_ba(indexed(0..split));
                        check(&c1, &columns(&first), &codes, &rules, 0..split);
                        let fitted = first.write_mhat(lambdas.clone());
                        first.free();
                        let (last, c2) = fitted.update_ba(indexed(split..rules.len()));
                        fitted.free();
                        check(&c2, &columns(&last), &codes, &rules, split..rules.len());
                        last.free();
                        let run: Vec<u64> = bits(&c1).into_iter().chain(bits(&c2)).collect();
                        match &seen {
                            Some(first_run) => prop_assert_eq!(first_run, &run),
                            None => seen = Some(run),
                        }
                    }
                }
            }
        }
    }
}
