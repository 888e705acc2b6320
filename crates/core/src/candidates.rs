//! Candidate rule generation: exhaustive cube enumeration (the MIR
//! reference), sample-based candidate pruning via LCAs (§3.1.1), and the
//! inverted-index fast pruning of §4.2.
//!
//! [`SampleIndex`] answers "what are the `|s|` LCAs of this tuple" with one
//! probe per pipeline. The staged pipeline's probe,
//! `SampleIndex::lca_keys_into`, writes the LCAs out with one posting
//! lookup per attribute, in whichever rule key its records carry
//! (`RuleKey`) — a packed code or a `Rule`, each starting all-wild and
//! taking one constant per sample row the posting bitset names. The
//! sweep's probe, [`SampleIndex::match_masks_into_cols`], stops a step
//! earlier: it reports only *which* dimensions of each sample row the
//! tuple matches, a `d`-bit mask per sample row computed by a branch-free
//! compare against the transposed sample. That mask already names the LCA
//! (the constants are the sample row's own values on the set bits), so
//! every sweep sink keys its accumulator from `(sample row, mask)` — the
//! slot table without building or hashing a code per pair.

use crate::rule::RuleKey;
use sirum_dataflow::hash::FxHashMap;

/// Aggregates carried per candidate rule through the data-cube pipeline:
/// `(Σ t[m], Σ t[mhat], contributing pair count)`.
pub(crate) type Agg = (f64, f64, u64);

/// Merge two aggregates (the shuffle combiner).
#[inline]
pub(crate) fn merge_agg(a: &mut Agg, b: Agg) {
    a.0 += b.0;
    a.1 += b.1;
    a.2 += b.2;
}

/// Inverted index over the sample `s` (§4.2): for each dimension attribute,
/// a map from value code to the sample rows carrying it. Lets a mapper
/// compute all `|s|` LCAs of a tuple with index lookups instead of
/// attribute-by-attribute comparison.
pub(crate) struct SampleIndex {
    rows: Vec<Box<[u32]>>,
    /// The sample transposed, `sample_cols[col · |s| + j] = rows[j][col]`:
    /// one contiguous `|s|`-wide run per dimension for the match-mask probe.
    sample_cols: Vec<u32>,
    /// Posting lists as bitsets over sample rows: bit `j` of
    /// `postings[col][v]` is set iff sample row `j` carries `v` on
    /// dimension `col`.
    postings: Vec<FxHashMap<u32, SampleMask>>,
    full_mask: SampleMask,
    d: usize,
}

/// Fixed-width bitset over sample rows (up to 256 — well beyond the
/// paper's largest |s|).
type SampleMask = [u64; 4];

/// Maximum sample size the index supports.
pub(crate) const MAX_SAMPLE: usize = 256;

#[inline]
fn mask_set(mask: &mut SampleMask, i: usize) {
    mask[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn mask_and(a: &mut SampleMask, b: &SampleMask) {
    for (x, y) in a.iter_mut().zip(b) {
        *x &= y;
    }
}

#[inline]
fn mask_count(mask: &SampleMask) -> u64 {
    mask.iter().map(|w| u64::from(w.count_ones())).sum()
}

impl SampleIndex {
    /// Build the index (one pass over the sample).
    ///
    /// # Panics
    /// Panics if the sample exceeds [`MAX_SAMPLE`] rows.
    pub(crate) fn build(rows: Vec<Box<[u32]>>, d: usize) -> SampleIndex {
        // lint:allow(SL001) — unreachable via Miner, streams included (typed InvalidConfig on oversized effective samples)
        assert!(rows.len() <= MAX_SAMPLE, "sample too large for the index");
        let mut postings: Vec<FxHashMap<u32, SampleMask>> =
            (0..d).map(|_| FxHashMap::default()).collect();
        let mut full_mask = [0u64; 4];
        let mut sample_cols = vec![0u32; rows.len() * d];
        // lint:allow(SL002) — bounded scan: the index caps the sample at MAX_SAMPLE (256) rows
        for (i, row) in rows.iter().enumerate() {
            // lint:allow(SL001) — sample rows come from the table being mined; arity is fixed at encode time
            assert_eq!(row.len(), d);
            mask_set(&mut full_mask, i);
            for (col, &v) in row.iter().enumerate() {
                sample_cols[col * rows.len() + i] = v;
                mask_set(postings[col].entry(v).or_insert([0u64; 4]), i);
            }
        }
        SampleIndex {
            rows,
            sample_cols,
            postings,
            full_mask,
            d,
        }
    }

    /// Sample size `|s|`.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The sample rows.
    pub(crate) fn rows(&self) -> &[Box<[u32]>] {
        &self.rows
    }

    /// Append `(lca(s_j, tuple), agg)` for every sample row `s_j`, in
    /// sample order, in any [`RuleKey`], with one index probe per attribute
    /// (§4.2's optimization — no `d`-wide compare per sample row): every
    /// LCA starts all-wild in `out`, and each sample row the posting bitset
    /// of `(col, tuple[col])` names takes that constant in place.
    pub(crate) fn lca_keys_into<K: RuleKey>(
        &self,
        cx: &K::Codec,
        tuple: &[u32],
        agg: Agg,
        out: &mut Vec<(K, Agg)>,
    ) {
        debug_assert_eq!(tuple.len(), self.d);
        let base = out.len();
        out.resize(base + self.rows.len(), (K::all_wild(cx, self.d), agg));
        let lcas = &mut out[base..];
        for (col, &v) in tuple.iter().enumerate() {
            let Some(hits) = self.postings[col].get(&v) else {
                continue;
            };
            for (w, &word) in hits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let row = w * 64 + bits.trailing_zeros() as usize;
                    lcas[row].0.set_constant(cx, col, v);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// The match mask of every sample row against one data tuple, read
    /// straight out of columnar storage (`cols[col][row]`): bit `col` of
    /// entry `j` is set iff sample row `j` carries the tuple's value on
    /// dimension `col`. `lca(s_j, t)` is then `s_j` restricted to the set
    /// bits (wildcards elsewhere) — the LCA `lca_keys_into` writes out,
    /// named without being written.
    ///
    /// Each dimension is one `|s|`-wide compare against a contiguous run
    /// of the transposed sample, branch-free so the compiler vectorises
    /// it. Masks are `u32`s: a dimension past the 32nd has no bit to
    /// report in, so callers must not rely on this probe beyond 32
    /// dimensions (a sweep refuses more than
    /// [`crate::lattice::MAX_EXPAND_BITS`] = 24).
    pub(crate) fn match_masks_into_cols<'a>(
        &self,
        cols: &[&[u32]],
        row: usize,
        masks: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        debug_assert_eq!(cols.len(), self.d);
        let s = self.rows.len();
        masks.clear();
        masks.resize(s, 0);
        if s == 0 {
            return masks;
        }
        for ((bit, values), sample_col) in (0u32..)
            .map(|col| 1u32.checked_shl(col).unwrap_or(0))
            .zip(cols)
            .zip(self.sample_cols.chunks_exact(s))
        {
            let v = values[row];
            for (mask, &sv) in masks.iter_mut().zip(sample_col) {
                *mask |= u32::from(sv == v) * bit;
            }
        }
        masks
    }

    /// The sample multiplicity a *candidate*'s pair-level aggregates are
    /// divided by (§3.1.1): the number of sample tuples carrying every
    /// `(dimension, code)` of its [`Rule::constants`] — an intersection of
    /// the per-constant posting bitsets, O(#constants) instead of a scan of
    /// the sample.
    ///
    /// # Panics
    /// Panics if the candidate matches no sample tuple — impossible for
    /// rules generated from LCAs (every ancestor of `lca(s, t)` covers `s`).
    pub(crate) fn multiplicity(&self, constants: impl IntoIterator<Item = (usize, u32)>) -> u64 {
        let mut mask = self.full_mask;
        for (col, v) in constants {
            mask_and(&mut mask, self.postings[col].get(&v).unwrap_or(&[0; 4]));
        }
        let c = mask_count(&mask);
        // lint:allow(SL001) — documented invariant: every ancestor of lca(s, t) covers s
        assert!(c > 0, "a candidate matches no sample tuple");
        c
    }
}

/// One candidate's aggregates over its true support set: a data tuple
/// contributed once per matching sample tuple, so the pair-level sums are
/// divided by the candidate's sample multiplicity `c` (§3.1.1).
pub(crate) fn adjust((sum_m, sum_mhat, pairs): Agg, c: u64) -> Agg {
    debug_assert_eq!(pairs % c, 0, "pair multiplicity must be uniform");
    (sum_m / c as f64, sum_mhat / c as f64, pairs / c)
}

/// Exhaustive candidate aggregation: every tuple contributes `(m, mhat, 1)`
/// to all `2^d` elements of its cube lattice. This enumerates exactly the
/// rules with non-empty support — rules with empty support have zero gain
/// (Eq 2.2) and can never be selected, so this is equivalent to exhaustive
/// candidate exploration for selection purposes.
///
/// It is the ground truth against which sample-based pruning and the
/// sweep are tested. It is not the miner's `FullCube` path: the miner
/// runs that strategy through the sweep's full-cube sink, or through the
/// staged pipeline's tuple-rule stage.
///
/// Polls `cancel` every [`CANCEL_POLL_ROWS`] rows and returns `None` when
/// it fires — the scan is `O(2^d · n)` and must not pin a worker past its
/// job's cancellation.
#[cfg(test)]
pub(crate) fn exhaustive_candidates(
    table: &sirum_table::Table,
    mhat: &[f64],
    cancel: Option<&crate::CancellationToken>,
) -> Option<FxHashMap<crate::Rule, Agg>> {
    use crate::lattice::ancestors;
    use crate::rule::Rule;
    use crate::sweep::CANCEL_POLL_ROWS;
    use crate::CancellationToken;
    assert_eq!(mhat.len(), table.num_rows());
    let mut out: FxHashMap<Rule, Agg> = FxHashMap::default();
    for (i, row) in table.rows().enumerate() {
        if i.is_multiple_of(CANCEL_POLL_ROWS) && cancel.is_some_and(CancellationToken::is_cancelled)
        {
            return None;
        }
        let base = Rule::from_tuple(&row);
        for anc in ancestors(&base) {
            let agg = out.entry(anc).or_insert((0.0, 0.0, 0));
            merge_agg(agg, (table.measure(i), mhat[i], 1));
        }
    }
    Some(out)
}

/// Adjust candidate aggregates for sample multiplicity (§3.1.1): divide
/// every aggregate by the candidate's [`SampleIndex::multiplicity`].
/// Returns candidates with exact `(Σ m, Σ mhat, |S_D(r)|)` over their true
/// support sets.
///
/// # Panics
/// Panics if a candidate matches no sample tuple.
#[cfg(test)]
pub(crate) fn adjust_for_sample<I: IntoIterator<Item = (crate::Rule, Agg)>>(
    candidates: I,
    index: &SampleIndex,
) -> Vec<(crate::Rule, f64, f64, u64)> {
    let mut out = Vec::new();
    for (rule, agg) in candidates {
        let (sum_m, sum_mhat, count) = adjust(agg, index.multiplicity(rule.constants()));
        out.push((rule, sum_m, sum_mhat, count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::ancestors;
    use crate::lattice::ancestors as all_ancestors;
    use crate::rule::Rule;
    use crate::rule::{RuleLayout, WILDCARD};
    use crate::sweep::CANCEL_POLL_ROWS;
    use crate::testkit::{small_table, synthetic_mhat};
    use crate::CancellationToken;
    use proptest::prelude::*;
    use sirum_table::generators::flights;
    use sirum_table::ColScratch;
    use sirum_table::Table;

    fn sample_rows(table: &Table, idx: &[usize]) -> Vec<Box<[u32]>> {
        idx.iter()
            .map(|&i| table.row(i).to_vec().into_boxed_slice())
            .collect()
    }

    /// `LCA(s, D)` with pair-level aggregates: every (data tuple, sample
    /// tuple) pair, in that order.
    fn lca_aggregates(t: &Table, mhat: &[f64], sample: &[Box<[u32]>]) -> FxHashMap<Rule, Agg> {
        let mut out: FxHashMap<Rule, Agg> = FxHashMap::default();
        for (i, row) in t.rows().enumerate() {
            for s in sample {
                let agg = out.entry(Rule::lca(s, &row)).or_insert((0.0, 0.0, 0));
                merge_agg(agg, (t.measure(i), mhat[i], 1));
            }
        }
        out
    }

    #[test]
    fn paper_example_candidate_set() {
        // §3.1.1: sampling t4=(Sun,Chicago,London) and t9=(Thu,SF,Frankfurt)
        // yields 15 candidate rules vs 73 possible rules.
        let t = flights();
        let sample = sample_rows(&t, &[3, 8]);
        let lcas = lca_aggregates(&t, &[1.0; 14], &sample);
        let mut cands: FxHashMap<Rule, Agg> = FxHashMap::default();
        for (rule, agg) in &lcas {
            for anc in all_ancestors(rule) {
                merge_agg(cands.entry(anc).or_insert((0.0, 0.0, 0)), *agg);
            }
        }
        assert_eq!(cands.len(), 15, "paper counts 15 candidates");
        // The paper compares against "73 possible rules"; the exact count
        // of distinct supported cube-lattice elements of Table 1.1 is 74
        // (an off-by-one in the thesis text). Either way the pruning cuts
        // the candidate space by ~5×.
        let supported = exhaustive_candidates(&t, &[1.0; 14], None)
            .expect("uncancelled")
            .len();
        assert_eq!(supported, 74);
        // The 9 LCAs listed in the thesis text:
        let named = [
            "(*, *, *)",
            "(*, *, London)",
            "(*, *, Frankfurt)",
            "(*, Chicago, *)",
            "(*, SF, *)",
            "(Sun, *, *)",
            "(*, SF, Frankfurt)",
            "(Sun, Chicago, London)",
            "(Thu, SF, Frankfurt)",
        ];
        assert_eq!(lcas.len(), 9);
        for n in named {
            assert!(lcas.keys().any(|r| r.display(&t) == n), "missing LCA {n}");
        }
    }

    #[test]
    fn candidate_scans_poll_cancellation() {
        // The exhaustive scan must not run to completion after its job was
        // cancelled, pinning a worker for the whole O(2^d·n) pass.
        let t = flights();
        let token = CancellationToken::new();
        token.cancel();
        assert!(exhaustive_candidates(&t, &[1.0; 14], Some(&token)).is_none());
        // An armed-but-unfired token does not perturb the result.
        let fresh = CancellationToken::new();
        assert_eq!(
            exhaustive_candidates(&t, &[1.0; 14], Some(&fresh)),
            exhaustive_candidates(&t, &[1.0; 14], None)
        );
    }

    #[test]
    fn candidate_scans_notice_mid_scan_cancellation_within_one_window() {
        // Deterministic mid-scan latency bound: arm a poll-budget token so
        // the second poll — one CANCEL_POLL_ROWS window into the scan —
        // self-cancels, and require the scan to abandon there rather than
        // finish the remaining rows.
        use sirum_table::generators::income_like;
        let t = income_like(CANCEL_POLL_ROWS * 2 + 7, 42);
        let mhat = vec![1.0; t.num_rows()];
        let token = CancellationToken::new();
        token.cancel_after_polls(2);
        assert!(exhaustive_candidates(&t, &mhat, Some(&token)).is_none());
    }

    #[test]
    fn sample_adjustment_recovers_exact_sums() {
        // After dividing by sample multiplicity, candidate aggregates equal
        // the exact sums over their support sets.
        let t = flights();
        let sample = sample_rows(&t, &[3, 8, 0]);
        let index = SampleIndex::build(sample.clone(), 3);
        let mhat = vec![1.5; 14];
        let lcas = lca_aggregates(&t, &mhat, &sample);
        let mut cands: FxHashMap<Rule, Agg> = FxHashMap::default();
        for (rule, agg) in &lcas {
            for anc in all_ancestors(rule) {
                merge_agg(cands.entry(anc).or_insert((0.0, 0.0, 0)), *agg);
            }
        }
        let adjusted = adjust_for_sample(cands, &index);
        for (rule, sum_m, sum_mhat, count) in adjusted {
            let mut exp = (0.0, 0.0, 0u64);
            for (i, row) in t.rows().enumerate() {
                if rule.matches(&row) {
                    exp.0 += t.measure(i);
                    exp.1 += mhat[i];
                    exp.2 += 1;
                }
            }
            assert!((sum_m - exp.0).abs() < 1e-9, "{rule:?}");
            assert!((sum_mhat - exp.1).abs() < 1e-9, "{rule:?}");
            assert_eq!(count, exp.2, "{rule:?}");
        }
    }

    #[test]
    fn candidates_are_subset_of_exhaustive() {
        let t = flights();
        let mhat = vec![1.0; 14];
        let exhaustive = exhaustive_candidates(&t, &mhat, None).expect("uncancelled");
        let sample = sample_rows(&t, &[0, 5]);
        let index = SampleIndex::build(sample.clone(), 3);
        let lcas = lca_aggregates(&t, &mhat, &sample);
        let mut cands: FxHashMap<Rule, Agg> = FxHashMap::default();
        for (rule, agg) in &lcas {
            for anc in all_ancestors(rule) {
                merge_agg(cands.entry(anc).or_insert((0.0, 0.0, 0)), *agg);
            }
        }
        let adjusted = adjust_for_sample(cands, &index);
        for (rule, sum_m, _mh, count) in adjusted {
            let (em, _emh, ec) = exhaustive[&rule];
            assert!((sum_m - em).abs() < 1e-9);
            assert_eq!(count, ec);
        }
    }

    #[test]
    fn exhaustive_includes_every_supported_rule() {
        let t = flights();
        let cands = exhaustive_candidates(&t, &[1.0; 14], None).expect("uncancelled");
        // (*,*,London) supported by 4 tuples with Σm = 61.
        let london = t.dict(2).code("London").unwrap();
        let rule = Rule::from_values(vec![WILDCARD, WILDCARD, london]);
        let (sum_m, _mh, count) = cands[&rule];
        assert_eq!(count, 4);
        assert!((sum_m - 61.0).abs() < 1e-9);
        // The all-wildcards rule aggregates everything.
        let (tot, _mh, n) = cands[&Rule::all_wildcards(3)];
        assert_eq!(n, 14);
        assert!((tot - 145.0).abs() < 1e-9);
    }

    #[test]
    fn index_lcas_match_naive_lcas() {
        let t = flights();
        let sample = sample_rows(&t, &[3, 8, 11]);
        let index = SampleIndex::build(sample.clone(), 3);
        for row in t.rows() {
            let mut fast: Vec<(Rule, Agg)> = Vec::new();
            index.lca_keys_into(&(), &row, (1.0, 1.0, 1), &mut fast);
            let naive: Vec<Rule> = sample.iter().map(|s| Rule::lca(s, &row)).collect();
            assert_eq!(fast.into_iter().map(|(r, _)| r).collect::<Vec<_>>(), naive);
        }
    }

    #[test]
    fn match_masks_agree_with_rule_lca_position_by_position() {
        let t = flights();
        // Row 3 twice: duplicate sample rows get identical masks.
        let sample = sample_rows(&t, &[3, 8, 11, 3]);
        let index = SampleIndex::build(sample.clone(), 3);
        let frame = t.frame();
        let (view, mut scratch) = (frame.view(), ColScratch::new());
        let cols = view.morsel_cols(0, view.len(), &mut scratch);
        let mut masks = Vec::new();
        for (i, row) in t.rows().enumerate() {
            let got = index.match_masks_into_cols(&cols, i, &mut masks);
            assert_eq!(got.len(), sample.len());
            for (j, s) in sample.iter().enumerate() {
                let lca = Rule::lca(s, &row);
                for (col, &v) in lca.values().iter().enumerate() {
                    let matched = got[j] & (1 << col) != 0;
                    assert_eq!(matched, v != WILDCARD, "row {i}, sample {j}, dim {col}");
                    if matched {
                        assert_eq!(v, s[col]);
                    }
                }
                assert_eq!(got[j] >> 3, 0, "no bits past the last dimension");
            }
        }
        // An empty sample yields no masks rather than a chunking panic.
        let empty = SampleIndex::build(Vec::new(), 3);
        assert!(empty.match_masks_into_cols(&cols, 0, &mut masks).is_empty());
    }

    #[test]
    fn index_match_count() {
        let t = flights();
        let sample = sample_rows(&t, &[0, 1, 2, 3]);
        let index = SampleIndex::build(sample, 3);
        assert_eq!(index.multiplicity(Rule::all_wildcards(3).constants()), 4);
        let fri = t.dict(0).code("Fri").unwrap();
        let rule = Rule::from_values(vec![fri, WILDCARD, WILDCARD]);
        assert_eq!(index.multiplicity(rule.constants()), 2); // t1, t2 are Friday flights
    }

    #[test]
    #[should_panic(expected = "matches no sample tuple")]
    fn adjustment_rejects_unsupported_candidates() {
        let t = flights();
        let index = SampleIndex::build(sample_rows(&t, &[0]), 3);
        let mut cands: FxHashMap<Rule, Agg> = FxHashMap::default();
        // A rule disjoint from the single sample tuple.
        let mon = t.dict(0).code("Mon").unwrap();
        cands.insert(
            Rule::from_values(vec![mon, WILDCARD, WILDCARD]),
            (1.0, 1.0, 1),
        );
        let _ = adjust_for_sample(cands, &index);
    }

    /// The LCAs `lca_keys_into` appends for `tuple` in key form `K`, read
    /// back as `Rule`s, each checked to carry the aggregate it was given.
    fn probe<K: RuleKey>(index: &SampleIndex, cx: &K::Codec, tuple: &[u32]) -> Vec<Rule> {
        let agg = (1.5, 2.5, 3);
        let mut out: Vec<(K, Agg)> = Vec::new();
        index.lca_keys_into(cx, tuple, agg, &mut out);
        let rules = out.into_iter().map(|(key, a)| {
            assert_eq!(a, agg);
            key.into_rule(cx)
        });
        rules.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lca_keys_into_matches_rule_lca(
            (rows, picks, card) in (1usize..=5, 1u32..=6)
                .prop_flat_map(|(d, card)| {
                    (prop::collection::vec(prop::collection::vec(0..card, d), 1..40), Just(card))
                })
                .prop_flat_map(|(rows, card)| {
                    let n = rows.len();
                    (Just(rows), prop::collection::vec(0..n, 1..=MAX_SAMPLE), Just(card))
                })
        ) {
            // Samples up to MAX_SAMPLE rows span every posting-bitset word;
            // every row of the table is probed, not only the sample's.
            let d = rows[0].len();
            let sample: Vec<Box<[u32]>> = picks.iter().map(|&i| rows[i].as_slice().into()).collect();
            let index = SampleIndex::build(sample.clone(), d);
            let layout = RuleLayout::from_cardinalities(&vec![card; d]);
            let (narrow, wide) = (layout.masks::<u64>(), layout.masks::<u128>());
            for row in &rows {
                let naive: Vec<Rule> = sample.iter().map(|s| Rule::lca(s, row)).collect();
                prop_assert_eq!(&probe::<Rule>(&index, &(), row), &naive);
                prop_assert_eq!(&probe::<u64>(&index, &narrow, row), &naive);
                prop_assert_eq!(&probe::<u128>(&index, &wide, row), &naive);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
}
