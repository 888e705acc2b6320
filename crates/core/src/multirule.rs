//! Multi-rule insertion (§4.4): select up to `l` mutually disjoint rules per
//! iteration from the top of the gain-sorted candidate list, halving (or
//! better) the number of rule-generation/iterative-scaling rounds.

use crate::gain::{BelowFn, GainFn};
use crate::rule::Rule;
use std::cmp::Ordering;

/// §4.4's rank limit: a rule beyond the best must rank within this
/// fraction of the candidate list (the paper's top 1%).
const TOP_FRACTION: f64 = 0.01;

/// How many of `total` gain-ranked candidates [`select_rules`] may read:
/// the top 1% (§4.4), and at least the best one.
pub(crate) fn rank_limit(total: usize) -> usize {
    ((total as f64 * TOP_FRACTION).ceil() as usize).max(1)
}

/// The order selection reads candidates in: gain descending
/// (`total_cmp`), canonical rank ascending — the order [`select_rules`]'
/// stable sort makes of the canonically ordered list.
fn best_first(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The first `k` candidates under [`best_first`], in that order, from one
/// pass over `slots` — each candidate's `(Σm, Σm̂, canonical rank)`, in any
/// order — scored by `gain`: what scoring every candidate and sorting would
/// give, gain bit for gain bit and rank for rank. Selection never reads
/// past the top-1% rank limit, so selecting from this prefix equals
/// selecting from the whole list whenever `k` covers that limit.
///
/// At most `2k` `(gain, rank)` pairs are held; when they fill, they are cut
/// to their best `k`, and the `k`-th gain among them becomes the threshold
/// `t` (none until the first cut). A later candidate is kept only when its
/// gain is `≥ t` under `total_cmp`, so a tie at `t` still goes by rank.
/// Once `t > 0`, `below(Σm, Σm̂, t)` — a logarithm-free test that is true
/// only where the computed gain is below `t` — passes over a candidate
/// without scoring it. Every kept gain comes from `gain` on the
/// candidate's own sums, so the output does not depend on the test.
pub(crate) fn top_k_by_gain(
    slots: impl Iterator<Item = (f64, f64, usize)>,
    k: usize,
    gain: GainFn,
    below: BelowFn,
) -> Vec<(f64, usize)> {
    let full = 2 * k;
    let mut kept: Vec<(f64, usize)> = Vec::with_capacity(full.min(slots.size_hint().0));
    let mut t: Option<f64> = None;
    for (sum_m, sum_mhat, rank) in slots {
        if t.is_some_and(|t| t > 0.0 && below(sum_m, sum_mhat, t)) {
            continue;
        }
        let g = gain(sum_m, sum_mhat);
        if t.is_some_and(|t| g.total_cmp(&t).is_lt()) {
            continue;
        }
        kept.push((g, rank));
        if kept.len() == full {
            kept.select_nth_unstable_by(k - 1, best_first);
            kept.truncate(k);
            t = Some(kept[k - 1].0);
        }
    }
    kept.sort_unstable_by(best_first);
    kept.truncate(k);
    kept
}

/// A scored candidate as produced by the gain stage.
#[derive(Debug, Clone)]
pub(crate) struct ScoredCandidate {
    /// The candidate rule.
    pub(crate) rule: Rule,
    /// Information gain (Eq 2.2) under the current estimates.
    pub(crate) gain: f64,
    /// Exact `Σ_{t⊨r} t[m]` over the rule's support set (transformed).
    pub(crate) sum_m: f64,
    /// Exact support size `|S_D(r)|`.
    pub(crate) count: u64,
}

/// Pick the most informative rule plus up to `l−1` further rules that are
/// (a) mutually disjoint from every already-picked rule — so their
/// constraints cannot invalidate each other's gains (§4.4), and (b) within
/// the top 1% of candidates by gain rank.
///
/// `candidates` is sorted (descending by gain) in place; it may be a
/// pre-truncated prefix of a larger candidate list, in which case
/// `total_candidates` carries the true list size for the rank limit
/// (pass `candidates.len()` when the list is complete). Returns the chosen
/// candidates in selection order; empty if no candidate has positive gain.
pub(crate) fn select_rules(
    candidates: &mut [ScoredCandidate],
    l: usize,
    total_candidates: usize,
) -> Vec<ScoredCandidate> {
    candidates.sort_by(|a, b| b.gain.total_cmp(&a.gain));
    let Some(top) = candidates.first() else {
        return Vec::new();
    };
    if top.gain <= 0.0 {
        return Vec::new();
    }
    let mut picked: Vec<ScoredCandidate> = vec![top.clone()];
    if l <= 1 {
        return picked;
    }
    let limit = rank_limit(total_candidates.max(candidates.len()));
    for cand in candidates.iter().take(limit).skip(1) {
        if picked.len() >= l {
            break;
        }
        if cand.gain <= 0.0 {
            break; // sorted order: nothing further qualifies
        }
        if picked.iter().all(|p| p.rule.is_disjoint(&cand.rule)) {
            picked.push(cand.clone());
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::{rule_gain, rule_gain_below, rule_gain_two_sided, rule_gain_two_sided_below};
    use crate::rule::WILDCARD;
    use proptest::prelude::*;

    fn cand(vals: &[i64], gain: f64) -> ScoredCandidate {
        ScoredCandidate {
            rule: Rule::from_values(
                vals.iter()
                    .map(|&v| if v < 0 { WILDCARD } else { v as u32 })
                    .collect(),
            ),
            gain,
            sum_m: gain,
            count: 1,
        }
    }

    #[test]
    fn paper_example_disjoint_selection() {
        // §4.4: top = (*, SF, *); second-best (Fri, SF, *) overlaps it, so
        // the disjoint third-best (*, London, *) is chosen instead.
        let mut cands = vec![
            cand(&[-1, 0, -1], 10.0), // (*, SF, *)
            cand(&[1, 0, -1], 9.0),   // (Fri, SF, *) — overlaps
            cand(&[-1, 2, -1], 8.0),  // (*, London, *) — disjoint
        ];
        // The top three of 300 candidates: all within the top 1%.
        let picked = select_rules(&mut cands, 2, 300);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].rule, cand(&[-1, 0, -1], 0.0).rule);
        assert_eq!(picked[1].rule, cand(&[-1, 2, -1], 0.0).rule);
    }

    #[test]
    fn single_rule_mode_ignores_constraints() {
        let mut cands = vec![cand(&[0, -1], 5.0), cand(&[1, -1], 4.0)];
        let n = cands.len();
        let picked = select_rules(&mut cands, 1, n);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].gain, 5.0);
    }

    #[test]
    fn no_positive_gain_means_no_selection() {
        let mut cands = vec![cand(&[0, -1], 0.0), cand(&[1, -1], -2.0)];
        let n = cands.len();
        assert!(select_rules(&mut cands, 2, n).is_empty());
        let mut empty: Vec<ScoredCandidate> = Vec::new();
        assert!(select_rules(&mut empty, 2, 0).is_empty());
    }

    #[test]
    fn top_fraction_limits_rank() {
        // 200 candidates, 1% → only the top 2 ranks are eligible extras.
        let mut cands: Vec<ScoredCandidate> = (0..200)
            .map(|i| cand(&[i as i64, -1], 200.0 - i as f64))
            .collect();
        // Rank 0 and 1 overlap each other? They differ in attr 0 → disjoint.
        assert_eq!(TOP_FRACTION, 0.01);
        assert_eq!(rank_limit(200), 2);
        let n = cands.len();
        let picked = select_rules(&mut cands, 3, n);
        // ceil(200·0.01)=2 eligible ranks → at most 2 rules selected.
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn three_rules_mutually_disjoint() {
        let mut cands = vec![
            cand(&[0, -1, -1], 10.0),
            cand(&[-1, 0, -1], 9.0), // overlaps rule 1? no constants clash → overlaps!
            cand(&[1, -1, -1], 8.0), // disjoint from #1, overlaps #2? no clash → overlaps
            cand(&[2, 1, -1], 7.0),  // disjoint from #1 (attr0) — and #2? attr1 0 vs 1 → disjoint
        ];
        // The top four of 400 candidates: all within the top 1%.
        let picked = select_rules(&mut cands, 3, 400);
        // #2 overlaps the top rule (no conflicting constants), so selection
        // is {#1, #3, #4}? #3 vs #4: attr0 1 vs 2 → disjoint. So 3 rules.
        assert_eq!(picked.len(), 3);
        for i in 0..picked.len() {
            for j in (i + 1)..picked.len() {
                assert!(picked[i].rule.is_disjoint(&picked[j].rule));
            }
        }
    }

    /// [`top_k_by_gain`] over `all` in canonical order, each scored by the
    /// gain it carries.
    fn by_given_gain(all: &[ScoredCandidate], k: usize) -> Vec<(f64, usize)> {
        let slots = all.iter().enumerate().map(|(rank, c)| (c.gain, 0.0, rank));
        top_k_by_gain(slots, k, |gain, _| gain, |_, _, _| false)
    }

    #[test]
    fn selecting_from_the_top_prefix_equals_selecting_from_the_whole_list() {
        // 24 000 candidates in canonical order over two attributes, gains
        // drawn from three values only — ties everywhere, which only rank
        // order may break. Each `a` opens with `(a, *)`, which overlaps the
        // `(a, b)`s after it, so multi-rule selection has to skip. The top
        // 1% the rank limit admits is 240 of them.
        let all: Vec<ScoredCandidate> = (0..24_000u32)
            .map(|i| {
                let (a, b) = (i64::from(i / 15), i64::from(i % 15));
                let vals = [a, if b == 0 { -1 } else { b }];
                cand(&vals, [3.0, 1.0, 2.0][(i * 7 % 3) as usize])
            })
            .collect();
        for l in [1, 2, 3] {
            let whole = select_rules(&mut all.clone(), l, all.len());
            let reach = rank_limit(all.len());
            let mut prefix: Vec<ScoredCandidate> = by_given_gain(&all, reach)
                .into_iter()
                .map(|(_, rank)| all[rank].clone())
                .collect();
            assert_eq!(prefix.len(), reach);
            let picked = select_rules(&mut prefix, l, all.len());
            let rules =
                |c: &[ScoredCandidate]| -> Vec<Rule> { c.iter().map(|c| c.rule.clone()).collect() };
            assert_eq!(rules(&picked), rules(&whole), "l = {l}");
            // All asked for, and not simply the first ones: the
            // second-ranked `(0, 3)` overlaps the top `(0, *)`.
            assert_eq!(picked.len(), l);
            assert!(picked.iter().all(|p| p.rule != all[3].rule));
        }
        // The prefix is the stable sort's, tie for tie.
        let mut sorted = all.clone();
        sorted.sort_by(|a, b| b.gain.total_cmp(&a.gain));
        let top = by_given_gain(&all, 100);
        for ((_, rank), want) in top.iter().zip(&sorted) {
            assert_eq!(all[*rank].rule, want.rule);
        }
    }

    /// A positive sum of any magnitude from 1e-300 to 1e301.
    fn magnitude() -> impl Strategy<Value = f64> {
        (-300i32..=300, 1.0f64..10.0).prop_map(|(e, m)| m * 10f64.powi(e))
    }

    /// A sum the selector's logarithm-free tests must not be fooled by:
    /// zero and negative, subnormal, ordinary, 1e±300 magnitudes, and now
    /// and then not a number at all.
    fn adversarial_sum() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            prop_oneof![Just(f64::INFINITY), Just(f64::NAN), Just(-f64::NAN)],
            -1e3f64..0.0,
            1e-3f64..1e3,
            (1u64..1 << 52).prop_map(f64::from_bits),
            magnitude(),
        ]
    }

    /// `(Σm, Σm̂)`: `Σm` equal to `Σm̂`, a few ulps from it — where the
    /// rounded quotient moves `ln` past `x − 1` — or drawn on its own.
    fn adversarial_pair(near: impl Strategy<Value = f64>) -> impl Strategy<Value = (f64, f64)> {
        (near, 0u8..4, -3i64..=3, adversarial_sum()).prop_map(|(sum_mhat, how, ulps, other)| {
            let sum_m = match how {
                0 => sum_mhat,
                1 | 2 if sum_mhat > 0.0 => {
                    f64::from_bits((sum_mhat.to_bits() as i64 + ulps).max(0) as u64)
                }
                _ => other,
            };
            (sum_m, sum_mhat)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The streaming selector against scoring every candidate and
        /// sorting (gain descending, rank ascending), gain bit for gain bit
        /// and rank for rank: duplicated sums tie exactly, at the threshold
        /// too, with ranks on both sides of it in a shuffled slot order;
        /// `k` runs from 1 past the candidate count; both gain forms. A
        /// third of the lists keep every `Σm̂` in one binade, so the
        /// threshold falls among the near-equal sums whose gains the bounds
        /// must not cut, and a third draw both sums 1e±300 apart, where
        /// quotients overflow and underflow.
        #[test]
        fn streaming_top_k_matches_full_scoring(
            (pairs, shuffle) in prop_oneof![
                prop::collection::vec(adversarial_pair(adversarial_sum()), 1..160),
                prop::collection::vec(adversarial_pair(1.0f64..2.0), 1..160),
                prop::collection::vec((magnitude(), magnitude()), 1..160),
            ]
            .prop_flat_map(|pairs| {
                let n = pairs.len();
                (Just(pairs), prop::collection::vec(any::<u64>(), n))
            }),
            copies in prop::collection::vec((any::<usize>(), any::<usize>()), 0..80),
            k in any::<usize>(),
            two_sided in any::<bool>(),
        ) {
            let mut pairs = pairs;
            let n = pairs.len();
            for (from, to) in copies {
                pairs[to % n] = pairs[from % n];
            }
            // Slot `i` holds rank `ranks[i]`: a random permutation.
            let mut ranks = vec![0; n];
            let mut slots: Vec<usize> = (0..n).collect();
            slots.sort_by_key(|&i| shuffle[i]);
            for (rank, slot) in slots.into_iter().enumerate() {
                ranks[slot] = rank;
            }
            let k = 1 + k % (n + 2);
            let (gain, below): (GainFn, BelowFn) = if two_sided {
                (rule_gain_two_sided, rule_gain_two_sided_below)
            } else {
                (rule_gain, rule_gain_below)
            };
            let slots = pairs.iter().zip(&ranks).map(|(&(sum_m, sum_mhat), &rank)| (sum_m, sum_mhat, rank));
            let mut full: Vec<(f64, usize)> = slots.clone().map(|(sm, smh, rank)| (gain(sm, smh), rank)).collect();
            full.sort_by(best_first);
            full.truncate(k);
            let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> { v.iter().map(|&(g, r)| (g.to_bits(), r)).collect() };
            prop_assert_eq!(bits(&top_k_by_gain(slots, k, gain, below)), bits(&full));
        }
    }
}
