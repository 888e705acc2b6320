//! The Rule Coverage Table (§4.1, Algorithm 3): fast iterative scaling.
//!
//! Every tuple carries a bit array `BA` whose `i`-th bit records `t ⊨ rᵢ`.
//! Tuples with identical bit arrays match exactly the same rules and hence
//! share the same maximum-entropy estimate `∏ λ(rᵢ)`; grouping by `BA`
//! yields a tiny table (the RCT). [`Rct`] is a [`ScalingBackend`], so
//! Algorithm 3 is [`crate::scaling::iterative_scaling`] run over the
//! groups instead of `D`. Per mining iteration the miner's scaling step
//! passes over `D` twice — `update-ba` sets the new rules' bits and folds
//! each row into the RCT in the same pass, `write-mhat` writes the
//! converged estimates back.
//!
//! The groups also score the model: tuples of one group share the
//! estimate `q = ∏ λ`, so KL divergence (§2.3) needs one `ln` per group
//! and the data's `Σ m·ln m`, which does not change as rules are added.
//! `Rct::kl` is the one KL of a fitted model — the miner's (Algorithm
//! 1's naive path scales the RCT's groups alongside `D`, so the RCT
//! tracks its fit), the streaming maintainer's and [`crate::evaluate`]'s
//! all go through it.
//!
//! Every RCT is filled through one fold, `Rct::add`: rows (groups of one)
//! and partial groups alike, in arrival order, located through a
//! `mask → position` hash index. The miner's `update-ba` pass, the
//! offline [`crate::evaluate`] fit and the streaming maintainer all use it.
//!
//! Bit arrays are `u64` masks; the paper caps `|R|` at 50 rules
//! ("interpretable by human beings"), comfortably below the 64-bit limit,
//! which [`MAX_RULES`] enforces.

use crate::gain::kl_from_parts;
use crate::scaling::ScalingBackend;
use sirum_dataflow::hash::FxHashMap;

/// Maximum number of rules a `u64` bit array can track.
pub(crate) const MAX_RULES: usize = 64;

/// One row of the Rule Coverage Table: the set of tuples sharing bit array
/// `mask` (cf. Table 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RctGroup {
    /// Shared bit array: bit `i` set ⇔ the tuples match rule `rᵢ`.
    pub(crate) mask: u64,
    /// `COUNT(*)` of the group.
    pub(crate) count: u64,
    /// `SUM(t[m])` over the group (transformed measure).
    pub(crate) sum_m: f64,
    /// `SUM(t[mhat])` over the group — updated in place during scaling.
    pub(crate) sum_mhat: f64,
}

/// The Rule Coverage Table: pairwise-disjoint tuple groups keyed by bit
/// array (Fig 4.1), small enough to replicate to every worker.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rct {
    /// Sorted by mask.
    groups: Vec<RctGroup>,
    /// `mask → position in groups`: one hash probe per folded row.
    index: FxHashMap<u64, usize>,
}

impl Rct {
    /// Group tuples by bit array (line 6 of Algorithm 3), given parallel
    /// columns of masks, transformed measures and current estimates.
    pub(crate) fn build(masks: &[u64], m: &[f64], mhat: &[f64]) -> Rct {
        // lint:allow(SL001) — driver-built parallel arrays
        assert_eq!(masks.len(), m.len());
        // lint:allow(SL001) — driver-built parallel arrays
        assert_eq!(masks.len(), mhat.len());
        let mut rct = Rct::default();
        rct.add_rows(masks, m, mhat);
        rct
    }

    /// Assemble from pre-aggregated groups (the distributed build path:
    /// each partition aggregates locally, then partial groups are merged).
    pub(crate) fn from_partials<I: IntoIterator<Item = RctGroup>>(partials: I) -> Rct {
        let mut rct = Rct::default();
        rct.add(partials);
        rct
    }

    /// Fold rows (groups of one) or partial groups in, in iteration order:
    /// each adds its count and sums to the group of its mask, or starts
    /// that group. Groups that arrive in the same order therefore always
    /// carry the same bits. The new groups are sorted in once, at the end.
    pub(crate) fn add<I: IntoIterator<Item = RctGroup>>(&mut self, parts: I) {
        let before = self.groups.len();
        for part in parts {
            match self.index.get(&part.mask) {
                Some(&at) => {
                    let g = &mut self.groups[at];
                    g.count += part.count;
                    g.sum_m += part.sum_m;
                    g.sum_mhat += part.sum_mhat;
                }
                None => {
                    self.index.insert(part.mask, self.groups.len());
                    self.groups.push(part);
                }
            }
        }
        if self.groups.len() > before {
            self.groups.sort_unstable_by_key(|g| g.mask);
            for (at, g) in self.groups.iter().enumerate() {
                self.index.insert(g.mask, at);
            }
        }
    }

    /// Fold rows given as parallel columns of masks, transformed measures
    /// and current estimates, in row order (see [`Self::add`]).
    pub(crate) fn add_rows(&mut self, masks: &[u64], m: &[f64], mhat: &[f64]) {
        let rows = masks.iter().zip(m).zip(mhat);
        self.add(rows.map(|((&mask, &sum_m), &sum_mhat)| RctGroup {
            mask,
            count: 1,
            sum_m,
            sum_mhat,
        }));
    }

    /// The groups, sorted by mask.
    pub(crate) fn groups(&self) -> &[RctGroup] {
        &self.groups
    }

    /// KL divergence (§2.3) of the model `λ` fitted over these groups,
    /// given `m_ln_m = Σ_{m>0} m·ln m` over the same tuples. Every tuple
    /// of a group carries the estimate `q = ∏_{i ∈ BA} λᵢ`, so
    /// `Σ_{m>0} m·ln(m/m̂) = Σ m·ln m − Σ_g Σm_g·ln q_g`.
    ///
    /// Saturates as [`crate::gain::kl_divergence`] does: no true mass
    /// (`Σm ≤ 0`) scores 0; a group with no mass adds nothing whatever its
    /// estimate (a zero-mass rule fits its groups to `q = 0`); mass the
    /// model gives no estimate (`q ≤ 0` or `Σm̂ ≤ 0`) scores +∞.
    pub(crate) fn kl(&self, lambdas: &[f64], m_ln_m: f64) -> f64 {
        let (mut s1, mut sum_m, mut sum_mhat) = (m_ln_m, 0.0, 0.0);
        let mut unestimated = false;
        for g in &self.groups {
            sum_m += g.sum_m;
            sum_mhat += g.sum_mhat;
            if g.sum_m > 0.0 {
                let q = mhat_for_mask(g.mask, lambdas);
                unestimated |= q <= 0.0;
                s1 -= g.sum_m * q.ln();
            }
        }
        if sum_m <= 0.0 {
            0.0
        } else if unestimated || sum_mhat <= 0.0 {
            f64::INFINITY
        } else {
            kl_from_parts(s1, sum_m, sum_mhat)
        }
    }
}

/// Iterative scaling over the RCT (Algorithm 3, lines 7-28): the fixed
/// point of Algorithm 1, touching only the groups and allocating nothing.
impl ScalingBackend for Rct {
    /// `Σ mhat` over the groups covering each rule (line 10), in one pass:
    /// every group adds its `SUM(t[mhat])` to each rule its bit array names,
    /// so each rule's sum still accumulates in group order.
    fn mhat_sums(&self, out: &mut [f64]) {
        out.fill(0.0);
        let live = rule_bits(out.len());
        for g in &self.groups {
            let mut bits = g.mask & live;
            while bits != 0 {
                out[bits.trailing_zeros() as usize] += g.sum_mhat;
                bits &= bits - 1;
            }
        }
    }

    /// Scale `SUM(t[mhat])` of every group covering rule `i` (lines 17-21).
    fn scale(&mut self, i: usize, factor: f64) {
        let bit = 1u64 << i;
        for g in &mut self.groups {
            if g.mask & bit != 0 {
                g.sum_mhat *= factor;
            }
        }
    }
}

/// The bit-array bits of the first `num_rules` rules.
#[inline]
pub(crate) fn rule_bits(num_rules: usize) -> u64 {
    if num_rules >= MAX_RULES {
        u64::MAX
    } else {
        (1u64 << num_rules) - 1
    }
}

/// Per-tuple estimate implied by a bit array: `∏_{i ∈ mask} λᵢ` (the
/// write-out step, lines 23-25 of Algorithm 3).
#[inline]
pub(crate) fn mhat_for_mask(mask: u64, lambdas: &[f64]) -> f64 {
    let mut product = 1.0;
    let mut bits = mask;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        product *= lambdas[i];
        bits &= bits - 1;
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::kl_divergence;
    use crate::rule::{Rule, WILDCARD};
    use crate::scaling::tests::{measure_sums, RowBackend};
    use crate::scaling::{iterative_scaling, relative_diff, ScalingConfig};
    use proptest::prelude::*;
    use sirum_table::generators::flights;

    /// Bit arrays for the flight table against rules r1..r3 of Table 1.2.
    fn flight_masks() -> (sirum_table::Table, Vec<Rule>, Vec<u64>) {
        let t = flights();
        let london = t.dict(2).code("London").unwrap();
        let fri = t.dict(0).code("Fri").unwrap();
        let rules = vec![
            Rule::all_wildcards(3),
            Rule::from_values(vec![WILDCARD, WILDCARD, london]),
            Rule::from_values(vec![fri, WILDCARD, WILDCARD]),
        ];
        let masks: Vec<u64> = t
            .rows()
            .map(|row| {
                let mut mask = 0u64;
                for (i, r) in rules.iter().enumerate() {
                    if r.matches(&row) {
                        mask |= 1 << i;
                    }
                }
                mask
            })
            .collect();
        (t, rules, masks)
    }

    #[test]
    fn table_4_1_groups() {
        // After the third rule, the RCT has the four groups of Table 4.1:
        // 1000(9 tuples, Σm=68), 1100(3, 41), 1010(1, 16), 1110(1, 20).
        // (The paper writes bit arrays left-to-right; our bit 0 is r1.)
        let (t, _rules, masks) = flight_masks();
        let mhat2: Vec<f64> = {
            // Column mhat2 of Table 1.1: 15.25 for London-bound, 8.4 others
            // (paper rounds 15.25 to 15.3).
            let london = t.dict(2).code("London").unwrap();
            t.rows()
                .map(|row| if row[2] == london { 15.3 } else { 8.4 })
                .collect()
        };
        let rct = Rct::build(&masks, t.measures(), &mhat2);
        assert_eq!(rct.groups().len(), 4);
        let get = |mask: u64| rct.groups().iter().find(|g| g.mask == mask).unwrap();
        let g1 = get(0b001); // paper's BA 1000
        assert_eq!(g1.count, 9);
        assert!((g1.sum_m - 68.0).abs() < 1e-9);
        assert!((g1.sum_mhat - 9.0 * 8.4).abs() < 1e-9); // paper: 75.6
        let g2 = get(0b011); // paper's BA 1100
        assert_eq!(g2.count, 3);
        assert!((g2.sum_m - 41.0).abs() < 1e-9);
        let g3 = get(0b101); // paper's BA 1010 — tuple 2 only
        assert_eq!(g3.count, 1);
        assert!((g3.sum_m - 16.0).abs() < 1e-9);
        assert!((g3.sum_mhat - 8.4).abs() < 1e-9);
        let g4 = get(0b111); // paper's BA 1110 — tuple 1
        assert_eq!(g4.count, 1);
        assert!((g4.sum_m - 20.0).abs() < 1e-9);
        assert!((g4.sum_mhat - 15.3).abs() < 1e-9); // paper: 15.3
    }

    #[test]
    fn groups_partition_the_dataset() {
        let (t, _rules, masks) = flight_masks();
        let rct = Rct::build(&masks, t.measures(), &[1.0; 14]);
        assert_eq!(rct.groups().iter().map(|g| g.count).sum::<u64>(), 14);
        let total_m: f64 = rct.groups().iter().map(|g| g.sum_m).sum();
        assert!((total_m - 145.0).abs() < 1e-9);
        // Masks are distinct (disjoint groups, Fig 4.1).
        let mut masks: Vec<u64> = rct.groups().iter().map(|g| g.mask).collect();
        masks.dedup();
        assert_eq!(masks.len(), rct.groups().len());
    }

    #[test]
    fn rct_scaling_matches_naive_scaling() {
        // Algorithm 3 must reach the same fixed point as Algorithm 1.
        let (t, rules, masks) = flight_masks();
        let m_sums: Vec<f64> = measure_sums(&t, &rules).iter().map(|s| s.0).collect();
        let cfg = ScalingConfig {
            epsilon: 1e-10,
            max_iterations: 100_000,
        };

        // Naive (Algorithm 1): per-row estimates, rules re-matched per pass.
        let mut naive_lambdas = vec![1.0; rules.len()];
        let mut backend = RowBackend::new(&t, &rules);
        let naive_out = iterative_scaling(&mut backend, &m_sums, &mut naive_lambdas, &cfg, None);
        assert!(naive_out.converged);

        // RCT (Algorithm 3), starting from mhat = 1.
        let mut rct = Rct::build(&masks, t.measures(), &[1.0; 14]);
        let mut rct_lambdas = vec![1.0; rules.len()];
        let rct_out = iterative_scaling(&mut rct, &m_sums, &mut rct_lambdas, &cfg, None);
        assert!(rct_out.converged);

        for (a, b) in naive_lambdas.iter().zip(&rct_lambdas) {
            assert!((a - b).abs() < 1e-6, "{naive_lambdas:?} vs {rct_lambdas:?}");
        }
        // Same per-tuple estimates after write-out.
        for (i, &mask) in masks.iter().enumerate() {
            let via_rct = mhat_for_mask(mask, &rct_lambdas);
            assert!((via_rct - backend.mhat[i]).abs() < 1e-6);
        }
        // Same number of λ updates (the algorithms pick the same sequence).
        assert_eq!(naive_out.iterations, rct_out.iterations);
    }

    #[test]
    fn rct_satisfies_constraints_at_convergence() {
        let (t, rules, masks) = flight_masks();
        let m_sums: Vec<f64> = measure_sums(&t, &rules).iter().map(|s| s.0).collect();
        let mut rct = Rct::build(&masks, t.measures(), &[1.0; 14]);
        let mut lambdas = vec![1.0; rules.len()];
        let cfg = ScalingConfig {
            epsilon: 1e-9,
            max_iterations: 100_000,
        };
        let out = iterative_scaling(&mut rct, &m_sums, &mut lambdas, &cfg, None);
        assert!(out.converged);
        let mut mhat_sums = vec![0.0; rules.len()];
        rct.mhat_sums(&mut mhat_sums);
        for (i, (&target, &mhat)) in m_sums.iter().zip(&mhat_sums).enumerate() {
            assert!(relative_diff(target, mhat) <= 1e-9, "rule {i}");
        }
    }

    #[test]
    fn from_partials_merges_groups() {
        let a = RctGroup {
            mask: 0b01,
            count: 2,
            sum_m: 3.0,
            sum_mhat: 2.0,
        };
        let b = RctGroup {
            mask: 0b01,
            count: 1,
            sum_m: 1.0,
            sum_mhat: 1.0,
        };
        let c = RctGroup {
            mask: 0b11,
            count: 5,
            sum_m: 10.0,
            sum_mhat: 5.0,
        };
        let rct = Rct::from_partials([a, b, c]);
        assert_eq!(rct.groups().len(), 2);
        let merged = rct.groups().iter().find(|g| g.mask == 0b01).unwrap();
        assert_eq!(merged.count, 3);
        assert!((merged.sum_m - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mhat_for_mask_multiplies_matched_lambdas() {
        let lambdas = [2.0, 3.0, 5.0];
        assert_eq!(mhat_for_mask(0b000, &lambdas), 1.0);
        assert_eq!(mhat_for_mask(0b001, &lambdas), 2.0);
        assert_eq!(mhat_for_mask(0b101, &lambdas), 10.0);
        assert_eq!(mhat_for_mask(0b111, &lambdas), 30.0);
    }

    /// One group per `(mask, count, Σm, Σm̂)`.
    fn groups(parts: &[(u64, u64, f64, f64)]) -> Rct {
        Rct::from_partials(
            parts
                .iter()
                .map(|&(mask, count, sum_m, sum_mhat)| RctGroup {
                    mask,
                    count,
                    sum_m,
                    sum_mhat,
                }),
        )
    }

    #[test]
    fn kl_without_true_mass_is_zero() {
        let rct = groups(&[(0b01, 2, 0.0, 2.0), (0b11, 1, 0.0, 0.0)]);
        assert_eq!(rct.kl(&[1.0, 0.0], 0.0), 0.0);
        assert_eq!(Rct::default().kl(&[], 0.0), 0.0);
    }

    #[test]
    fn a_massless_group_estimated_at_zero_adds_nothing() {
        // Rows (m, m̂): (2, 2), (2, 2) in group 0b01, (0, 0) in group 0b11:
        // the zero-mass rule 1 fitted its only row to 0.
        let rct = groups(&[(0b01, 2, 4.0, 4.0), (0b11, 1, 0.0, 0.0)]);
        let m_ln_m = 2.0 * 2.0 * 2f64.ln();
        let kl = rct.kl(&[2.0, 0.0], m_ln_m);
        let rows = kl_divergence(&[2.0, 2.0, 0.0], &[2.0, 2.0, 0.0]);
        assert!(kl.abs() < 1e-15 && rows.abs() < 1e-15, "{kl} vs {rows}");
    }

    #[test]
    fn true_mass_without_an_estimate_is_infinite() {
        let m_ln_m = 3.0 * 3f64.ln();
        let zero = groups(&[(0b01, 1, 1.0, 1.0), (0b11, 1, 3.0, 0.0)]);
        assert_eq!(zero.kl(&[1.0, 0.0], m_ln_m), f64::INFINITY);
        let negative = groups(&[(0b01, 1, 1.0, 1.0), (0b11, 1, 3.0, -2.0)]);
        assert_eq!(negative.kl(&[1.0, -2.0], m_ln_m), f64::INFINITY);
        assert_eq!(kl_divergence(&[1.0, 3.0], &[1.0, 0.0]), f64::INFINITY);
    }

    /// A random table (codes in `0..3`, measures often exactly 0) and a
    /// random rule list over it, all-wildcards first.
    fn table_and_rules() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<f64>, Vec<Rule>)> {
        (1usize..=3).prop_flat_map(|d| {
            let value = prop_oneof![Just(WILDCARD), 0u32..3];
            (
                prop::collection::vec(
                    (
                        prop::collection::vec(0u32..3, d),
                        prop_oneof![Just(0.0), 0.0f64..10.0],
                    ),
                    1..80,
                ),
                prop::collection::vec(prop::collection::vec(value, d), 0..6),
            )
                .prop_map(move |(rows, extra)| {
                    let (codes, m): (Vec<Vec<u32>>, Vec<f64>) = rows.into_iter().unzip();
                    let mut rules = vec![Rule::all_wildcards(d)];
                    rules.extend(extra.into_iter().map(Rule::from_values));
                    (codes, m, rules)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn group_kl_matches_row_kl(
            (codes, mut m, rules) in table_and_rules(),
            zeroed in 0usize..8,
            parts in 1usize..=3,
        ) {
            // Zero the measure under one rule (none when `zeroed` is past
            // the list), so zero-mass rules, fitted to `λ = 0`, come up in
            // most cases.
            if let Some(rule) = rules.get(zeroed) {
                for (row, mi) in codes.iter().zip(m.iter_mut()) {
                    if rule.matches(row) {
                        *mi = 0.0;
                    }
                }
            }
            let masks: Vec<u64> = codes
                .iter()
                .map(|row| {
                    let hits = rules.iter().enumerate().filter(|(_, r)| r.matches(row));
                    hits.fold(0, |mask, (i, _)| mask | 1 << i)
                })
                .collect();
            let m_sums: Vec<f64> = (0..rules.len())
                .map(|i| {
                    let covered = masks.iter().zip(&m).filter(|(&mask, _)| mask >> i & 1 == 1);
                    covered.fold(0.0, |acc, (_, &mi)| acc + mi)
                })
                .collect();
            // The miner's build: each partition folds its rows, and the
            // partitions merge in order.
            let chunk = masks.len().div_ceil(parts);
            let mut rct = Rct::default();
            for (ms, ws) in masks.chunks(chunk).zip(m.chunks(chunk)) {
                rct.add(Rct::build(ms, ws, &vec![1.0; ms.len()]).groups().iter().copied());
            }
            let mut lambdas = vec![1.0; rules.len()];
            let cfg = ScalingConfig { epsilon: 1e-9, max_iterations: 10_000 };
            iterative_scaling(&mut rct, &m_sums, &mut lambdas, &cfg, None);

            let m_ln_m = m.iter().filter(|&&mi| mi > 0.0).fold(0.0, |acc, &mi| acc + mi * mi.ln());
            let mhat: Vec<f64> = masks.iter().map(|&mask| mhat_for_mask(mask, &lambdas)).collect();
            let (group, rows) = (rct.kl(&lambdas, m_ln_m), kl_divergence(&m, &mhat));
            // 1e-12 relative, with an absolute floor of 1e-13 for KL near
            // 0 (below KL = 0.1 the floor is the wider bound): the
            // cancellation in `Σ m·ln m − Σ Σm_g·ln q_g` left at most
            // 1.4e-14 over 8 seeds of these sizes.
            prop_assert!(
                group == rows || (group - rows).abs() <= 1e-12 * rows.abs() + 1e-13,
                "group {group:e} vs rows {rows:e}, λ {lambdas:?}"
            );
        }
    }

    #[test]
    fn rct_is_small_relative_to_data() {
        // 14 tuples, 3 rules → at most 2^3 = 8 groups; actually 4.
        let (t, _rules, masks) = flight_masks();
        let rct = Rct::build(&masks, t.measures(), &[1.0; 14]);
        assert!(rct.groups().len() <= 8);
        assert!(rct.groups().len() < t.num_rows());
    }
}
