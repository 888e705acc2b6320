//! The Rule Coverage Table (§4.1, Algorithm 3): fast iterative scaling.
//!
//! Every tuple carries a bit array `BA` whose `i`-th bit records `t ⊨ rᵢ`.
//! Tuples with identical bit arrays match exactly the same rules and hence
//! share the same maximum-entropy estimate `∏ λ(rᵢ)`; grouping by `BA`
//! yields a tiny table (the RCT). [`Rct`] is a [`ScalingBackend`], so
//! Algorithm 3 is [`crate::scaling::iterative_scaling`] run over the
//! groups instead of `D`. Per mining iteration the miner's scaling step
//! passes over `D` three times — `update-ba` sets the new rules' bits,
//! `build-rct` groups the rows by bit array, `write-mhat` writes the
//! converged estimates back — and the `kl` stage reads it once more to
//! score the new model.
//!
//! Every RCT is filled through one fold, `Rct::add`: rows (groups of one)
//! and partial groups alike, in arrival order, located through a
//! `mask → position` hash index. The miner's per-partition build, the
//! offline [`crate::evaluate`] fit and the streaming maintainer all use it.
//!
//! Bit arrays are `u64` masks; the paper caps `|R|` at 50 rules
//! ("interpretable by human beings"), comfortably below the 64-bit limit,
//! which [`MAX_RULES`] enforces.

use crate::scaling::ScalingBackend;
use sirum_dataflow::hash::FxHashMap;

/// Maximum number of rules a `u64` bit array can track.
pub const MAX_RULES: usize = 64;

/// One row of the Rule Coverage Table: the set of tuples sharing bit array
/// `mask` (cf. Table 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RctGroup {
    /// Shared bit array: bit `i` set ⇔ the tuples match rule `rᵢ`.
    pub mask: u64,
    /// `COUNT(*)` of the group.
    pub count: u64,
    /// `SUM(t[m])` over the group (transformed measure).
    pub sum_m: f64,
    /// `SUM(t[mhat])` over the group — updated in place during scaling.
    pub sum_mhat: f64,
}

/// The Rule Coverage Table: pairwise-disjoint tuple groups keyed by bit
/// array (Fig 4.1), small enough to replicate to every worker.
#[derive(Debug, Clone, Default)]
pub struct Rct {
    /// Sorted by mask.
    groups: Vec<RctGroup>,
    /// `mask → position in groups`: one hash probe per folded row.
    index: FxHashMap<u64, usize>,
}

impl Rct {
    /// Group tuples by bit array (line 6 of Algorithm 3), given parallel
    /// columns of masks, transformed measures and current estimates.
    pub fn build(masks: &[u64], m: &[f64], mhat: &[f64]) -> Rct {
        // lint:allow(SL001) — driver-built parallel arrays
        assert_eq!(masks.len(), m.len());
        // lint:allow(SL001) — driver-built parallel arrays
        assert_eq!(masks.len(), mhat.len());
        Rct::from_partials((0..masks.len()).map(|i| RctGroup {
            mask: masks[i],
            count: 1,
            sum_m: m[i],
            sum_mhat: mhat[i],
        }))
    }

    /// Assemble from pre-aggregated groups (the distributed build path:
    /// each partition aggregates locally, then partial groups are merged).
    pub fn from_partials<I: IntoIterator<Item = RctGroup>>(partials: I) -> Rct {
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

    /// The groups, sorted by mask.
    pub fn groups(&self) -> &[RctGroup] {
        &self.groups
    }

    /// Number of groups (rows of the RCT) — bounded by `min(n, 2^|R|)` and
    /// in practice tiny (§4.1 space analysis).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if the RCT has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
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
pub fn mhat_for_mask(mask: u64, lambdas: &[f64]) -> f64 {
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
    use crate::rule::{Rule, WILDCARD};
    use crate::scaling::tests::{measure_sums, RowBackend};
    use crate::scaling::{iterative_scaling, relative_diff, ScalingConfig};
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
        assert_eq!(rct.len(), 4);
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
        assert_eq!(masks.len(), rct.len());
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
        assert_eq!(rct.len(), 2);
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

    #[test]
    fn rct_is_small_relative_to_data() {
        // 14 tuples, 3 rules → at most 2^3 = 8 groups; actually 4.
        let (t, _rules, masks) = flight_masks();
        let rct = Rct::build(&masks, t.measures(), &[1.0; 14]);
        assert!(rct.len() <= 8);
        assert!(rct.len() < t.num_rows());
    }
}
