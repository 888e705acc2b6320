//! Cube-lattice ancestor enumeration (§2.5 / Fig 2.1).
//!
//! A rule with `w` non-wildcard positions has exactly `2^w` ancestors
//! (including itself): one per subset of constants replaced by wildcards.
//! The multi-stage "column grouping" optimization (§4.3) restricts each
//! stage to wildcarding positions from one attribute group only.

use crate::error::SirumError;

/// Maximum number of constants we are willing to expand in one call
/// (2^24 ≈ 16M ancestors). Exceeding this is a configuration error —
/// sample-based pruning keeps real workloads far below it.
pub(crate) const MAX_EXPAND_BITS: usize = 24;

/// Refuse a table of `d` dimension attributes whose tuple lattice exceeds
/// 2^24 rules: mining it would materialize `2^d` candidate rules
/// per LCA. The miner and the service's `stream()` both refuse through it.
///
/// # Errors
/// [`SirumError::InvalidConfig`] on field `table.dims` when
/// `d > MAX_EXPAND_BITS`.
pub fn check_expandable(d: usize) -> Result<(), SirumError> {
    if d > MAX_EXPAND_BITS {
        return Err(SirumError::invalid_config(
            "table.dims",
            format!(
                "{d} dimension attributes imply 2^{d} candidate rules per \
                 tuple lattice, beyond the 2^{MAX_EXPAND_BITS} expansion \
                 limit; project the table first"
            ),
        ));
    }
    Ok(())
}

/// Partition the `d` dimension indices into `g` groups for the multi-stage
/// ancestor pipeline (§4.3). The paper partitions randomly; we rotate
/// deterministically from `seed` so experiments are reproducible.
pub(crate) fn column_groups(d: usize, g: usize, seed: u64) -> Vec<Vec<usize>> {
    let g = g.clamp(1, d);
    let mut order: Vec<usize> = (0..d).collect();
    // Deterministic Fisher-Yates driven by a simple LCG on the seed.
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    for i in (1..d).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); g];
    for (i, dim) in order.into_iter().enumerate() {
        groups[i % g].push(dim);
    }
    groups.retain(|grp| !grp.is_empty());
    groups
}

/// All `2^w` ancestors of `rule` (including `rule` itself), in subset order.
#[cfg(test)]
pub(crate) fn ancestors(rule: &crate::Rule) -> Vec<crate::Rule> {
    ancestors_restricted(rule, &rule.constant_positions())
}

/// Ancestors obtained by wildcarding subsets of `positions` only (including
/// the empty subset, i.e. `rule` itself). `positions` must name non-wildcard
/// positions of `rule`; wildcard positions are skipped harmlessly.
#[cfg(test)]
pub(crate) fn ancestors_restricted(rule: &crate::Rule, positions: &[usize]) -> Vec<crate::Rule> {
    use crate::rule::RuleKey;
    let mut out = Vec::new();
    rule.expand_into(&(), positions, &mut out);
    out
}

/// Number of ancestors [`ancestors`] would produce, without producing them.
#[cfg(test)]
pub(crate) fn ancestor_count(rule: &crate::Rule) -> u64 {
    1u64 << rule.num_constants().min(63)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Rule, WILDCARD};
    use crate::testkit::{rule, tuple, MAX_CARD, MAX_D};
    use proptest::prelude::*;

    fn r(vals: &[i64]) -> Rule {
        Rule::from_values(
            vals.iter()
                .map(|&v| if v < 0 { WILDCARD } else { v as u32 })
                .collect(),
        )
    }

    #[test]
    fn fig_2_1_lattice_of_single_tuple() {
        // (Fri, SF, London) has the 8 ancestors shown in Figure 2.1.
        let base = r(&[0, 1, 2]);
        let anc = ancestors(&base);
        assert_eq!(anc.len(), 8);
        for expected in [
            r(&[0, 1, 2]),
            r(&[0, 1, -1]),
            r(&[0, -1, 2]),
            r(&[-1, 1, 2]),
            r(&[0, -1, -1]),
            r(&[-1, 1, -1]),
            r(&[-1, -1, 2]),
            r(&[-1, -1, -1]),
        ] {
            assert!(anc.contains(&expected), "missing {expected:?}");
        }
    }

    #[test]
    fn ancestors_of_partial_rule() {
        let base = r(&[-1, 1, 2]);
        let anc = ancestors(&base);
        assert_eq!(anc.len(), 4);
        assert!(anc.contains(&r(&[-1, -1, -1])));
        assert!(anc.contains(&base));
    }

    #[test]
    fn all_ancestors_are_ancestors_and_distinct() {
        let base = r(&[3, 1, 4, 1]);
        let anc = ancestors(&base);
        assert_eq!(anc.len(), 16);
        let mut seen = std::collections::HashSet::new();
        for a in &anc {
            assert!(a.is_ancestor_of(&base));
            assert!(seen.insert(a.clone()), "duplicate {a:?}");
        }
    }

    #[test]
    fn restricted_generation_covers_one_group() {
        // §4.3 example: (Fri,SF,London) with G1={Day,Origin}: the generated
        // ancestors wildcard only positions 0 and 1.
        let base = r(&[0, 1, 2]);
        let g1 = ancestors_restricted(&base, &[0, 1]);
        assert_eq!(g1.len(), 4);
        assert!(g1.contains(&r(&[0, 1, 2])));
        assert!(g1.contains(&r(&[-1, 1, 2])));
        assert!(g1.contains(&r(&[0, -1, 2])));
        assert!(g1.contains(&r(&[-1, -1, 2])));
    }

    #[test]
    fn two_stage_generation_equals_single_stage() {
        // Appendix A, property 1: stage-wise expansion covers exactly the
        // full ancestor set.
        let base = r(&[0, 1, 2]);
        let mut staged: Vec<Rule> = Vec::new();
        for first in ancestors_restricted(&base, &[0, 1]) {
            staged.extend(ancestors_restricted(&first, &[2]));
        }
        let mut full = ancestors(&base);
        staged.sort_by(|a, b| a.values().cmp(b.values()));
        staged.dedup();
        full.sort_by(|a, b| a.values().cmp(b.values()));
        assert_eq!(staged, full);
        // Appendix A uniqueness: no duplicates before dedup either.
        let mut staged2: Vec<Rule> = Vec::new();
        for first in ancestors_restricted(&base, &[0, 1]) {
            staged2.extend(ancestors_restricted(&first, &[2]));
        }
        assert_eq!(staged2.len(), full.len());
    }

    #[test]
    fn restricted_skips_wildcard_positions() {
        let base = r(&[-1, 1, 2]);
        let anc = ancestors_restricted(&base, &[0, 1]);
        // Position 0 is already a wildcard; only position 1 expands.
        assert_eq!(anc.len(), 2);
    }

    #[test]
    fn ancestor_count_matches() {
        assert_eq!(ancestor_count(&r(&[0, 1, 2])), 8);
        assert_eq!(ancestor_count(&r(&[-1, -1, -1])), 1);
    }

    #[test]
    fn column_groups_partition_all_dims() {
        for g in 1..=5 {
            let groups = column_groups(9, g, 42);
            let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..9).collect::<Vec<_>>(), "g={g}");
            assert_eq!(groups.len(), g.min(9));
        }
        // Deterministic in the seed.
        assert_eq!(column_groups(9, 2, 7), column_groups(9, 2, 7));
    }

    #[test]
    fn column_groups_clamp_to_dims() {
        let groups = column_groups(3, 10, 1);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    #[should_panic(expected = "refusing to expand")]
    fn oversized_expansion_panics() {
        let base = Rule::from_values((0..30).collect());
        let _ = ancestors(&base);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
    }
}
