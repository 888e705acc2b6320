//! Cube-lattice ancestor enumeration (§2.5 / Fig 2.1).
//!
//! A rule with `w` non-wildcard positions has exactly `2^w` ancestors
//! (including itself): one per subset of constants replaced by wildcards.
//! The multi-stage "column grouping" optimization (§4.3) restricts each
//! stage to wildcarding positions from one attribute group only.

use crate::error::SirumError;
use crate::rule::{Rule, RuleKey};

/// Maximum number of constants we are willing to expand in one call
/// (2^24 ≈ 16M ancestors). Exceeding this is a configuration error —
/// sample-based pruning keeps real workloads far below it.
pub const MAX_EXPAND_BITS: usize = 24;

/// Refuse a table of `d` dimension attributes whose tuple lattice exceeds
/// [`MAX_EXPAND_BITS`]: mining it would materialize `2^d` candidate rules
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

/// All `2^w` ancestors of `rule` (including `rule` itself), in subset order.
pub fn ancestors(rule: &Rule) -> Vec<Rule> {
    ancestors_restricted(rule, &rule.constant_positions())
}

/// Ancestors obtained by wildcarding subsets of `positions` only (including
/// the empty subset, i.e. `rule` itself). `positions` must name non-wildcard
/// positions of `rule`; wildcard positions are skipped harmlessly.
pub fn ancestors_restricted(rule: &Rule, positions: &[usize]) -> Vec<Rule> {
    let mut out = Vec::new();
    rule.expand_into(&(), positions, &mut out);
    out
}

/// Number of ancestors [`ancestors`] would produce, without producing them.
pub fn ancestor_count(rule: &Rule) -> u64 {
    1u64 << rule.num_constants().min(63)
}

/// Partition the `d` dimension indices into `g` groups for the multi-stage
/// ancestor pipeline (§4.3). The paper partitions randomly; we rotate
/// deterministically from `seed` so experiments are reproducible.
pub fn column_groups(d: usize, g: usize, seed: u64) -> Vec<Vec<usize>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::WILDCARD;

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
}
