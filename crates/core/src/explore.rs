//! Smart data-cube exploration (§1 Table 1.3, §5.6.2): the user has already
//! examined some group-by results; SIRUM recommends the `k` cells (rules)
//! carrying the most additional information.

use crate::error::SirumError;
use crate::miner::{CandidateStrategy, Miner, MiningResult, SirumConfig};
use crate::rule::{Rule, WILDCARD};
use sirum_dataflow::Engine;
use sirum_table::Table;

/// Result of a data-cube exploration run.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// The mining result; `rules` begins with the all-wildcards rule and
    /// the prior-knowledge rules, followed by the recommendations.
    pub result: MiningResult,
    /// The prior-knowledge rules derived from the examined group-bys.
    pub prior: Vec<Rule>,
}

/// The prior knowledge of §5.6.2: the user has examined the results of the
/// `num_groupbys` single-attribute group-by queries with the lowest
/// cardinality. Each examined group is one rule (a constant on that
/// attribute, wildcards elsewhere). Only values that actually occur are
/// included (active domains).
pub fn prior_rules_from_groupbys(table: &Table, num_groupbys: usize) -> Vec<Rule> {
    let d = table.num_dims();
    let mut attrs: Vec<usize> = (0..d).collect();
    attrs.sort_by_key(|&a| table.dict(a).cardinality());
    let mut prior = Vec::new();
    for &a in attrs.iter().take(num_groupbys) {
        for (code, _value) in table.dict(a).iter() {
            let mut values = vec![WILDCARD; d];
            values[a] = code;
            prior.push(Rule::from_values(values));
        }
    }
    prior
}

/// Run data-cube exploration: seed the model with the prior-knowledge rules
/// and mine `config.k` recommendations. Candidate generation is exhaustive
/// (no sample pruning), matching the original technique of Sarawagi \[29\];
/// set `config.reset_lambdas_on_insert = true` to also reproduce that
/// paper's from-scratch iterative scaling.
pub fn try_explore(
    engine: &Engine,
    table: &Table,
    mut config: SirumConfig,
) -> Result<ExploreResult, SirumError> {
    config.strategy = CandidateStrategy::FullCube;
    let prior = prior_rules_from_groupbys(table, 2);
    let miner = Miner::new(engine.clone(), config);
    let result = miner.try_mine_with_prior(table, &prior)?;
    Ok(ExploreResult { result, prior })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirum_dataflow::EngineConfig;
    use sirum_table::generators::flights;

    #[test]
    fn prior_rules_cover_smallest_domains() {
        let t = flights();
        // Cardinalities: Day 7, Origin 6, Destination 7 → two smallest are
        // Origin (6) and Day or Destination (7, tie broken by index: Day).
        let prior = prior_rules_from_groupbys(&t, 2);
        assert_eq!(prior.len(), 13); // 6 + 7
        for r in &prior {
            assert_eq!(r.num_constants(), 1);
        }
        // Each prior rule covers at least one tuple (active domain).
        for r in &prior {
            assert!(t.rows().any(|row| r.matches(&row)), "{r:?} has no support");
        }
    }

    #[test]
    fn one_groupby_only() {
        let t = flights();
        let prior = prior_rules_from_groupbys(&t, 1);
        assert_eq!(prior.len(), 6); // Origin has the smallest domain
        let col: Vec<usize> = prior.iter().map(|r| r.constant_positions()[0]).collect();
        assert!(col.iter().all(|&c| c == col[0]), "single attribute");
    }

    #[test]
    fn explore_recommends_new_rules() {
        let t = flights();
        let engine = Engine::try_new(EngineConfig::in_memory()).unwrap();
        let config = SirumConfig {
            k: 2,
            ..SirumConfig::default()
        };
        let out = try_explore(&engine, &t, config).unwrap();
        // Seed = 1 (wildcards) + priors; then 2 recommendations.
        assert_eq!(out.result.rules.len(), 1 + out.prior.len() + 2);
        // Recommendations must not repeat the prior knowledge.
        let recs = &out.result.rules[1 + out.prior.len()..];
        for rec in recs {
            assert!(!out.prior.contains(&rec.rule));
            assert!(rec.gain > 0.0);
        }
        // KL decreases as recommendations are added.
        let trace = &out.result.kl_trace;
        assert!(trace.last().unwrap() <= trace.first().unwrap());
    }
}
