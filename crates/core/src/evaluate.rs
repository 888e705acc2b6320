//! Offline evaluation of a rule set against a table: fit the
//! maximum-entropy model for the given rules (in memory, via the RCT) and
//! report KL divergence and information gain. Used to score rule sets mined
//! from samples against the full data (§4.5 / §5.7.3) and to compare
//! variants at equal quality (the `Optimized*` runs of §5.6).

use crate::data::for_rule_rows;
use crate::error::SirumError;
use crate::gain::bernoulli_kl;
use crate::prepared::PreparedTable;
use crate::rct::{mhat_for_mask, Rct, RctGroup, MAX_RULES};
use crate::rule::Rule;
use crate::scaling::{iterative_scaling, ScalingConfig};
use sirum_table::{ColScratch, Table};

/// Quality scores of a rule set on a dataset.
#[derive(Debug, Clone, Copy)]
pub struct RuleSetEvaluation {
    /// KL divergence of the fitted model.
    pub kl: f64,
    /// KL divergence with only the all-wildcards rule (the §5.1 baseline).
    pub baseline_kl: f64,
    /// Information gain: `baseline_kl − kl` (§5.1).
    pub information_gain: f64,
    /// Bernoulli KL in the style of \[16\], when the measure is binary.
    pub binary_kl: Option<f64>,
    /// Whether iterative scaling converged within tolerance.
    pub converged: bool,
}

/// Fit and score `rules` on `table`. The first rule must be all-wildcards
/// (SIRUM's invariant, §2.2); at most 64 rules. Errors name the
/// violated invariant. Validates the table and fits its measure transform
/// on the way in; callers that already hold a [`PreparedTable`] (e.g. a
/// service catalog entry) should use [`try_evaluate_rules_prepared`] and
/// skip that work.
pub fn try_evaluate_rules(
    table: &Table,
    rules: &[Rule],
    cfg: &ScalingConfig,
) -> Result<RuleSetEvaluation, SirumError> {
    validate_rules(rules, table.num_dims())?;
    let prepared = PreparedTable::try_new(table)?;
    Ok(evaluate_prepared(&prepared, rules, cfg))
}

/// As [`try_evaluate_rules`], but scanning an existing preparation's
/// shared columns — no re-validation of the data.
pub fn try_evaluate_rules_prepared(
    prepared: &PreparedTable,
    rules: &[Rule],
    cfg: &ScalingConfig,
) -> Result<RuleSetEvaluation, SirumError> {
    validate_rules(rules, prepared.num_dims())?;
    Ok(evaluate_prepared(prepared, rules, cfg))
}

/// The rule-list invariants shared by both entry points.
fn validate_rules(rules: &[Rule], d: usize) -> Result<(), SirumError> {
    if rules.is_empty() {
        return Err(SirumError::invalid_config(
            "rules",
            "need at least the all-wildcards rule",
        ));
    }
    if rules.len() > MAX_RULES {
        return Err(SirumError::invalid_config(
            "rules",
            format!(
                "{} rules exceed the {MAX_RULES}-rule bit-array limit",
                rules.len()
            ),
        ));
    }
    if let Some(bad) = rules.iter().find(|r| r.arity() != d) {
        return Err(SirumError::invalid_config(
            "rules",
            format!("rule has {} dimensions but the table has {d}", bad.arity()),
        ));
    }
    if rules[0] != Rule::all_wildcards(d) {
        return Err(SirumError::invalid_config(
            "rules",
            "the first rule must be (*, …, *)",
        ));
    }
    Ok(())
}

/// The evaluation itself, over a validated rule list and preparation.
fn evaluate_prepared(
    prepared: &PreparedTable,
    rules: &[Rule],
    cfg: &ScalingConfig,
) -> RuleSetEvaluation {
    let frame = prepared.frame();
    let m_prime = prepared.m_prime();
    let n = frame.num_rows();

    // Bit arrays + constraint targets: one coverage scan per rule, so each
    // `m_sums[j]` accumulates its rows in ascending order.
    let mut masks = vec![0u64; n];
    let mut m_sums = vec![0.0f64; rules.len()];
    let view = frame.view();
    let mut scratch = ColScratch::new();
    for (j, rule) in rules.iter().enumerate() {
        let bit = 1u64 << j;
        for_rule_rows(rule, &view, &mut scratch, |i| {
            masks[i] |= bit;
            m_sums[j] += m_prime[i];
        });
    }

    // Fit via the RCT (fast, exact same fixed point as Algorithm 1), and
    // score the fit on it.
    let mut rct = Rct::build(&masks, m_prime, &vec![1.0; n]);
    let mut lambdas = vec![1.0; rules.len()];
    let outcome = iterative_scaling(&mut rct, &m_sums, &mut lambdas, cfg, None);
    let kl = rct.kl(&lambdas, prepared.m_ln_m());

    // Baseline model: the all-wildcards rule alone sets every estimate to
    // the global average — one group, no fitting.
    let avg = m_sums[0] / n as f64;
    let wildcards = RctGroup {
        mask: 1,
        count: n as u64,
        sum_m: m_sums[0],
        sum_mhat: avg * n as f64,
    };
    let baseline_kl = Rct::from_partials([wildcards]).kl(&[avg], prepared.m_ln_m());

    // The raw measure column (the frame carries it alongside m′).
    let measures = frame.measures();
    let is_binary = measures.iter().all(|&m| m == 0.0 || m == 1.0);
    let binary = is_binary.then(|| {
        let rows = masks.iter().zip(measures);
        rows.fold(0.0, |acc, (&mask, &m)| {
            acc + bernoulli_kl(m, mhat_for_mask(mask, &lambdas))
        })
    });

    RuleSetEvaluation {
        kl,
        baseline_kl,
        information_gain: baseline_kl - kl,
        binary_kl: binary,
        converged: outcome.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{Miner, SirumConfig};
    use crate::rule::WILDCARD;
    use sirum_dataflow::{Engine, EngineConfig};
    use sirum_table::fingerprint::Fnv64;
    use sirum_table::generators::{flights, gdelt_dirty, income_like, tlc_like};

    #[test]
    fn wildcard_only_has_zero_information_gain() {
        let t = flights();
        let rules = vec![Rule::all_wildcards(3)];
        let eval = try_evaluate_rules(&t, &rules, &ScalingConfig::default()).unwrap();
        assert!(eval.converged);
        assert!((eval.kl - eval.baseline_kl).abs() < 1e-9);
        assert!(eval.information_gain.abs() < 1e-9);
    }

    #[test]
    fn paper_kl_values_for_flight_example() {
        // §2.3 quotes KL(m‖mhat₁)=4.1e-3 and KL(m‖mhat₂)=1.4e-3, but those
        // numbers are not reproducible from Table 1.1 under any standard
        // normalization (their ratio 2.93 cannot be matched by rescaling —
        // the exact natural-log KL ratio of this example is 1.396). We pin
        // the exact values: KL₁ = Σ p·ln(p/q) = 0.14604…, KL₂ = 0.10461…;
        // the qualitative claim (adding r2 reduces KL) holds either way.
        let t = flights();
        let r1 = Rule::all_wildcards(3);
        let eval1 =
            try_evaluate_rules(&t, std::slice::from_ref(&r1), &ScalingConfig::default()).unwrap();
        assert!((eval1.kl - 0.146043).abs() < 1e-4, "kl1 = {}", eval1.kl);
        let london = t.dict(2).code("London").unwrap();
        let r2 = Rule::from_values(vec![WILDCARD, WILDCARD, london]);
        let eval2 = try_evaluate_rules(
            &t,
            &[r1, r2],
            &ScalingConfig {
                epsilon: 1e-8,
                max_iterations: 100_000,
            },
        )
        .unwrap();
        assert!((eval2.kl - 0.104610).abs() < 1e-4, "kl2 = {}", eval2.kl);
        assert!(eval2.kl < eval1.kl, "adding r2 must reduce KL");
        assert!(eval2.information_gain > eval1.information_gain);
    }

    #[test]
    fn more_rules_never_hurt() {
        let t = flights();
        let london = t.dict(2).code("London").unwrap();
        let fri = t.dict(0).code("Fri").unwrap();
        let r1 = Rule::all_wildcards(3);
        let r2 = Rule::from_values(vec![WILDCARD, WILDCARD, london]);
        let r3 = Rule::from_values(vec![fri, WILDCARD, WILDCARD]);
        let cfg = ScalingConfig {
            epsilon: 1e-8,
            max_iterations: 100_000,
        };
        let e1 = try_evaluate_rules(&t, std::slice::from_ref(&r1), &cfg).unwrap();
        let e2 = try_evaluate_rules(&t, &[r1.clone(), r2.clone()], &cfg).unwrap();
        let e3 = try_evaluate_rules(&t, &[r1, r2, r3], &cfg).unwrap();
        assert!(e2.kl <= e1.kl + 1e-9);
        assert!(e3.kl <= e2.kl + 1e-9);
    }

    #[test]
    fn binary_metric_reported_only_for_binary_measures() {
        let income = income_like(500, 3);
        let rules = vec![Rule::all_wildcards(income.num_dims())];
        let eval = try_evaluate_rules(&income, &rules, &ScalingConfig::default()).unwrap();
        assert!(eval.binary_kl.is_some());
        let numeric = flights();
        let eval2 = try_evaluate_rules(
            &numeric,
            &[Rule::all_wildcards(3)],
            &ScalingConfig::default(),
        )
        .unwrap();
        assert!(eval2.binary_kl.is_none());
    }

    #[test]
    fn first_rule_must_be_all_wildcards() {
        let t = flights();
        let fri = t.dict(0).code("Fri").unwrap();
        let bad = Rule::from_values(vec![fri, WILDCARD, WILDCARD]);
        let err = try_evaluate_rules(&t, &[bad], &ScalingConfig::default()).unwrap_err();
        assert!(
            matches!(&err, SirumError::InvalidConfig { field: "rules", reason }
                if reason.contains("first rule must be")),
            "{err}"
        );
    }

    /// FNV-1a over a rule list and every field of its evaluation, float
    /// bits included.
    fn evaluation_fingerprint(rules: &[Rule], eval: &RuleSetEvaluation) -> u64 {
        let mut h = Fnv64::new();
        for rule in rules {
            rule.values().iter().for_each(|&v| h.write_u32(v));
        }
        h.write_f64(eval.kl);
        h.write_f64(eval.baseline_kl);
        h.write_f64(eval.information_gain);
        match eval.binary_kl {
            Some(b) => {
                h.write_u64(1);
                h.write_f64(b);
            }
            None => h.write_u64(0),
        }
        h.write_u64(u64::from(eval.converged));
        h.finish()
    }

    #[test]
    fn evaluation_is_pinned_bit_for_bit() {
        // Each table's mined rule list, scored offline and fingerprinted
        // down to the float bits: how the coverage scan and the RCT build
        // are organised must leave every value here alone.
        let cases = [
            (
                "income_like",
                income_like(2_000, 2016),
                0x540a_6462_a08b_0d76,
            ),
            ("tlc_like", tlc_like(2_000, 2016), 0xc88a_6e4f_9e28_a262),
            (
                "gdelt_dirty",
                gdelt_dirty(2_000, 2016),
                0xa01b_348d_c64c_9458,
            ),
        ];
        for (name, table, pinned) in cases {
            let prepared = PreparedTable::try_new(&table).unwrap();
            let config = SirumConfig {
                k: 4,
                ..SirumConfig::default()
            };
            let mined = Miner::new(Engine::try_new(EngineConfig::in_memory()).unwrap(), config)
                .try_mine_prepared(&prepared, &[])
                .unwrap();
            let rules: Vec<Rule> = mined.rules.into_iter().map(|m| m.rule).collect();
            let eval =
                try_evaluate_rules_prepared(&prepared, &rules, &ScalingConfig::default()).unwrap();
            let got = evaluation_fingerprint(&rules, &eval);
            assert_eq!(got, pinned, "{name}: {got:#018x}");
        }
    }
}
