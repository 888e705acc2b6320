//! Iterative scaling (Algorithm 1): fit the maximum-entropy multipliers
//! `λ(r)` so that `Σ_{t⊨r} t[mhat] = Σ_{t⊨r} t[m]` for every rule in `R`.
//!
//! [`iterative_scaling`] is the one copy of the loop. It reads and scales
//! the estimates through a [`ScalingBackend`], addressed by rule index:
//! the Rule Coverage Table ([`crate::rct::Rct`] — Algorithm 3 is this loop
//! over the RCT's groups instead of `D`), and the miner's distributed
//! dataset, where every λ update costs one sums pass and one update pass
//! over `D`.

use crate::cancel::CancellationToken;

/// Convergence parameters for iterative scaling.
#[derive(Debug, Clone, Copy)]
pub struct ScalingConfig {
    /// Relative tolerance ε on `|m(r) − mhat(r)| / |m(r)|` (paper default
    /// 0.01).
    pub epsilon: f64,
    /// Safety cap on scaling loop iterations.
    pub max_iterations: usize,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            epsilon: 0.01,
            max_iterations: 10_000,
        }
    }
}

/// Result of one scaling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingOutcome {
    /// Scaling-loop iterations executed (λ updates).
    pub iterations: usize,
    /// Whether all constraints converged within ε.
    pub converged: bool,
}

/// The tuples and their current estimates, with rule coverage addressed
/// by rule index (bit `i` of a tuple's bit array).
pub(crate) trait ScalingBackend {
    /// Write the current `Σ_{t⊨rᵢ} t[mhat]` into `out[i]` for every rule
    /// `i < out.len()`.
    fn mhat_sums(&self, out: &mut [f64]);

    /// Multiply `t[mhat]` by `factor` for every tuple rule `i` covers.
    fn scale(&mut self, i: usize, factor: f64);
}

/// Algorithm 1. `m_sums[i]` is the constraint target `Σ_{t⊨rᵢ} t[m]`;
/// `lambdas` are updated in place (λ accumulates across calls as rules are
/// added, per the carry-over strategy §5.6.2 credits for SIRUM's speed).
///
/// Each λ update first polls `cancel`; once it fires, the run stops
/// unconverged with the multipliers fitted so far.
///
/// Note the convergence test on averages `|m(r)−mhat(r)|/|m(r)|` equals the
/// same ratio on sums (the support counts cancel), so backends only report
/// sums.
pub(crate) fn iterative_scaling<B: ScalingBackend>(
    backend: &mut B,
    m_sums: &[f64],
    lambdas: &mut [f64],
    cfg: &ScalingConfig,
    cancel: Option<&CancellationToken>,
) -> ScalingOutcome {
    debug_assert_eq!(m_sums.len(), lambdas.len());
    let mut mhat_sums = vec![0.0; m_sums.len()];
    let mut iterations = 0;
    loop {
        backend.mhat_sums(&mut mhat_sums);
        let mut next = usize::MAX;
        let mut worst = 0.0f64;
        for (i, (&m_sum, &mhat_sum)) in m_sums.iter().zip(&mhat_sums).enumerate() {
            let diff = relative_diff(m_sum, mhat_sum);
            if diff > worst {
                worst = diff;
                next = i;
            }
        }
        if next == usize::MAX || worst <= cfg.epsilon {
            return ScalingOutcome {
                iterations,
                converged: true,
            };
        }
        if iterations >= cfg.max_iterations || cancel.is_some_and(CancellationToken::is_cancelled) {
            return ScalingOutcome {
                iterations,
                converged: false,
            };
        }
        iterations += 1;
        // A rule whose support has zero true mass (`m_sums[next] == 0`)
        // scales its estimates to exactly 0, the limit `relative_diff`'s
        // zero-target fallback measures.
        let factor = m_sums[next] / mhat_sums[next];
        debug_assert!(factor.is_finite() && factor >= 0.0, "factor {factor}");
        lambdas[next] *= factor;
        backend.scale(next, factor);
    }
}

/// `|m − mhat| / |m|`, with a zero-target falling back to the absolute error
/// (a rule whose support has zero true mass forces its estimates toward 0).
#[inline]
pub(crate) fn relative_diff(m_sum: f64, mhat_sum: f64) -> f64 {
    if m_sum == 0.0 {
        mhat_sum.abs()
    } else {
        (m_sum - mhat_sum).abs() / m_sum.abs()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gain::kl_divergence;
    use crate::rct::{mhat_for_mask, Rct};
    use crate::rule::{Rule, WILDCARD};
    use crate::testkit::{small_table, MAX_CARD};
    use crate::transform::MeasureTransform;
    use proptest::prelude::*;
    use sirum_table::generators::flights;
    use sirum_table::Table;

    /// Algorithm 1 as written, the per-row reference: a table plus a dense
    /// `mhat` column, re-testing `t ⊨ r` attribute by attribute on every
    /// pass — exactly the cost Algorithm 3 (RCT) removes.
    pub(crate) struct RowBackend<'a> {
        table: &'a Table,
        rules: Vec<Rule>,
        pub(crate) mhat: Vec<f64>,
    }

    impl<'a> RowBackend<'a> {
        /// All estimates at 1 (the state before any rule is fitted).
        pub(crate) fn new(table: &'a Table, rules: &[Rule]) -> Self {
            RowBackend {
                table,
                rules: rules.to_vec(),
                mhat: vec![1.0; table.num_rows()],
            }
        }
    }

    impl ScalingBackend for RowBackend<'_> {
        fn mhat_sums(&self, out: &mut [f64]) {
            out.fill(0.0);
            for (row, mh) in self.table.rows().zip(&self.mhat) {
                for (sum, rule) in out.iter_mut().zip(&self.rules) {
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

    /// `(Σ_{t⊨r} t[m], |S(r)|)` per rule, by one scan of the table.
    pub(crate) fn measure_sums(table: &Table, rules: &[Rule]) -> Vec<(f64, u64)> {
        let mut out = vec![(0.0, 0u64); rules.len()];
        for (row, &m) in table.rows().zip(table.measures()) {
            for (sums, rule) in out.iter_mut().zip(rules) {
                if rule.matches(&row) {
                    sums.0 += m;
                    sums.1 += 1;
                }
            }
        }
        out
    }

    fn rules_r1_r2(table: &Table) -> Vec<Rule> {
        let london = table.dict(2).code("London").unwrap();
        vec![
            Rule::all_wildcards(3),
            Rule::from_values(vec![WILDCARD, WILDCARD, london]),
        ]
    }

    fn targets(table: &Table, rules: &[Rule]) -> Vec<f64> {
        measure_sums(table, rules).iter().map(|s| s.0).collect()
    }

    #[test]
    fn single_rule_sets_global_average() {
        // §2.2 running example, step 1: after r1, every estimate is 10.4
        // (well, 145/14) and λ(r1) ≈ that value.
        let t = flights();
        let rules = vec![Rule::all_wildcards(3)];
        let m_sums = vec![t.sum_measure()];
        let mut lambdas = vec![1.0];
        let mut backend = RowBackend::new(&t, &rules);
        let cfg = ScalingConfig {
            epsilon: 1e-9,
            ..Default::default()
        };
        let out = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        let expect = 145.0 / 14.0;
        for &mh in &backend.mhat {
            assert!((mh - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn paper_running_example_two_rules() {
        // §2.2 step 2: after r2 = (*,*,London), estimates settle at ≈15.25
        // for London-bound flights and ≈8.4 for the rest (column mhat2 of
        // Table 1.1, which rounds to 15.3/8.4).
        let t = flights();
        let rules = rules_r1_r2(&t);
        let sums = measure_sums(&t, &rules);
        let m_sums = targets(&t, &rules);
        assert_eq!(sums[1].1, 4, "four London-bound flights");
        assert!((m_sums[1] - 61.0).abs() < 1e-9); // 20+15+19+7
        let mut lambdas = vec![1.0; 2];
        let mut backend = RowBackend::new(&t, &rules);
        let cfg = ScalingConfig {
            epsilon: 1e-10,
            max_iterations: 100_000,
        };
        let out = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None);
        assert!(out.converged);
        let london = t.dict(2).code("London").unwrap();
        for (i, row) in t.rows().enumerate() {
            let expect = if row[2] == london { 61.0 / 4.0 } else { 8.4 };
            assert!(
                (backend.mhat[i] - expect).abs() < 1e-3,
                "row {i}: {} vs {expect}",
                backend.mhat[i]
            );
        }
        // λ(r1) ≈ 8.4, λ(r2) ≈ 15.25/8.4 ≈ 1.815 (paper quotes 8.4, 1.8).
        assert!((lambdas[0] - 8.4).abs() < 1e-2, "λ1 = {}", lambdas[0]);
        assert!(
            (lambdas[1] - 61.0 / 4.0 / 8.4).abs() < 1e-2,
            "λ2 = {}",
            lambdas[1]
        );
    }

    #[test]
    fn estimates_are_products_of_lambdas() {
        let t = flights();
        let rules = rules_r1_r2(&t);
        let m_sums = targets(&t, &rules);
        let mut lambdas = vec![1.0; 2];
        let mut backend = RowBackend::new(&t, &rules);
        let cfg = ScalingConfig {
            epsilon: 1e-12,
            max_iterations: 100_000,
        };
        iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None);
        for (i, row) in t.rows().enumerate() {
            let product: f64 = rules
                .iter()
                .zip(&lambdas)
                .filter(|(r, _)| r.matches(&row))
                .map(|(_, &l)| l)
                .product();
            assert!((backend.mhat[i] - product).abs() < 1e-9);
        }
    }

    #[test]
    fn constraints_hold_at_convergence() {
        let t = flights();
        let fri = t.dict(0).code("Fri").unwrap();
        let rules = {
            let mut r = rules_r1_r2(&t);
            r.push(Rule::from_values(vec![fri, WILDCARD, WILDCARD]));
            r
        };
        let m_sums = targets(&t, &rules);
        let mut lambdas = vec![1.0; rules.len()];
        let mut backend = RowBackend::new(&t, &rules);
        let cfg = ScalingConfig {
            epsilon: 1e-8,
            max_iterations: 100_000,
        };
        let out = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None);
        assert!(out.converged);
        let mut mhat_sums = vec![0.0; rules.len()];
        backend.mhat_sums(&mut mhat_sums);
        for (i, (&ms, &mhs)) in m_sums.iter().zip(&mhat_sums).enumerate() {
            assert!(
                relative_diff(ms, mhs) <= 1e-8,
                "rule {i}: m={ms} mhat={mhs}"
            );
        }
    }

    #[test]
    fn carry_over_converges_faster_than_reset() {
        // §5.6.2: Sarawagi's reset strategy re-derives all multipliers after
        // every insertion; carrying λ forward needs fewer iterations.
        let t = flights();
        let rules = rules_r1_r2(&t);
        let m_sums = targets(&t, &rules);
        let cfg = ScalingConfig::default();

        // Carry-over: fit r1, then add r2 keeping λ.
        let mut lambdas = vec![1.0];
        let mut backend = RowBackend::new(&t, &rules);
        iterative_scaling(&mut backend, &m_sums[..1], &mut lambdas, &cfg, None);
        lambdas.push(1.0);
        let carry = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None).iterations;

        // Reset: start over from scratch on both rules.
        let mut lambdas2 = vec![1.0; 2];
        let mut backend2 = RowBackend::new(&t, &rules);
        let reset = iterative_scaling(&mut backend2, &m_sums, &mut lambdas2, &cfg, None).iterations;
        assert!(carry <= reset, "carry {carry} vs reset {reset}");
    }

    #[test]
    fn max_iterations_is_respected() {
        let t = flights();
        let rules = rules_r1_r2(&t);
        let m_sums = vec![145.0, 61.0];
        let mut lambdas = vec![1.0; 2];
        let mut backend = RowBackend::new(&t, &rules);
        let cfg = ScalingConfig {
            epsilon: 0.0, // unreachable tolerance
            max_iterations: 3,
        };
        let out = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, None);
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn cancellation_stops_the_loop_before_the_next_update() {
        // An unreachable tolerance and a cap no run reaches here: only the
        // token ends the loop, at its third poll — after two updates.
        let t = flights();
        let rules = rules_r1_r2(&t);
        let m_sums = targets(&t, &rules);
        let mut lambdas = vec![1.0; 2];
        let mut backend = RowBackend::new(&t, &rules);
        let cfg = ScalingConfig {
            epsilon: 0.0,
            max_iterations: 1_000_000,
        };
        let token = CancellationToken::new();
        token.cancel_after_polls(3);
        let out = iterative_scaling(&mut backend, &m_sums, &mut lambdas, &cfg, Some(&token));
        let stopped = ScalingOutcome {
            iterations: 2,
            converged: false,
        };
        assert_eq!(out, stopped);
    }

    #[test]
    fn relative_diff_handles_zero_target() {
        assert_eq!(relative_diff(0.0, 0.5), 0.5);
        assert_eq!(relative_diff(10.0, 9.0), 0.1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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
            let m_sums = targets(&table.with_measure(m_prime.clone()), &rules);
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
            let m_sums = targets(&table.with_measure(m_prime.clone()), &rules);
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
    }
}
