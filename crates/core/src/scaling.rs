//! Iterative scaling (Algorithm 1): fit the maximum-entropy multipliers
//! `λ(r)` so that `Σ_{t⊨r} t[mhat] = Σ_{t⊨r} t[m]` for every rule in `R`.
//!
//! The algorithm is written against a [`ScalingBackend`] so the same control
//! loop drives the in-memory reference implementation (used for tests,
//! evaluation, and the centralized prior-work comparator) and the
//! dataset-based distributed implementation in the miner.

use crate::rule::Rule;
use sirum_table::Table;

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

/// Storage abstraction over "the tuples and their current estimates".
pub trait ScalingBackend {
    /// Current `Σ_{t⊨rᵢ} t[mhat]` for every rule (one full pass over `D` —
    /// the access the RCT optimization eliminates).
    fn mhat_sums(&self, rules: &[Rule]) -> Vec<f64>;

    /// Multiply `t[mhat]` by `factor` for every tuple matching `rule`
    /// (the second per-iteration access to `D` in Algorithm 1).
    fn scale_matching(&mut self, rule: &Rule, factor: f64);
}

/// Algorithm 1. `m_sums[i]` is the constraint target `Σ_{t⊨rᵢ} t[m]`;
/// `lambdas` are updated in place (λ accumulates across calls as rules are
/// added, per the carry-over strategy §5.6.2 credits for SIRUM's speed).
///
/// Note the convergence test on averages `|m(r)−mhat(r)|/|m(r)|` equals the
/// same ratio on sums (the support counts cancel), so backends only report
/// sums.
pub fn iterative_scaling<B: ScalingBackend>(
    backend: &mut B,
    rules: &[Rule],
    m_sums: &[f64],
    lambdas: &mut [f64],
    cfg: &ScalingConfig,
) -> ScalingOutcome {
    // lint:allow(SL001) — driver-built parallel arrays
    assert_eq!(rules.len(), m_sums.len());
    // lint:allow(SL001) — driver-built parallel arrays
    assert_eq!(rules.len(), lambdas.len());
    let mut iterations = 0;
    loop {
        let mhat_sums = backend.mhat_sums(rules);
        let mut next = usize::MAX;
        let mut worst = 0.0f64;
        for i in 0..rules.len() {
            let diff = relative_diff(m_sums[i], mhat_sums[i]);
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
        if iterations >= cfg.max_iterations {
            return ScalingOutcome {
                iterations,
                converged: false,
            };
        }
        iterations += 1;
        let factor = m_sums[next] / mhat_sums[next];
        debug_assert!(factor.is_finite() && factor > 0.0, "factor {factor}");
        lambdas[next] *= factor;
        backend.scale_matching(&rules[next], factor);
    }
}

/// `|m − mhat| / |m|`, with a zero-target falling back to the absolute error
/// (a rule whose support has zero true mass forces its estimates toward 0).
#[inline]
pub fn relative_diff(m_sum: f64, mhat_sum: f64) -> f64 {
    if m_sum == 0.0 {
        mhat_sum.abs()
    } else {
        (m_sum - mhat_sum).abs() / m_sum.abs()
    }
}

/// In-memory reference backend: a table plus a dense `mhat` column. This is
/// the centralized implementation the paper's prior work [16, 29] runs; it
/// re-tests `t ⊨ r` attribute-by-attribute on every pass, exactly the cost
/// Algorithm 3 (RCT) removes.
pub struct TableBackend<'a> {
    table: &'a Table,
    mhat: Vec<f64>,
}

impl<'a> TableBackend<'a> {
    /// Start with all estimates at 1 (the state before any rule is added).
    pub fn new(table: &'a Table) -> Self {
        TableBackend {
            table,
            mhat: vec![1.0; table.num_rows()],
        }
    }

    /// Resume from existing estimates.
    pub fn with_mhat(table: &'a Table, mhat: Vec<f64>) -> Self {
        // lint:allow(SL001) — driver-built parallel arrays
        assert_eq!(mhat.len(), table.num_rows());
        TableBackend { table, mhat }
    }

    /// Current estimates.
    pub fn mhat(&self) -> &[f64] {
        &self.mhat
    }

    /// Reset all estimates to 1 and all multipliers to 1 (the Sarawagi \[29\]
    /// strategy that re-fits from scratch whenever a rule is added).
    pub fn reset(&mut self, lambdas: &mut [f64]) {
        self.mhat.iter_mut().for_each(|v| *v = 1.0);
        lambdas.iter_mut().for_each(|v| *v = 1.0);
    }
}

impl ScalingBackend for TableBackend<'_> {
    fn mhat_sums(&self, rules: &[Rule]) -> Vec<f64> {
        let mut sums = vec![0.0; rules.len()];
        // lint:allow(SL002) — reference backend for tests/baselines; production scaling runs on ScalingVectors, which polls
        for (i, row) in self.table.rows().enumerate() {
            let mh = self.mhat[i];
            for (j, rule) in rules.iter().enumerate() {
                if rule.matches(row) {
                    sums[j] += mh;
                }
            }
        }
        sums
    }

    fn scale_matching(&mut self, rule: &Rule, factor: f64) {
        // lint:allow(SL002) — reference backend for tests/baselines; production scaling runs on ScalingVectors, which polls
        for (i, row) in self.table.rows().enumerate() {
            if rule.matches(row) {
                self.mhat[i] *= factor;
            }
        }
    }
}

/// Compute the constraint targets `Σ_{t⊨r} t[m]` and support counts for a
/// rule list by one scan of the table (with an already-transformed measure
/// column `m_prime`).
pub fn rule_measure_sums(table: &Table, m_prime: &[f64], rules: &[Rule]) -> Vec<(f64, u64)> {
    let mut out = vec![(0.0, 0u64); rules.len()];
    // lint:allow(SL002) — one bounded scan per mined rule (k ≤ rule budget), used by the centralized baseline only
    for (i, row) in table.rows().enumerate() {
        for (j, rule) in rules.iter().enumerate() {
            if rule.matches(row) {
                out[j].0 += m_prime[i];
                out[j].1 += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::WILDCARD;
    use sirum_table::generators::flights;

    fn rules_r1_r2(table: &Table) -> Vec<Rule> {
        let london = table.dict(2).code("London").unwrap();
        vec![
            Rule::all_wildcards(3),
            Rule::from_values(vec![WILDCARD, WILDCARD, london]),
        ]
    }

    #[test]
    fn single_rule_sets_global_average() {
        // §2.2 running example, step 1: after r1, every estimate is 10.4
        // (well, 145/14) and λ(r1) ≈ that value.
        let t = flights();
        let rules = vec![Rule::all_wildcards(3)];
        let m_sums = vec![t.sum_measure()];
        let mut lambdas = vec![1.0];
        let mut backend = TableBackend::new(&t);
        let cfg = ScalingConfig {
            epsilon: 1e-9,
            ..Default::default()
        };
        let out = iterative_scaling(&mut backend, &rules, &m_sums, &mut lambdas, &cfg);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        let expect = 145.0 / 14.0;
        for &mh in backend.mhat() {
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
        let sums = rule_measure_sums(&t, t.measures(), &rules);
        let m_sums: Vec<f64> = sums.iter().map(|s| s.0).collect();
        assert_eq!(sums[1].1, 4, "four London-bound flights");
        assert!((m_sums[1] - 61.0).abs() < 1e-9); // 20+15+19+7
        let mut lambdas = vec![1.0; 2];
        let mut backend = TableBackend::new(&t);
        let cfg = ScalingConfig {
            epsilon: 1e-10,
            max_iterations: 100_000,
        };
        let out = iterative_scaling(&mut backend, &rules, &m_sums, &mut lambdas, &cfg);
        assert!(out.converged);
        let london = t.dict(2).code("London").unwrap();
        for (i, row) in t.rows().enumerate() {
            let expect = if row[2] == london { 61.0 / 4.0 } else { 8.4 };
            assert!(
                (backend.mhat()[i] - expect).abs() < 1e-3,
                "row {i}: {} vs {expect}",
                backend.mhat()[i]
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
        let sums = rule_measure_sums(&t, t.measures(), &rules);
        let m_sums: Vec<f64> = sums.iter().map(|s| s.0).collect();
        let mut lambdas = vec![1.0; 2];
        let mut backend = TableBackend::new(&t);
        let cfg = ScalingConfig {
            epsilon: 1e-12,
            max_iterations: 100_000,
        };
        iterative_scaling(&mut backend, &rules, &m_sums, &mut lambdas, &cfg);
        for (i, row) in t.rows().enumerate() {
            let product: f64 = rules
                .iter()
                .zip(&lambdas)
                .filter(|(r, _)| r.matches(row))
                .map(|(_, &l)| l)
                .product();
            assert!((backend.mhat()[i] - product).abs() < 1e-9);
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
        let sums = rule_measure_sums(&t, t.measures(), &rules);
        let m_sums: Vec<f64> = sums.iter().map(|s| s.0).collect();
        let mut lambdas = vec![1.0; rules.len()];
        let mut backend = TableBackend::new(&t);
        let cfg = ScalingConfig {
            epsilon: 1e-8,
            max_iterations: 100_000,
        };
        let out = iterative_scaling(&mut backend, &rules, &m_sums, &mut lambdas, &cfg);
        assert!(out.converged);
        let mhat_sums = backend.mhat_sums(&rules);
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
        let sums = rule_measure_sums(&t, t.measures(), &rules);
        let m_sums: Vec<f64> = sums.iter().map(|s| s.0).collect();
        let cfg = ScalingConfig::default();

        // Carry-over: fit r1, then add r2 keeping λ.
        let mut lambdas = vec![1.0];
        let mut backend = TableBackend::new(&t);
        iterative_scaling(&mut backend, &rules[..1], &m_sums[..1], &mut lambdas, &cfg);
        lambdas.push(1.0);
        let carry = iterative_scaling(&mut backend, &rules, &m_sums, &mut lambdas, &cfg).iterations;

        // Reset: start over from scratch on both rules.
        let mut lambdas2 = vec![1.0; 2];
        let mut backend2 = TableBackend::new(&t);
        let reset =
            iterative_scaling(&mut backend2, &rules, &m_sums, &mut lambdas2, &cfg).iterations;
        assert!(carry <= reset, "carry {carry} vs reset {reset}");
    }

    #[test]
    fn max_iterations_is_respected() {
        let t = flights();
        let rules = rules_r1_r2(&t);
        let m_sums = vec![145.0, 61.0];
        let mut lambdas = vec![1.0; 2];
        let mut backend = TableBackend::new(&t);
        let cfg = ScalingConfig {
            epsilon: 0.0, // unreachable tolerance
            max_iterations: 3,
        };
        let out = iterative_scaling(&mut backend, &rules, &m_sums, &mut lambdas, &cfg);
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn relative_diff_handles_zero_target() {
        assert_eq!(relative_diff(0.0, 0.5), 0.5);
        assert_eq!(relative_diff(10.0, 9.0), 0.1);
    }
}
