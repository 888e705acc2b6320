//! Information gain (Eq 2.2) and Kullback–Leibler divergence (§2.3):
//! the scoring functions of informative rule mining.

/// A candidate score: `(Σm, Σm̂) → gain`.
pub(crate) type GainFn = fn(f64, f64) -> f64;

/// A score's logarithm-free test, `(Σm, Σm̂, t) →` whether the score is
/// certainly below `t > 0`.
pub(crate) type BelowFn = fn(f64, f64, f64) -> bool;

/// Information gain of a candidate rule (Eq 2.2):
/// `gain(r) = Σ_{t⊨r} t[m] · log(Σ_{t⊨r} t[m] / Σ_{t⊨r} t[mhat])`.
///
/// Rules whose support-set measure is underestimated get positive gain;
/// rules already in `R` get (numerically) zero gain because their sums are
/// constrained equal. Empty or zero-mass supports score zero.
#[inline]
pub(crate) fn rule_gain(sum_m: f64, sum_mhat: f64) -> f64 {
    if sum_m <= 0.0 || sum_mhat <= 0.0 {
        return 0.0;
    }
    sum_m * (sum_m / sum_mhat).ln()
}

/// Two-sided gain variant (extension; see DESIGN.md): also rewards rules
/// whose support is *over*estimated, symmetrizing Eq 2.2 the way the
/// binary-measure formulation of El Gebaly et al. does. Not used by the
/// paper's selection loop, but useful for data-cleansing style queries that
/// look for unusually *low* measure regions.
///
/// Semantics at the boundary match [`rule_gain`]: a support with no true
/// mass (`Σm ≤ 0`) carries no information in either direction, and a
/// zero/negative estimate sum (`Σm̂ ≤ 0`) cannot be scored against — both
/// score exactly `0.0`, never a sign-flipped or absolute variant of some
/// other formula. Otherwise the score is `|Eq 2.2|`.
#[inline]
pub(crate) fn rule_gain_two_sided(sum_m: f64, sum_mhat: f64) -> f64 {
    if sum_m <= 0.0 || sum_mhat <= 0.0 {
        return 0.0;
    }
    (sum_m * (sum_m / sum_mhat).ln()).abs()
}

/// The rounding slack of the `…_below` tests: relative on the bound, and
/// absolute in units of `Σm`, where the computed gain's error lives when
/// `Σm/Σm̂` is near 1 (a rounded quotient moves `ln` by up to one ulp of 1).
/// A few hundred ulps would do; this leaves room for any `ln` within
/// thousands of ulps.
const BOUND_SLACK: f64 = 1e-12;

/// Whether [`rule_gain`]`(sum_m, sum_mhat)`, as computed, is below `t > 0`,
/// decided without a logarithm. A sum `≤ 0` scores 0. Otherwise
/// `ln x ≤ x − 1` bounds the gain by `Σm·(Σm − Σm̂)/Σm̂`, tested
/// division-free with slack: `Σm·(Σm−Σm̂)·(1+ε) + ε·Σm·Σm̂ < t·Σm̂`, and
/// `false` — score it — when a product is non-finite or subnormal.
/// `Σm < Σm̂` gives a negative bound, and the computed gain is then `≤ 0`
/// too, since the rounded quotient stays `≤ 1`.
#[inline]
pub(crate) fn rule_gain_below(sum_m: f64, sum_mhat: f64, t: f64) -> bool {
    if sum_m <= 0.0 || sum_mhat <= 0.0 {
        return true;
    }
    let excess = sum_m * (sum_m - sum_mhat);
    let slack = BOUND_SLACK * (sum_m * sum_mhat);
    let cut = t * sum_mhat;
    excess.is_finite()
        && !excess.is_subnormal()
        && slack.is_normal()
        && cut.is_normal()
        && excess * (1.0 + BOUND_SLACK) + slack < cut
}

/// Whether [`rule_gain_two_sided`]`(sum_m, sum_mhat)`, as computed, is
/// below `t > 0`, decided without a logarithm. For `Σm ≥ Σm̂` the gain is
/// Eq 2.2's, and so is the test ([`rule_gain_below`]). Below, `|ln x| ≤
/// 1/x − 1` for `x < 1` bounds it by `Σm̂ − Σm` where `Σm > 0` (a sum
/// `≤ 0` scores 0), tested with slack as `(Σm̂−Σm)·(1+ε) + ε·Σm < t`, and
/// `false` — score it — when a product is not normal or `Σm < ε·Σm̂`: so
/// small a quotient may round to 0, and `ln 0` scores `+∞`.
#[inline]
pub(crate) fn rule_gain_two_sided_below(sum_m: f64, sum_mhat: f64, t: f64) -> bool {
    if sum_m >= sum_mhat {
        return rule_gain_below(sum_m, sum_mhat, t);
    }
    if sum_m <= 0.0 {
        return true;
    }
    let slack = BOUND_SLACK * sum_m;
    let floor = BOUND_SLACK * sum_mhat;
    slack.is_normal()
        && floor.is_normal()
        && floor <= sum_m
        && (sum_mhat - sum_m) * (1.0 + BOUND_SLACK) + slack < t
}

/// Assemble KL divergence from one-pass aggregates:
/// `s1 = Σ_{m>0} m·ln(m/mhat)`, `sum_m = Σ m`, `sum_mhat = Σ mhat`.
///
/// Derivation: with `p = m/M`, `q = mhat/Q`,
/// `Σ p·ln(p/q) = s1/M + ln(Q/M)`.
#[inline]
pub(crate) fn kl_from_parts(s1: f64, sum_m: f64, sum_mhat: f64) -> f64 {
    let kl = s1 / sum_m + (sum_mhat / sum_m).ln();
    // Numerical noise can push a converged KL slightly negative.
    kl.max(0.0)
}

/// One tuple's term of the binary-measure KL divergence in the style of El
/// Gebaly et al. \[16\] (§2.4, §5.6.1): the tuple's measure is a Bernoulli
/// outcome with estimated success probability `mhat` (clamped to
/// `(ε, 1-ε)`); a rule set's divergence sums the terms over the tuples.
pub(crate) fn bernoulli_kl(m: f64, mhat: f64) -> f64 {
    const EPS: f64 = 1e-9;
    debug_assert!(m == 0.0 || m == 1.0, "binary measure expected");
    let q = mhat.clamp(EPS, 1.0 - EPS);
    if m >= 0.5 {
        (1.0 / q).ln()
    } else {
        (1.0 / (1.0 - q)).ln()
    }
}

/// KL divergence between the (normalized) true measure distribution and the
/// (normalized) estimated distribution: `Σ p log(p/q)` with
/// `p = m/Σm`, `q = mhat/Σmhat`. Tuples with `m = 0` contribute zero.
///
/// The per-row definition. The crate scores its fitted models from their
/// Rule Coverage Table instead, one `ln` per group (see [`crate::rct`]);
/// tests hold that to this function.
///
/// Total over all float *values*, with saturating semantics at the edges
/// (the group form saturates the same way; a zero-mass rule or an
/// all-zero measure column reaches them from user data):
///
/// * `Σm ≤ 0` — the true distribution has no mass, so there is nothing to
///   diverge from: returns `0.0`;
/// * some tuple has `m > 0` but `mhat ≤ 0` (or `Σm̂ ≤ 0`) — the model
///   assigns zero/negative density where the data has mass, the supremum
///   of divergence: returns `f64::INFINITY`.
///
/// # Panics
/// Panics when the slices differ in length: every caller builds `mhat` as
/// a parallel array over the same tuples as `m`, so a mismatch is driver
/// corruption that must fail loudly, not score quietly.
#[cfg(test)]
pub(crate) fn kl_divergence(m: &[f64], mhat: &[f64]) -> f64 {
    assert_eq!(m.len(), mhat.len());
    let sum_m: f64 = m.iter().sum();
    let sum_mhat: f64 = mhat.iter().sum();
    if sum_m <= 0.0 {
        return 0.0;
    }
    if sum_mhat <= 0.0 {
        return f64::INFINITY;
    }
    let mut s1 = 0.0;
    for (&mi, &qi) in m.iter().zip(mhat) {
        if mi > 0.0 {
            if qi <= 0.0 {
                return f64::INFINITY;
            }
            s1 += mi * (mi / qi).ln();
        }
    }
    kl_from_parts(s1, sum_m, sum_mhat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_positive_iff_underestimated() {
        assert!(rule_gain(10.0, 5.0) > 0.0);
        assert!(rule_gain(5.0, 10.0) < 0.0);
        assert_eq!(rule_gain(5.0, 5.0), 0.0);
        assert_eq!(rule_gain(0.0, 5.0), 0.0);
        assert_eq!(rule_gain(5.0, 0.0), 0.0);
    }

    #[test]
    fn gain_grows_with_support_mass() {
        // Same ratio, more mass → more gain (big supports matter more).
        assert!(rule_gain(20.0, 10.0) > rule_gain(10.0, 5.0));
    }

    #[test]
    fn two_sided_gain_rewards_both_directions() {
        assert!(rule_gain_two_sided(5.0, 10.0) > 0.0);
        assert!(rule_gain_two_sided(10.0, 5.0) > 0.0);
        assert_eq!(
            rule_gain_two_sided(10.0, 5.0),
            rule_gain(10.0, 5.0),
            "underestimated case equals the one-sided gain"
        );
        assert_eq!(rule_gain_two_sided(5.0, 5.0), 0.0);
        assert_eq!(
            rule_gain_two_sided(5.0, 10.0),
            -rule_gain(5.0, 10.0),
            "overestimated case is the mirrored one-sided gain"
        );
    }

    #[test]
    fn two_sided_gain_boundary_matches_one_sided() {
        // Zero-mass or unscoreable supports are worth exactly zero in both
        // scoring modes — never an |NaN| or a sign flip of something else.
        for (sm, smh) in [(0.0, 5.0), (5.0, 0.0), (0.0, 0.0), (-3.0, 5.0), (5.0, -3.0)] {
            assert_eq!(rule_gain_two_sided(sm, smh), 0.0, "({sm}, {smh})");
            assert_eq!(rule_gain(sm, smh), 0.0, "({sm}, {smh})");
        }
    }

    #[test]
    fn below_tests_rule_out_only_gains_below_t() {
        // Well below `t`: ruled out without an `ln`.
        assert!(rule_gain(10.0, 9.0) < 5.0 && rule_gain_below(10.0, 9.0, 5.0));
        assert!(rule_gain_two_sided(9.0, 10.0) < 5.0 && rule_gain_two_sided_below(9.0, 10.0, 5.0));
        // Within the bound's slack of `t`: scored.
        assert!(rule_gain(10.0, 5.0) < 7.0 && !rule_gain_below(10.0, 5.0, 7.0));
        // A quotient that rounds to 0 scores +∞ two-sided: never ruled out.
        assert_eq!(rule_gain_two_sided(1e-290, 1e50), f64::INFINITY);
        assert!(!rule_gain_two_sided_below(1e-290, 1e50, 1e200));
        // Subnormal or non-finite products and NaN sums: scored.
        assert_eq!(rule_gain(1.0, 1e-310), f64::INFINITY);
        assert!(!rule_gain_below(1.0, 1e-310, 1.0));
        assert!(!rule_gain_below(f64::INFINITY, 1.0, 1.0));
        assert!(!rule_gain_below(f64::NAN, 1.0, 1.0));
        assert!(!rule_gain_two_sided_below(1.0, f64::NAN, 1.0));
        // A sum `≤ 0` scores 0, below any `t > 0`.
        assert!(rule_gain_below(0.0, 1.0, 1e-300) && rule_gain_two_sided_below(1.0, -2.0, 1e-300));
    }

    #[test]
    fn kl_zero_iff_equal() {
        let m = [1.0, 2.0, 3.0];
        assert_eq!(kl_divergence(&m, &m), 0.0);
        // Scaled estimates normalize away.
        let scaled = [2.0, 4.0, 6.0];
        assert!(kl_divergence(&m, &scaled) < 1e-12);
    }

    #[test]
    fn kl_positive_when_different() {
        let m = [1.0, 2.0, 3.0];
        let q = [2.0, 2.0, 2.0];
        let kl = kl_divergence(&m, &q);
        assert!(kl > 0.0);
    }

    #[test]
    fn kl_matches_textbook_formula() {
        // p = (0.5, 0.5), q = (0.9, 0.1): KL = .5 ln(.5/.9) + .5 ln(.5/.1)
        let m = [0.5, 0.5];
        let q = [0.9, 0.1];
        let expected = 0.5 * (0.5f64 / 0.9).ln() + 0.5 * (0.5f64 / 0.1).ln();
        assert!((kl_divergence(&m, &q) - expected).abs() < 1e-12);
    }

    #[test]
    fn kl_from_parts_matches_slice_version() {
        let m = [1.0f64, 0.0, 3.0, 2.0];
        let q = [0.5f64, 1.0, 2.0, 2.5];
        let s1: f64 = m
            .iter()
            .zip(&q)
            .filter(|(&mi, _)| mi > 0.0)
            .map(|(&mi, &qi)| mi * (mi / qi).ln())
            .sum();
        let a = kl_divergence(&m, &q);
        let b = kl_from_parts(s1, m.iter().sum(), q.iter().sum());
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn kl_ignores_zero_mass_tuples() {
        let m = [0.0, 1.0];
        let q = [5.0, 1.0];
        // Only the second tuple carries p-mass; p=(0,1), q=(5/6,1/6).
        let expected = (1.0f64 / (1.0 / 6.0)).ln();
        assert!((kl_divergence(&m, &q) - expected).abs() < 1e-12);
    }

    /// The binary-measure divergence of a whole column, one
    /// [`bernoulli_kl`] term per tuple.
    fn binary_kl(m: &[f64], mhat: &[f64]) -> f64 {
        m.iter()
            .zip(mhat)
            .map(|(&mi, &qi)| bernoulli_kl(mi, qi))
            .sum()
    }

    #[test]
    fn binary_kl_zero_for_perfect_estimates() {
        let m = [1.0, 0.0, 1.0];
        let close = [1.0 - 1e-9, 1e-9, 1.0 - 1e-9];
        assert!(binary_kl(&m, &close) < 1e-6);
        let uniform = [0.5, 0.5, 0.5];
        assert!(binary_kl(&m, &uniform) > 1.0);
    }

    #[test]
    fn binary_kl_clamps_out_of_range_estimates() {
        // Maximum-entropy products can exceed 1; must not produce NaN/inf.
        let m = [1.0, 0.0];
        let q = [1.7, -0.2];
        let kl = binary_kl(&m, &q);
        assert!(kl.is_finite());
    }

    #[test]
    fn kl_is_total_and_saturates_on_degenerate_inputs() {
        // m-mass where the model has none: the divergence supremum.
        assert_eq!(kl_divergence(&[1.0, 1.0], &[0.0, 1.0]), f64::INFINITY);
        assert_eq!(kl_divergence(&[1.0], &[-2.0]), f64::INFINITY);
        assert_eq!(kl_divergence(&[1.0, 1.0], &[0.0, 0.0]), f64::INFINITY);
        // No true mass at all (reachable from an all-zero measure column
        // via evaluate): nothing to diverge from.
        assert_eq!(kl_divergence(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
        assert_eq!(kl_divergence(&[], &[]), 0.0);
    }
}
