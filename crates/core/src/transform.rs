//! Measure transforms (§2.2): the maximum-entropy machinery requires
//! `t[m] ≥ 0` for all tuples and `Σ t[m] ≠ 0`; arbitrary numeric measures
//! are shifted to satisfy this, and reported averages are shifted back.

use crate::error::SirumError;

/// An affine shift applied to the measure column so the maximum-entropy
/// optimization problem (Formulation 2.1 with the relaxed sum constraint)
/// is well-posed. Since SIRUM always selects the all-wildcards rule first,
/// `Σ t[m'] = C ≠ 0` suffices — no normalization to 1 is needed (§2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MeasureTransform {
    shift: f64,
}

impl MeasureTransform {
    /// Fit a transform to the measure column and return the transformed
    /// values `m' = m + shift`:
    ///
    /// 1. If any value is negative, shift by `-min` so all values are ≥ 0.
    /// 2. If the shifted sum is zero (all-zero column), add `1/|D|` to every
    ///    value so the sum becomes 1.
    ///
    /// Rejects an empty column ([`SirumError::EmptyDataset`]) and
    /// non-finite values ([`SirumError::InvalidMeasure`], naming the
    /// offending row).
    pub(crate) fn try_fit(measures: &[f64]) -> Result<(MeasureTransform, Vec<f64>), SirumError> {
        if measures.is_empty() {
            return Err(SirumError::EmptyDataset);
        }
        if let Some(i) = measures.iter().position(|m| !m.is_finite()) {
            return Err(SirumError::InvalidMeasure {
                reason: format!("row {i}: value {} is not finite", measures[i]),
            });
        }
        let min = measures.iter().copied().fold(f64::INFINITY, f64::min);
        let mut shift = if min < 0.0 { -min } else { 0.0 };
        let sum: f64 = measures.iter().map(|m| m + shift).sum();
        if sum == 0.0 {
            shift += 1.0 / measures.len() as f64;
        }
        let transformed = measures.iter().map(|m| m + shift).collect();
        Ok((MeasureTransform { shift }, transformed))
    }

    /// The additive shift this transform applies.
    pub(crate) fn shift(&self) -> f64 {
        self.shift
    }

    /// Map an average of transformed values back to the original scale
    /// (averages commute with the shift).
    pub(crate) fn invert_avg(&self, avg_transformed: f64) -> f64 {
        avg_transformed - self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nonnegative_column_is_untouched() {
        let (t, m) = MeasureTransform::try_fit(&[1.0, 0.0, 2.5]).unwrap();
        assert_eq!(t.shift(), 0.0);
        assert_eq!(m, vec![1.0, 0.0, 2.5]);
        assert_eq!(t.invert_avg(1.0), 1.0);
    }

    #[test]
    fn negative_values_are_shifted() {
        let (t, m) = MeasureTransform::try_fit(&[-2.0, 1.0, 3.0]).unwrap();
        assert_eq!(t.shift(), 2.0);
        assert_eq!(m, vec![0.0, 3.0, 5.0]);
        assert!(m.iter().all(|&v| v >= 0.0));
        // avg' = 8/3 maps back to avg = 2/3.
        assert!((t.invert_avg(8.0 / 3.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_column_gets_uniform_mass() {
        let (t, m) = MeasureTransform::try_fit(&[0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(m, vec![0.25; 4]);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((t.invert_avg(0.25) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn zero_sum_mixed_column() {
        // min = -1 → shift 1 → values [0, 2, 0, ... wait: [-1, 1] → [0, 2],
        // sum 2 ≠ 0, no extra shift.
        let (t, m) = MeasureTransform::try_fit(&[-1.0, 1.0]).unwrap();
        assert_eq!(t.shift(), 1.0);
        assert_eq!(m, vec![0.0, 2.0]);
    }

    #[test]
    fn constant_negative_column() {
        // [-3,-3] → shift 3 → [0,0], sum 0 → add 1/2 each.
        let (t, m) = MeasureTransform::try_fit(&[-3.0, -3.0]).unwrap();
        assert_eq!(m, vec![0.5, 0.5]);
        assert!((t.invert_avg(0.5) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_nan() {
        let err = MeasureTransform::try_fit(&[1.0, f64::NAN]).unwrap_err();
        assert!(
            matches!(&err, SirumError::InvalidMeasure { reason } if reason.contains("not finite")),
            "{err}"
        );
    }

    #[test]
    fn try_fit_returns_typed_errors() {
        assert!(matches!(
            MeasureTransform::try_fit(&[]),
            Err(SirumError::EmptyDataset)
        ));
        assert!(matches!(
            MeasureTransform::try_fit(&[1.0, f64::INFINITY]),
            Err(SirumError::InvalidMeasure { reason }) if reason.contains("row 1")
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn measure_transform_is_sound(ms in prop::collection::vec(-100.0f64..100.0, 1..50)) {
            let (tr, out) = MeasureTransform::try_fit(&ms).unwrap();
            prop_assert!(out.iter().all(|&v| v >= 0.0));
            prop_assert!(out.iter().sum::<f64>() != 0.0);
            // Averages invert exactly.
            let avg_orig: f64 = ms.iter().sum::<f64>() / ms.len() as f64;
            let avg_new: f64 = out.iter().sum::<f64>() / out.len() as f64;
            prop_assert!((tr.invert_avg(avg_new) - avg_orig).abs() < 1e-9);
        }
    }
}
