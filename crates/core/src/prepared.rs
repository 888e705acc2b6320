//! Pre-encoded mining input: the per-request table preparation — the
//! table's columnar [`Frame`] (shared, not copied), the fitted
//! [`MeasureTransform`] and the transformed measure column — built once and
//! scanned by every request.
//!
//! [`crate::Miner::try_mine_with_prior`] performs this preparation on every
//! call; an interactive workload that re-mines the same table with varied
//! `k`/variant/two-sided settings pays it repeatedly. The service layer's
//! catalog instead builds one [`PreparedTable`] per registered table and
//! feeds it to [`crate::Miner::try_mine_prepared`], so repeated requests
//! skip re-validation and transform fitting — and the catalog's table and
//! every concurrent job scan the *same* buffers (partitioning hands out
//! [`sirum_table::FrameView`] ranges, never copies).

use crate::error::SirumError;
use crate::transform::MeasureTransform;
use sirum_table::{ColSlice, Compression, Frame, Table};
use std::sync::Arc;

/// A table validated and encoded for mining: the columnar dimension
/// [`Frame`] plus the transformed measure column `m′` and the shift that
/// produced it.
///
/// Construction checks everything [`crate::Miner`] needs from the data —
/// non-emptiness and finite measures — so a `PreparedTable` can be mined
/// without re-validating per request. Cloning shares the columns (`Arc`
/// bumps).
#[derive(Debug, Clone)]
pub struct PreparedTable {
    frame: Frame,
    m_prime: Arc<[f64]>,
    /// `Σ_{m′>0} m′·ln m′`, compensated: the data's half of every KL.
    m_ln_m: f64,
    transform: MeasureTransform,
}

impl PreparedTable {
    /// Validate `table` for repeated mining and fit its measure transform.
    /// The frame is the table's own (its column buffers are shared): Raw
    /// segments for small tables, encoded ones for tables large enough that
    /// [`Compression::Auto`] compressed them at build.
    ///
    /// # Errors
    /// * [`SirumError::EmptyDataset`] — the table has no rows.
    /// * [`SirumError::InvalidMeasure`] — a measure value is not finite.
    pub fn try_new(table: &Table) -> Result<Self, SirumError> {
        Self::try_new_with(table, Compression::Auto)
    }

    /// [`Self::try_new`] under an explicit columnar [`Compression`] policy
    /// (benches and bit-identity tests force `Always`/`Never`): stores
    /// again only the segments not already in that form.
    ///
    /// # Errors
    /// Same as [`Self::try_new`].
    pub fn try_new_with(table: &Table, compression: Compression) -> Result<Self, SirumError> {
        Self::from_frame(table.frame().with_compression(compression))
    }

    /// Prepare `frame` as it is: fit the measure transform to the frame's
    /// own measure column. Tables come through here, and so does the
    /// streaming maintainer's history, which never was a [`Table`].
    ///
    /// # Errors
    /// Same as [`Self::try_new`].
    pub(crate) fn from_frame(frame: Frame) -> Result<Self, SirumError> {
        let (transform, m_prime) = MeasureTransform::try_fit(frame.measures())?;
        let positive = m_prime.iter().filter(|&&m| m > 0.0);
        let m_ln_m = neumaier_sum(positive.map(|&m| m * m.ln()));
        Ok(PreparedTable {
            frame,
            m_prime: Arc::from(m_prime),
            m_ln_m,
            transform,
        })
    }

    /// Number of rows `n`.
    pub(crate) fn num_rows(&self) -> usize {
        self.frame.num_rows()
    }

    /// Number of dimension attributes `d`.
    pub(crate) fn num_dims(&self) -> usize {
        self.frame.num_dims()
    }

    /// The shared columnar frame (dimension code columns + the raw measure
    /// column), the buffers every mining scan reads.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// The transformed measure column `m′` (row-aligned with the frame).
    pub(crate) fn m_prime(&self) -> &[f64] {
        &self.m_prime
    }

    /// The transformed measure column as a shared slice (an `Arc` bump),
    /// for building partition-aligned column windows.
    pub(crate) fn m_prime_slice(&self) -> ColSlice<f64> {
        ColSlice::full(Arc::clone(&self.m_prime))
    }

    /// `Σ_{m′>0} m′·ln m′` over the rows, Neumaier-compensated so its
    /// error does not grow with `n`: with a fitted model's RCT, its KL
    /// divergence (`crate::rct::Rct::kl`).
    pub(crate) fn m_ln_m(&self) -> f64 {
        self.m_ln_m
    }

    /// The fitted measure transform (shift applied to produce `m′`).
    pub(crate) fn transform(&self) -> MeasureTransform {
        self.transform
    }
}

/// A running `Σ` with Neumaier's compensation: the low-order bits each
/// addition drops are summed apart and added back once, so the error stays
/// within a few ulps of the result however many terms there are. Terms
/// arrive one at a time, so a stream keeps one open across batches.
#[derive(Default)]
pub(crate) struct CompensatedSum {
    sum: f64,
    lost: f64,
}

impl CompensatedSum {
    /// Add one term.
    pub(crate) fn add(&mut self, x: f64) {
        let t = self.sum + x;
        self.lost += if self.sum.abs() >= x.abs() {
            (self.sum - t) + x
        } else {
            (x - t) + self.sum
        };
        self.sum = t;
    }

    /// The sum of every term added so far.
    pub(crate) fn value(&self) -> f64 {
        self.sum + self.lost
    }
}

/// `Σ xs` through one [`CompensatedSum`].
fn neumaier_sum(xs: impl Iterator<Item = f64>) -> f64 {
    let mut acc = CompensatedSum::default();
    xs.for_each(|x| acc.add(x));
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirum_table::generators;

    #[test]
    fn preparation_matches_table_contents() {
        let t = generators::flights();
        let p = PreparedTable::try_new(&t).unwrap();
        assert_eq!(p.num_rows(), t.num_rows());
        assert_eq!(p.num_dims(), t.num_dims());
        let mut buf = Vec::new();
        for i in 0..t.num_rows() {
            p.frame().gather_row(i, &mut buf);
            assert_eq!(buf, t.row(i));
            assert_eq!(p.m_prime()[i], t.measure(i) + p.transform().shift());
        }
        assert_eq!(p.frame().fingerprint(), t.fingerprint());
    }

    #[test]
    fn clones_share_the_columns() {
        let t = generators::flights();
        let p = PreparedTable::try_new(&t).unwrap();
        let q = p.clone();
        for j in 0..p.num_dims() {
            let (a, b) = (p.frame().column(j), q.frame().column(j));
            assert!(std::ptr::eq(a.segments(), b.segments()));
        }
        assert!(std::ptr::eq(p.m_prime(), q.m_prime()));
    }

    #[test]
    fn compensated_sum_keeps_what_a_plain_sum_drops() {
        // 1 + 1e-16 rounds back to 1 in plain summation; compensated, the
        // small terms survive. Cancellation is exact.
        let terms = [1.0, 1e-16, 1e-16, 1e-16, 1e-16];
        assert_eq!(terms.iter().sum::<f64>(), 1.0);
        assert_eq!(neumaier_sum(terms.into_iter()), 1.0 + 4e-16);
        assert_eq!(neumaier_sum([1e100, 1.0, -1e100].into_iter()), 1.0);
        assert_eq!(neumaier_sum(std::iter::empty()), 0.0);
    }

    #[test]
    fn rejects_bad_data_up_front() {
        let t = generators::flights().select_rows(&[]);
        assert!(matches!(
            PreparedTable::try_new(&t),
            Err(SirumError::EmptyDataset)
        ));
        let t = generators::flights().with_measure(vec![f64::NAN; 14]);
        assert!(matches!(
            PreparedTable::try_new(&t),
            Err(SirumError::InvalidMeasure { .. })
        ));
    }
}
