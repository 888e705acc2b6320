//! Exact-sample statistics: every latency the benchmark reports is read
//! off a sorted `Vec<u64>` of nanosecond samples (no bucketing), and every
//! run-to-run comparison uses the quartile rule the acceptance driver uses.

/// Latency samples of one operation class, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, nanos: u64) {
        self.0.push(nanos);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sort once; every percentile is then an index.
    pub fn sorted(mut self) -> Sorted {
        self.0.sort_unstable();
        Sorted(self.0)
    }
}

/// Sorted samples, the only form percentiles are taken from.
#[derive(Debug, Clone)]
pub struct Sorted(Vec<u64>);

/// Percentiles a tail report may name, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

impl Sorted {
    /// 1-based nearest rank of percentile `p` among `n` samples.
    fn rank(n: usize, p: f64) -> usize {
        // The epsilon keeps 99.9 % of 10 000 at rank 9 990, not 9 991.
        ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
    }

    /// Nearest-rank percentile in nanoseconds; 0 when there are no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        match self.0.len() {
            0 => 0,
            n => self.0[Self::rank(n, p) - 1],
        }
    }

    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn max(&self) -> u64 {
        self.0.last().copied().unwrap_or(0)
    }

    /// The highest percentile of the ladder that still has at least ten
    /// samples beyond it — a tail read from fewer is one slow request, not
    /// a distribution. Falls back to the median.
    pub fn supported_tail(&self) -> f64 {
        let n = self.0.len();
        TAIL_LADDER
            .iter()
            .copied()
            .filter(|&p| n > 0 && n - Self::rank(n, p) >= 10)
            .fold(50.0, f64::max)
    }

    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e3
    }

    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile(p) as f64 / 1e6
    }
}

/// Median of unsorted floats (mean of the middle pair for even counts);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so a
/// spread computed here is the spread the acceptance driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(values: &[u64]) -> Sorted {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s.sorted()
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let s = sorted(&[50, 10, 40, 20, 30]);
        assert_eq!(s.percentile(50.0), 30);
        assert_eq!(s.percentile(0.0), 10);
        assert_eq!(s.percentile(20.0), 10);
        assert_eq!(s.percentile(21.0), 20);
        assert_eq!(s.percentile(100.0), 50);
        assert_eq!(s.max(), 50);
        assert_eq!(sorted(&[]).percentile(50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: u64| sorted(&(0..n).collect::<Vec<_>>()).supported_tail();
        assert_eq!(of(5), 50.0);
        assert_eq!(of(20), 50.0); // rank 10, ten beyond
        assert_eq!(of(39), 50.0); // p75 is rank 30, nine beyond
        assert_eq!(of(40), 75.0);
        assert_eq!(of(100), 90.0);
        assert_eq!(of(1_000), 99.0);
        assert_eq!(of(10_000), 99.9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
