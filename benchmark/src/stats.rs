//! Order statistics for pooled samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method) for three samples or more, because that is what the
//! driver computes spreads with.

/// Median, quartiles, sample count and the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`, e.g. `(99.0, 4.2)`; `None` under 20 samples,
    /// where even the median has fewer than ten samples beyond it.
    pub high: Option<(f64, f64)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Python's exclusive quantile: position `p * (n + 1)` (1-based) with
/// linear interpolation, clamped to the sample range.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return v[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = (pos - j as f64).clamp(0.0, 1.0);
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The ladder percentiles are chosen from, in hundredths of a percent.
const LADDER: [u64; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Highest ladder percentile with at least ten samples beyond its rank.
fn high_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|bp| n as u64 * (10_000 - bp) / 10_000 >= 10)
        .map(|bp| bp as f64 / 100.0)
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        high: high_percentile(v.len()).map(|p| (p, quantile_sorted(&v, p / 100.0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(high_percentile(19), None);
        assert_eq!(high_percentile(20), Some(50.0));
        assert_eq!(high_percentile(40), Some(75.0));
        assert_eq!(high_percentile(100), Some(90.0));
        assert_eq!(high_percentile(1000), Some(99.0));
        assert_eq!(high_percentile(60_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, x) = summarize(&v).high.expect("1000 samples");
        assert_eq!(p, 99.0);
        assert!((990.0..=991.0).contains(&x), "{x}");
    }
}
