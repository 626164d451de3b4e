//! Exact-sample statistics: every timing the benchmark reports is
//! computed from the full list of samples, never from histogram buckets.

/// Percentiles the tail rule may pick, lowest first.
const LADDER: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
    ("p9999", 0.9999),
];

/// Samples that must lie beyond a percentile for the tail rule to report it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
///
/// # Panics
/// On an empty slice: a workload that produced no samples is a bug in
/// the benchmark, not a measurement.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The reporting rule for a timing: the highest ladder percentile that
/// still has [`MIN_BEYOND`] samples beyond it, as `(label, value, beyond)`.
/// `None` when even p90 has too few.
pub fn tail(sorted: &[u64]) -> Option<(&'static str, u64, usize)> {
    LADDER
        .iter()
        .rev()
        .find(|(_, q)| !sorted.is_empty() && beyond(sorted.len(), *q) >= MIN_BEYOND)
        .map(|&(label, q)| (label, quantile(sorted, q), beyond(sorted.len(), q)))
}

/// Median of a list of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread `compare` prints is the spread the driver computes. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks; like Python, a position outside
        // the data extrapolates from the nearest pair.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(100, 0.90), 10);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only one.
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&s), Some(("p90", 90, 10)));
        // 99 samples: p90 sits at rank 90, nine beyond — nothing qualifies.
        assert_eq!(tail(&s[..99]), None);
        // 1000 samples reach p99, 10 000 reach p999, 100 000 reach p9999.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&s), Some(("p99", 990, 10)));
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&s), Some(("p999", 9990, 10)));
        let s: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&s), Some(("p9999", 99_990, 10)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
