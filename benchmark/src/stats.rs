//! Order statistics for the report: median, quartiles, and the highest
//! percentile that still has at least ten samples beyond it.

/// Linear interpolation at 1-based position `pos` of a sorted slice.
fn at(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    let pos = pos.clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; panics on an empty slice (a metric with no
/// sample is a harness bug, not a measurement).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    at(&s, (s.len() as f64 + 1.0) / 2.0)
}

/// First and third quartile by the exclusive method — the same cut
/// points as Python's `statistics.quantiles(values, n=4)`, which is what
/// the acceptance driver computes spreads with. A single sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    let n = s.len() as f64;
    (at(&s, (n + 1.0) * 0.25), at(&s, (n + 1.0) * 0.75))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The highest of p50/p75/p90/p95/p99/p99.9 that has at least ten
/// samples beyond it, with its value; `None` below twenty samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    // Per-mille, so "samples beyond" is exact integer arithmetic.
    let beyond = |pm: usize| n * (1000 - pm) / 1000;
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| beyond(pm) >= 10)
        .map(|pm| (pm as f64 / 10.0, s[n - 1 - beyond(pm)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Two samples clamp to the extremes, one sample is its own.
        assert_eq!(quartiles(&[1.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        // 20 samples: ten lie beyond the 10th value.
        assert_eq!(tail(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&v(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&v(10_000)), Some((99.9, 9990.0)));
    }
}
