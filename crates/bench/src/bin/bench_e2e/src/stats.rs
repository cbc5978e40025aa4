//! Order statistics of samples.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Linearly interpolated percentile (`pct` in 0..=100) between the closest
/// ranks; 0 for no values.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = pct.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method, which
/// extrapolates for very small samples), so the spread written here is the
/// one the runs are judged by. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len() as i64;
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: i64| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values are Python's statistics.quantiles(v, n=4)[0], [2].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 9.0, 4.0]), (1.5, 6.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }
}
