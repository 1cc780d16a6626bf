//! Order statistics for latency samples and run-to-run spreads.
//!
//! Cut points follow Python's `statistics.quantiles(data, n=k)` with its
//! default `exclusive` method, so the quartiles `--repeat` prints are the
//! ones an outside check computes from the same values. Sorting uses
//! `f64::total_cmp` only: a NaN sample sorts last instead of panicking.

/// The values sorted ascending by `total_cmp`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 1-based row below the `i`-th of `k` cut points over `n >= 2`
/// samples, clamped to `1..n` exactly as Python clamps it.
fn cut_row(n: usize, i: usize, k: usize) -> usize {
    (i * (n + 1) / k).clamp(1, n - 1)
}

/// The `i`-th of `k` cut points (`i/k` quantile) of ascending `sorted`
/// data — `statistics.quantiles(sorted, n=k)[i - 1]`. A single sample is
/// its own quantile; an empty slice yields NaN.
fn cut(sorted: &[f64], i: usize, k: usize) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            // Python's integer weight goes negative (or past `k`) where the
            // row was clamped, extrapolating; the signed float keeps that.
            let j = cut_row(n, i, k);
            let delta = (i * (n + 1)) as f64 - (j * k) as f64;
            let k = k as f64;
            (sorted[j - 1] * (k - delta) + sorted[j] * delta) / k
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    cut(&sorted(values), 1, 2)
}

/// First quartile, median and third quartile of unsorted values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    [cut(&s, 1, 4), cut(&s, 2, 4), cut(&s, 3, 4)]
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Tail levels considered, as `(i, k)` cut points: p99, p95, p90, p75.
const TAIL_LEVELS: [(usize, usize); 4] = [(99, 100), (19, 20), (9, 10), (3, 4)];

/// Samples that must lie above a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// The highest tail percentile (in percent) that still has at least ten
/// of `n` samples above it — p75 at n = 40, p90 at n = 100, p95 at
/// n = 200 — or `None` when even p75 lacks that support.
fn tail_level(n: usize) -> Option<(usize, usize)> {
    TAIL_LEVELS
        .into_iter()
        .find(|&(i, k)| n >= 2 && n - cut_row(n, i, k) >= TAIL_SUPPORT)
}

/// Arithmetic mean (NaN for no values).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median and supported tail of a latency sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percent, value)` of the highest supported tail percentile.
    pub tail: Option<(usize, f64)>,
}

/// Summarizes unsorted samples.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let tail = tail_level(s.len()).map(|(i, k)| (i * 100 / k, cut(&s, i, k)));
    Summary {
        n: s.len(),
        p50: cut(&s, 1, 2),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // Python extrapolates below the minimum for tiny samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_above() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(40), Some((3, 4)));
        assert_eq!(tail_level(99), Some((3, 4)));
        assert_eq!(tail_level(100), Some((9, 10)));
        assert_eq!(tail_level(200), Some((19, 20)));
        assert_eq!(tail_level(1000), Some((99, 100)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.tail.map(|(p, _)| p), Some(95));
        let above = v
            .iter()
            .filter(|&&x| x > s.tail.map_or(0.0, |(_, t)| t))
            .count();
        assert_eq!(above, 10);
    }

    #[test]
    fn nan_samples_sort_last_without_panicking() {
        let s = sorted(&[2.0, f64::NAN, 1.0]);
        assert_eq!(&s[..2], &[1.0, 2.0]);
        assert!(s[2].is_nan());
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
