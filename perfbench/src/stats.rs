//! Exact order statistics of kept samples.
//!
//! Every percentile here is an observed sample (nearest rank), so it always lies within
//! the samples' [min, max]. A median of an even count is the mean of the two middle
//! samples, so it does not lean towards the lower one. The program's histograms
//! interpolate inside buckets and can report quantiles above the observed maximum, so
//! the benchmark never uses them.

/// Samples sorted ascending (NaNs are not expected; they sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples: the smallest
/// sample with at least `p`% of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    sorted[rank - 1]
}

/// Median of unsorted samples: the middle sample, or the mean of the two middle ones.
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile that leaves at least ten samples beyond it, as
/// `(value, percentile)`; `None` with fewer than eleven samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 11).then(|| {
        let rank = n - 10;
        (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
    })
}

/// How many samples lie beyond percentile `p` (by rank), printed beside it.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    n - rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_observed_samples() {
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 99.0), 5.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(beyond(5, 50.0), 2);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&sorted(&[1.0; 10])), None);
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s), Some((30.0, 75.0)));
    }
}
