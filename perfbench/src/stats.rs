//! Small order statistics used by every metric the benchmark prints.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A percentile as reported: the value, the percentile it actually is, and
/// how many samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub p: f64,
    pub n: usize,
}

/// Samples that must lie strictly above a reported percentile, so a tail
/// figure never rests on a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples`, lowered to the highest
/// percentile that still leaves [`MIN_BEYOND`] samples above it. `None` when
/// even the minimum would not (fewer than `MIN_BEYOND + 1` samples).
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank (1-based) of p, then cap it so n - rank >= MIN_BEYOND.
    let want = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = want.min(n - MIN_BEYOND);
    Some(Percentile { value: v[rank - 1], p: 100.0 * rank as f64 / n as f64, n })
}

/// Linear-interpolation quantile over a small designed sample (the
/// `inclusive` method of Python's `statistics.quantiles`). Used only where
/// a workload's timed window cannot hold enough operations for
/// [`percentile`]; callers print the sample count beside it.
pub fn quantile_inclusive(samples: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = (p / 100.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&s, 90.0).unwrap();
        assert_eq!((p90.value, p90.p, p90.n), (90.0, 90.0, 100));
        // 50 samples: p90 would leave 5 beyond, so it drops to p80.
        let p = percentile(&s[..50], 90.0).unwrap();
        assert_eq!((p.value, p.p), (40.0, 80.0));
        assert!(percentile(&s[..10], 50.0).is_none());
        assert_eq!(percentile(&s[..11], 50.0).unwrap().value, 1.0);
    }

    #[test]
    fn inclusive_quantile_interpolates() {
        assert_eq!(quantile_inclusive(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(quantile_inclusive(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 4.6);
    }
}
