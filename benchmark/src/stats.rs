//! Order statistics over timing samples: the one place the harness turns
//! a sample set into median, quartiles, and a tail percentile.

/// A sample set reduced to the numbers the harness reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// The 50th percentile.
    pub median: f64,
    /// The 25th percentile.
    pub q1: f64,
    /// The 75th percentile.
    pub q3: f64,
    /// The highest of the standard tail percentiles (99.9, 99, 95, 90,
    /// 75, 50) with at least ten samples beyond it.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The percentiles [`Summary::tail_pct`] chooses from, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of ascending `sorted` samples,
/// interpolating linearly between closest ranks. `0.0` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `samples` in place and summarizes them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let count = samples.len();
    let tail_pct = TAIL_PERCENTILES
        .into_iter()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Summary {
        count,
        median: percentile(samples, 50.0),
        q1: percentile(samples, 25.0),
        q3: percentile(samples, 75.0),
        tail_pct,
        tail: percentile(samples, tail_pct),
    }
}

/// The median of `samples` (reordering them).
pub fn median(samples: &mut [f64]) -> f64 {
    summarize(samples).median
}

/// The geometric mean of the positive `values` (`0.0` if none).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .filter(|v| *v > 0.0)
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(summarize(&mut big).tail_pct, 99.0);
        let mut small: Vec<f64> = (0..120).map(f64::from).collect();
        let s = summarize(&mut small);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.count, 120);
        assert_eq!(s.median, 59.5);
    }
}
