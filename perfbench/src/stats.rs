//! The benchmark's own arithmetic: quartiles, medians and the failed share.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so a spread computed here matches
//! the one an outside reader computes from the same samples.

/// Median and quartiles of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`. A single sample is its own median and
    /// quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let [q1, median, q3] = quartiles(samples);
        Summary {
            n: samples.len(),
            q1,
            median,
            q3,
        }
    }

    /// Quartile spread as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    // Python's integer arithmetic; `delta` goes negative when `j` is
    // clamped up, which extrapolates below the first point as Python does.
    let n: i64 = 4;
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Median of `values` (the middle cut of [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// `part / whole`, 0 for an empty whole: the failed share is
/// `share(failed, attempted)`.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Rounds that did not count: never completed, or completed degraded.
pub fn failed_rounds(requested: u64, completed: u64, degraded: u64) -> u64 {
    requested.saturating_sub(completed) + degraded.min(completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected values printed by Python 3's `statistics.quantiles(.., n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.5, 1.25]), [0.6875, 2.375, 4.0625]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), [1.0, 4.0, 5.0]);
        let q = quartiles(&[0.1, 0.7, 0.2, 0.9, 0.4]);
        assert_eq!(q, [0.15000000000000002, 0.4, 0.8]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_of_even_count_interpolates() {
        assert_eq!(median(&[1.0, 3.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 10);
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    fn failed_share(requested: u64, completed: u64, degraded: u64) -> f64 {
        share(failed_rounds(requested, completed, degraded), requested)
    }

    #[test]
    fn failed_share_counts_missing_and_degraded_rounds() {
        assert_eq!(failed_share(100, 100, 0), 0.0);
        assert_eq!(failed_share(100, 90, 0), 0.1);
        assert_eq!(failed_share(100, 100, 5), 0.05);
        assert_eq!(failed_share(100, 90, 5), 0.15);
        // Degraded rounds are a subset of completed ones.
        assert_eq!(failed_rounds(10, 2, 7), 10);
        assert_eq!(failed_share(0, 0, 0), 0.0);
    }

    #[test]
    fn mean_is_plain_average() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
