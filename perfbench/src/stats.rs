//! Order statistics for timing samples.

use std::collections::BTreeMap;

/// Sorts a copy of `xs` ascending (NaN-free input assumed; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so figures printed here match the acceptance check's.
///
/// # Panics
///
/// Panics if `xs` has fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let n = 4;
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Minimum number of samples that must lie above a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `xs`, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie above it: a tail figure
/// backed by a handful of samples is not reported.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    let value = v[idx];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= TAIL_SAMPLES).then_some(value)
}

/// Geometric mean of positive values; 0 if any value is not positive.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no values");
    if xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Named sample series gathered over a run's passes or set-ups.
#[derive(Debug, Clone, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Appends one sample to the series `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of `name`, in the order they were taken.
    pub fn series(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the series `name`, or 0 when it has no samples.
    pub fn median(&self, name: &str) -> f64 {
        let xs = self.series(name);
        if xs.is_empty() {
            0.0
        } else {
            median(xs)
        }
    }

    /// Sum of the series `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.series(name).iter().sum()
    }

    /// One line stating the median, quartiles and sample count of `name`.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let xs = self.series(name);
        match xs.len() {
            0 => format!("{name}: no samples"),
            1 => format!("{name}: {:.4} {unit} (n=1)", xs[0]),
            n => {
                let [q1, _, q3] = quartiles(xs);
                let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
                format!(
                    "{name}: median {:.4} {unit} (min {min:.4}, q1 {q1:.4}, q3 {q3:.4}, n={n})",
                    median(xs)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 100 distinct samples: p90 = 90 has exactly 10 above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        // p99 = 99 has only one sample above it.
        assert_eq!(tail_percentile(&xs, 99.0), None);
        // 1000 samples: p99 = 990 has 10 above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_counts_only_strictly_larger_samples() {
        // Ties at the percentile value do not count as beyond it.
        let mut xs = vec![5.0; 95];
        xs.extend([9.0; 5]);
        assert_eq!(tail_percentile(&xs, 50.0), None);
        xs.extend([9.0; 5]);
        assert_eq!(tail_percentile(&xs, 50.0), Some(5.0));
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }

    #[test]
    fn samples_keep_named_series() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push("run_s", v);
        }
        assert_eq!(s.series("run_s"), &[3.0, 1.0, 2.0]);
        assert_eq!(s.median("run_s"), 2.0);
        assert_eq!(s.sum("run_s"), 6.0);
        assert_eq!(s.median("absent"), 0.0);
        assert!(s.describe("run_s", "s").ends_with("n=3)"));
    }
}
