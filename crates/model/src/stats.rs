//! Small statistics helpers for checking empirical growth rates.
//!
//! Experiments verify the *shape* of the paper's bounds: e.g. that writes of
//! the tree sort grow linearly in n while a comparison sort's writes grow as
//! n log n. [`loglog_slope`] fits the empirical exponent on a log-log plot;
//! [`Summary`] aggregates repeated trials.

/// Mean of a sample (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a sample.
fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median of a sample (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)`: the empirical polynomial
/// exponent of y(x). Points with non-positive coordinates are skipped.
///
/// A measured exponent ~1.0 confirms linear growth, ~2.0 quadratic, etc.
/// Exponents for n log n data land slightly above 1 over practical ranges.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    linear_slope(&pts)
}

/// Least-squares slope of y against x.
fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

/// Aggregate of repeated trials of one measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of trials aggregated.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample median.
    pub median: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample (all-zero summary for an empty sample).
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        Summary {
            n: xs.len(),
            mean: mean(xs),
            median: median(xs),
            stddev: stddev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// log2 as f64 of a positive integer (0 maps to 0, convenient in ratios).
pub fn log2(x: u64) -> f64 {
    if x == 0 {
        0.0
    } else {
        (x as f64).log2()
    }
}

/// `log_base(x)` with both arguments as counts; clamps bases <= 1 to base 2 to
/// keep experiment formulas total.
pub fn log_base(base: f64, x: f64) -> f64 {
    let b = if base <= 1.0 + 1e-9 { 2.0 } else { base };
    x.max(1.0).ln() / b.ln()
}

/// Ceiling of `log_base(x)` as used in the paper's level-count formulas,
/// minimum 1 level.
pub fn ceil_log_base(base: f64, x: f64) -> u64 {
    log_base(base, x).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_stddev_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((stddev(&xs) - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn loglog_slope_recovers_exponents() {
        let quad: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((loglog_slope(&lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loglog_slope_of_nlogn_is_slightly_superlinear() {
        let pts: Vec<(f64, f64)> = (4..16)
            .map(|e| {
                let n = (1u64 << e) as f64;
                (n, n * n.log2())
            })
            .collect();
        let s = loglog_slope(&pts);
        assert!(s > 1.05 && s < 1.5, "slope {s}");
    }

    #[test]
    fn linear_slope_handles_degenerate_inputs() {
        assert_eq!(linear_slope(&[]), 0.0);
        assert_eq!(linear_slope(&[(1.0, 1.0)]), 0.0);
        assert_eq!(linear_slope(&[(2.0, 5.0), (2.0, 7.0)]), 0.0);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[2.0, 4.0, 6.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
    }

    #[test]
    fn log_helpers() {
        assert_eq!(log2(8), 3.0);
        assert_eq!(log2(0), 0.0);
        assert!((log_base(4.0, 16.0) - 2.0).abs() < 1e-12);
        assert_eq!(ceil_log_base(4.0, 17.0), 3);
        assert_eq!(ceil_log_base(4.0, 1.0), 1);
        // Degenerate base clamps instead of dividing by ln(1)=0.
        assert!(log_base(1.0, 8.0).is_finite());
    }
}
