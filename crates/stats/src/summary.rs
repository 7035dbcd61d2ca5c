//! Sample summaries for the experiment harness.

/// Summary statistics of a sample of f64 observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    ///
    /// # Panics
    /// Panics on an empty sample or non-finite values.
    pub fn from_sample(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "cannot summarise an empty sample");
        assert!(
            sample.iter().all(|x| x.is_finite()),
            "sample contains non-finite values"
        );
        let count = sample.len();
        let mean = sample.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let min = sample.iter().copied().fold(f64::INFINITY, f64::min);
        let max = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation between
/// order statistics. Values are ordered by [`f64::total_cmp`], so a NaN
/// sample sorts past every number (a negative one before) instead of
/// panicking.
///
/// # Panics
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    assert!(!sample.is_empty(), "cannot take a quantile of nothing");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Empirical exceedance probability: the fraction of observations strictly
/// greater than `threshold`. Used for the Wimmers tail experiment (E04).
pub fn exceedance(sample: &[f64], threshold: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.iter().filter(|&&x| x > threshold).count() as f64 / sample.len() as f64
}

/// The Wilson score interval for a binomial proportion at confidence level
/// `z` standard deviations (e.g. `z = 1.96` for ~95%). Returns
/// `(lower, upper)`. More honest than the normal approximation near 0 and 1
/// — which is exactly where the tail experiments (E04, E16) live.
///
/// Each end is computed as its distance from its own edge: the lower end
/// from 0 in the successes `s`, the upper end from 1 in the failures `f`.
/// Rationalising `(centre − half) / denom` gives
/// `x² / (n·(x + z²/2 + r))` for `x` = `s` or `f`, with
/// `r = z·√(s·f/n + z²/4)` shared by both. Nothing cancels, so no
/// successes give a lower end of exactly 0 and no failures an upper end
/// of exactly 1. With `z = 0` the interval is the point `s/n`.
///
/// # Panics
/// Panics if `trials == 0`, `successes > trials`, or `z < 0`.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    assert!(successes <= trials, "successes cannot exceed trials");
    assert!(z >= 0.0, "z must be non-negative");
    let n = trials as f64;
    if z == 0.0 {
        let p = successes as f64 / n;
        return (p, p);
    }
    let (s, f) = (successes as f64, (trials - successes) as f64);
    let z2 = z * z;
    let r = z * (s * f / n + z2 / 4.0).sqrt();
    let from_edge = |x: f64| x * x / (n * (x + z2 / 2.0 + r));
    (from_edge(s), 1.0 - from_edge(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_hand_check() {
        let s = Summary::from_sample(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // variance = (2.25+0.25+0.25+2.25)/3 = 5/3
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn singleton_summary() {
        let s = Summary::from_sample(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_order_invariant() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    /// A NaN sample is ordered, not a panic: it sorts past every number,
    /// so the quantiles below it are the numbers' own.
    #[test]
    fn a_nan_sample_sorts_last_instead_of_panicking() {
        let v = [0.5, f64::NAN, 1.0];
        assert_eq!(quantile(&v, 0.0), 0.5);
        assert_eq!(quantile(&v, 0.5), 1.0);
        assert!(quantile(&v, 1.0).is_nan());
    }

    #[test]
    fn exceedance_counts_strictly_greater() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exceedance(&v, 2.0), 0.5);
        assert_eq!(exceedance(&v, 0.0), 1.0);
        assert_eq!(exceedance(&v, 4.0), 0.0);
        assert_eq!(exceedance(&[], 1.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_summary_rejected() {
        Summary::from_sample(&[]);
    }

    #[test]
    fn wilson_interval_contains_the_point_estimate() {
        for (s, n) in [
            (0usize, 100usize),
            (1, 100),
            (50, 100),
            (99, 100),
            (100, 100),
        ] {
            let (lo, hi) = wilson_interval(s, n, 1.96);
            let p = s as f64 / n as f64;
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "s={s}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_interval_shrinks_with_trials() {
        let (lo1, hi1) = wilson_interval(5, 50, 1.96);
        let (lo2, hi2) = wilson_interval(500, 5000, 1.96);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_zero_successes_has_zero_lower_bound() {
        let (lo, hi) = wilson_interval(0, 1000, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
        for (trials, z) in [(11, 1.96), (5, 3.0)] {
            assert_eq!(wilson_interval(0, trials, z).0, 0.0, "0 of {trials}");
        }
        // The mirror image: no failures give an upper end of exactly 1.
        for (trials, z) in [(12, 1.96), (21, 3.0)] {
            let (lo, hi) = wilson_interval(trials, trials, z);
            assert_eq!(hi, 1.0, "{trials} of {trials}");
            assert!(lo > 0.0 && lo < 1.0);
        }
    }

    #[test]
    fn wilson_interval_matches_the_textbook_form() {
        for (s, n, z) in [(1usize, 100usize, 1.96), (7, 11, 3.0), (50, 100, 1.0)] {
            let (nf, p) = (n as f64, s as f64 / n as f64);
            let centre = p + z * z / (2.0 * nf);
            let half = z * (p * (1.0 - p) / nf + z * z / (4.0 * nf * nf)).sqrt();
            let denom = 1.0 + z * z / nf;
            let (lo, hi) = wilson_interval(s, n, z);
            assert!((lo - (centre - half) / denom).abs() < 1e-15, "s={s}");
            assert!((hi - (centre + half) / denom).abs() < 1e-15, "s={s}");
        }
        assert_eq!(wilson_interval(3, 4, 0.0), (0.75, 0.75));
    }

    #[test]
    #[should_panic]
    fn wilson_rejects_impossible_counts() {
        wilson_interval(5, 4, 1.96);
    }
}
