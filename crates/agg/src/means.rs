//! Mean-style aggregation functions.
//!
//! Section 3 notes that Thole, Zimmermann and Zysno \[TZZ79\] found weighted
//! and unweighted arithmetic/geometric means to perform well empirically,
//! even though they are *not* t-norms (the arithmetic mean of 0 and 1 is 1/2,
//! violating ∧-conservation). They are still monotone and strict, so both of
//! the paper's bounds apply to them — exercised by experiment E10. The
//! unweighted means live here; weighted queries run
//! [`crate::weighted::FaginWimmers`] instead.
//!
//! Remark 6.1 adds two aggregations that are monotone but **not** strict,
//! for which the lower bound *fails*: the median and the "gymnastics"
//! trimmed mean (drop the top and bottom scores, average the rest).

use crate::grade::Grade;
use crate::traits::Aggregation;

/// The arithmetic mean `(x1 + ... + xm) / m`. Monotone and strict, but not a
/// t-norm (no ∧-conservation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ArithmeticMean;

impl Aggregation for ArithmeticMean {
    fn name(&self) -> String {
        "arithmetic-mean".to_owned()
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        if grades.is_empty() {
            return Grade::ONE;
        }
        let sum: f64 = grades.iter().map(|g| g.value()).sum();
        Grade::clamped(sum / grades.len() as f64)
    }

    fn is_strict(&self, _arity: usize) -> bool {
        true
    }
}

/// The geometric mean `(x1 * ... * xm)^(1/m)`. Monotone and strict.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeometricMean;

impl Aggregation for GeometricMean {
    fn name(&self) -> String {
        "geometric-mean".to_owned()
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        if grades.is_empty() {
            return Grade::ONE;
        }
        let product: f64 = grades.iter().map(|g| g.value()).product();
        Grade::clamped(product.powf(1.0 / grades.len() as f64))
    }

    fn is_strict(&self, _arity: usize) -> bool {
        true
    }

    fn zero_annihilates(&self, _arity: usize) -> bool {
        // A zero factor zeroes the product, hence the root.
        true
    }
}

/// The median of the arguments (lower median for even arity). Monotone but
/// **not strict** — Remark 6.1's canonical example of an aggregation where
/// the Ω(N^((m-1)/m) k^(1/m)) lower bound fails, because the median can be 1
/// with a minority of arguments below 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianAgg;

impl Aggregation for MedianAgg {
    fn name(&self) -> String {
        "median".to_owned()
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        self.combine_reusing(grades, &mut Vec::new())
    }

    fn combine_reusing(&self, grades: &[Grade], scratch: &mut Vec<Grade>) -> Grade {
        if grades.is_empty() {
            return Grade::ONE;
        }
        scratch.clear();
        scratch.extend_from_slice(grades);
        // Lower median: for m = 2j-1 or 2j this picks the j-th smallest,
        // i.e. the ⌈m/2⌉-th largest — matching identity (13) of the paper.
        let mid = (scratch.len() - 1) / 2;
        let (_, median, _) = scratch.select_nth_unstable(mid);
        *median
    }

    fn is_strict(&self, arity: usize) -> bool {
        arity <= 1
    }
}

/// The gymnastics aggregation of Remark 6.1: drop one highest and one lowest
/// score, average the rest. With three judges this *is* the median. Monotone
/// but not strict.
#[derive(Debug, Clone, Copy, Default)]
pub struct GymnasticsTrimmedMean;

impl Aggregation for GymnasticsTrimmedMean {
    fn name(&self) -> String {
        "gymnastics-trimmed-mean".to_owned()
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        self.combine_reusing(grades, &mut Vec::new())
    }

    fn combine_reusing(&self, grades: &[Grade], scratch: &mut Vec<Grade>) -> Grade {
        assert!(
            grades.len() >= 3,
            "trimmed mean needs at least three judges"
        );
        scratch.clear();
        scratch.extend_from_slice(grades);
        scratch.sort();
        let inner = &scratch[1..scratch.len() - 1];
        let sum: f64 = inner.iter().map(|g| g.value()).sum();
        Grade::clamped(sum / inner.len() as f64)
    }

    fn is_strict(&self, _arity: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    #[test]
    fn arithmetic_mean_violates_conservation() {
        // The paper's own example: mean(0, 1) = 1/2, not 0.
        assert_eq!(
            ArithmeticMean.combine(&[Grade::ZERO, Grade::ONE]),
            Grade::HALF
        );
    }

    #[test]
    fn arithmetic_mean_is_strict() {
        assert_eq!(
            ArithmeticMean.combine(&[Grade::ONE, Grade::ONE]),
            Grade::ONE
        );
        assert!(ArithmeticMean.combine(&[Grade::ONE, g(0.999)]) < Grade::ONE);
    }

    #[test]
    fn geometric_mean_values() {
        assert!(GeometricMean
            .combine(&[g(0.25), Grade::ONE])
            .approx_eq(g(0.5), 1e-12));
        assert_eq!(
            GeometricMean.combine(&[Grade::ZERO, Grade::ONE]),
            Grade::ZERO
        );
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(MedianAgg.combine(&[g(0.1), g(0.9), g(0.5)]), g(0.5));
        // Lower median for even arity.
        assert_eq!(MedianAgg.combine(&[g(0.1), g(0.9), g(0.5), g(0.7)]), g(0.5));
    }

    #[test]
    fn median_is_not_strict() {
        // Median(1, 1, 0) = 1 even though one argument is 0.
        assert_eq!(
            MedianAgg.combine(&[Grade::ONE, Grade::ONE, Grade::ZERO]),
            Grade::ONE
        );
        assert!(!MedianAgg.is_strict(3));
    }

    #[test]
    fn gymnastics_with_three_judges_is_median() {
        let scores = [g(0.2), g(0.8), g(0.6)];
        assert_eq!(
            GymnasticsTrimmedMean.combine(&scores),
            MedianAgg.combine(&scores)
        );
    }

    #[test]
    fn gymnastics_with_five_judges() {
        let scores = [g(0.0), g(0.4), g(0.6), g(0.8), Grade::ONE];
        assert!(GymnasticsTrimmedMean
            .combine(&scores)
            .approx_eq(g(0.6), 1e-12));
    }

    #[test]
    fn gymnastics_is_not_strict() {
        assert_eq!(
            GymnasticsTrimmedMean.combine(&[Grade::ZERO, Grade::ONE, Grade::ONE, Grade::ONE]),
            Grade::ONE
        );
    }
}
