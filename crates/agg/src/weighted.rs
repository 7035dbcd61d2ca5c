//! The Fagin–Wimmers weighted aggregation formula \[FW97\].
//!
//! Section 4 of the paper notes that algorithm A0 "applies also when the user
//! can weight the relative importance of the conjuncts (for example, where
//! the user decides that color is twice as important to him as shape), since
//! such weighted conjunctions are also monotone", citing \[FW97\]. This module
//! implements that companion-paper formula so the claim can be exercised.
//!
//! Given a base (unweighted) aggregation `f` applicable at every arity, and
//! weights `θ1 >= θ2 >= ... >= θm >= 0` summing to 1 (paired with arguments
//! `x1..xm`), the Fagin–Wimmers rule is
//!
//! ```text
//! W(x1..xm) = Σ_{i=1..m}  i · (θi − θ_{i+1}) · f(x1, ..., xi)     (θ_{m+1} = 0)
//! ```
//!
//! The coefficients `i·(θi − θ_{i+1})` are non-negative and sum to `Σθi = 1`
//! (telescoping), so `W` is a convex combination of `f` on weight-ordered
//! argument prefixes. Key properties, all tested below:
//!
//! * equal weights recover the unweighted `f`;
//! * a zero weight makes the corresponding argument irrelevant;
//! * `W` is monotone whenever `f` is — which is what A0 needs;
//! * `W` is strict whenever `f` is strict and every weight is positive.

use crate::grade::Grade;
use crate::traits::Aggregation;

/// The Fagin–Wimmers weighting of a base aggregation. See module docs.
///
/// The weight-descending argument order and the telescoping coefficients
/// `i·(θi − θ_{i+1})` depend only on the weights, so both are precomputed
/// at construction — per-call work is one prefix walk, with the prefix
/// buffer borrowable through
/// [`combine_reusing`](Aggregation::combine_reusing).
#[derive(Debug, Clone)]
pub struct FaginWimmers<A> {
    base: A,
    /// Normalised weights in caller argument order (not necessarily sorted).
    weights: Vec<f64>,
    /// Argument indexes sorted by weight, descending (stable, so equal
    /// weights keep caller order — same order the per-call sort produced).
    order: Vec<usize>,
    /// `coeffs[i] = (i+1)·(θ_{(i)} − θ_{(i+1)})` over the sorted weights.
    coeffs: Vec<f64>,
}

impl<A: Aggregation> FaginWimmers<A> {
    /// Creates the weighted aggregation. Weights must be non-negative and
    /// finite with a positive sum; they are normalised to sum to 1.
    ///
    /// # Panics
    /// Panics on an empty weight list, negative/non-finite weights, or an
    /// all-zero weight list.
    pub fn new(base: A, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        let weights: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        #[allow(clippy::expect_used, reason = "the weights were checked finite above")]
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .expect("weights are finite")
        });
        let m = order.len();
        let coeffs: Vec<f64> = (0..m)
            .map(|i| {
                let theta_i = weights[order[i]];
                let theta_next = if i + 1 < m {
                    weights[order[i + 1]]
                } else {
                    0.0
                };
                (i + 1) as f64 * (theta_i - theta_next)
            })
            .collect();
        FaginWimmers {
            base,
            weights,
            order,
            coeffs,
        }
    }

    /// The normalised weights, in caller argument order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The underlying unweighted aggregation.
    pub fn base(&self) -> &A {
        &self.base
    }
}

impl<A: Aggregation> Aggregation for FaginWimmers<A> {
    fn name(&self) -> String {
        format!("fagin-wimmers({}, {:?})", self.base.name(), self.weights)
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        self.combine_reusing(grades, &mut Vec::new())
    }

    fn combine_reusing(&self, grades: &[Grade], scratch: &mut Vec<Grade>) -> Grade {
        assert_eq!(
            grades.len(),
            self.weights.len(),
            "arity must match the number of weights"
        );
        // Walk the precomputed weight-descending order, growing the prefix
        // in `scratch` — no per-call sort, no per-call allocation.
        scratch.clear();
        let mut total = 0.0;
        for (i, &arg) in self.order.iter().enumerate() {
            scratch.push(grades[arg]);
            let coeff = self.coeffs[i];
            if coeff > 0.0 {
                total += coeff * self.base.combine(scratch).value();
            }
        }
        Grade::clamped(total)
    }

    fn is_monotone(&self) -> bool {
        self.base.is_monotone()
    }

    fn is_strict(&self, arity: usize) -> bool {
        self.base.is_strict(arity) && self.weights.iter().all(|w| *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterated::min_agg;
    use crate::means::ArithmeticMean;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    #[test]
    fn equal_weights_recover_base() {
        // With θi = 1/m every telescoping coefficient vanishes except i = m,
        // whose coefficient is m * (1/m) = 1.
        let w = FaginWimmers::new(min_agg(), &[1.0, 1.0, 1.0]);
        let args = [g(0.7), g(0.3), g(0.9)];
        assert!(w.combine(&args).approx_eq(min_agg().combine(&args), 1e-12));
    }

    #[test]
    fn zero_weight_ignores_argument() {
        let w = FaginWimmers::new(min_agg(), &[1.0, 0.0]);
        // Only the first argument matters: W = 1*(1-0)*min(x1) = x1.
        assert_eq!(w.combine(&[g(0.4), Grade::ZERO]), g(0.4));
        assert_eq!(w.combine(&[g(0.4), Grade::ONE]), g(0.4));
    }

    #[test]
    fn twice_as_important_example() {
        // The paper's example: color twice as important as shape.
        // θ = (2/3, 1/3): W = 1*(2/3-1/3)*x_color + 2*(1/3)*min(x_color, x_shape).
        let w = FaginWimmers::new(min_agg(), &[2.0, 1.0]);
        let color = g(0.9);
        let shape = g(0.3);
        let expected = (1.0 / 3.0) * 0.9 + (2.0 / 3.0) * 0.3;
        assert!(w.combine(&[color, shape]).approx_eq(g(expected), 1e-12));
    }

    #[test]
    fn weight_order_does_not_depend_on_argument_position() {
        // Swapping (weight, argument) pairs together is a no-op.
        let w12 = FaginWimmers::new(min_agg(), &[2.0, 1.0]);
        let w21 = FaginWimmers::new(min_agg(), &[1.0, 2.0]);
        assert_eq!(
            w12.combine(&[g(0.9), g(0.3)]),
            w21.combine(&[g(0.3), g(0.9)])
        );
    }

    #[test]
    fn monotone_in_every_argument() {
        let w = FaginWimmers::new(min_agg(), &[3.0, 2.0, 1.0]);
        let grid = crate::grade::grade_grid(5);
        for &a in &grid {
            for &b in &grid {
                for &c in &grid {
                    for &a2 in &grid {
                        if a2 >= a {
                            assert!(w.combine(&[a2, b, c]) >= w.combine(&[a, b, c]));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strict_iff_positive_weights_and_strict_base() {
        let strict = FaginWimmers::new(min_agg(), &[2.0, 1.0]);
        assert!(strict.is_strict(2));
        assert_eq!(strict.combine(&[Grade::ONE, Grade::ONE]), Grade::ONE);
        assert!(strict.combine(&[Grade::ONE, g(0.99)]) < Grade::ONE);

        let degenerate = FaginWimmers::new(min_agg(), &[1.0, 0.0]);
        assert!(!degenerate.is_strict(2));
        // Witness of non-strictness.
        assert_eq!(degenerate.combine(&[Grade::ONE, Grade::ZERO]), Grade::ONE);
    }

    #[test]
    fn works_with_mean_base_too() {
        let w = FaginWimmers::new(ArithmeticMean, &[1.0, 1.0]);
        assert!(w
            .combine(&[g(0.2), g(0.8)])
            .approx_eq(ArithmeticMean.combine(&[g(0.2), g(0.8)]), 1e-12));
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero_weights() {
        FaginWimmers::new(min_agg(), &[0.0, 0.0]);
    }
}
