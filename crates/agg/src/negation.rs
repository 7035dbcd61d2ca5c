//! Fuzzy negation. The paper uses Zadeh's standard rule `n(x) = 1 - x`
//! (Section 3), and it is the one negation every query is graded with.
//! Bonissone and Decker \[BD86\] show De Morgan duality holds for other
//! "suitable" negations too; one would implement [`Negation`].

use crate::grade::Grade;
use crate::traits::Negation;

/// The standard negation `n(x) = 1 - x` — involutive, with fixed point `1/2`
/// (which is what makes `Q AND NOT Q` peak at grade `1/2` in Section 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardNegation;

impl Negation for StandardNegation {
    fn negate(&self, x: Grade) -> Grade {
        x.complement()
    }
    fn name(&self) -> String {
        "standard".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::grade_grid;

    #[test]
    fn standard_is_involutive_with_half_fixed_point() {
        for g in grade_grid(20) {
            assert!(StandardNegation
                .negate(StandardNegation.negate(g))
                .approx_eq(g, 1e-12));
        }
        assert_eq!(StandardNegation.negate(Grade::HALF), Grade::HALF);
    }

    #[test]
    fn boundary_conditions() {
        assert_eq!(StandardNegation.negate(Grade::ZERO), Grade::ONE);
        assert_eq!(StandardNegation.negate(Grade::ONE), Grade::ZERO);
    }
}
