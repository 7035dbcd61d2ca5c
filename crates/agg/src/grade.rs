//! The [`Grade`] type: a real number in the closed interval `[0, 1]`.
//!
//! Fagin's semantics (Section 2 of the paper) assigns every object a *grade*
//! under every query: `1` is a perfect match, `0` a complete non-match, and
//! traditional (crisp) database predicates only ever produce `0` or `1`.
//! All aggregation functions in this workspace consume and produce `Grade`s,
//! so the `[0, 1]`/non-NaN invariant is enforced once, here, at construction.

use std::fmt;

/// Error returned when constructing a [`Grade`] from an invalid `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GradeError {
    /// The value was NaN.
    NotANumber,
    /// The value was outside `[0, 1]` (payload is the offending value).
    OutOfRange(f64),
}

impl fmt::Display for GradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GradeError::NotANumber => write!(f, "grade must not be NaN"),
            GradeError::OutOfRange(v) => write!(f, "grade {v} outside [0, 1]"),
        }
    }
}

impl std::error::Error for GradeError {}

/// A fuzzy grade: an `f64` guaranteed to lie in `[0, 1]` and never NaN.
///
/// Because NaN is excluded, `Grade` implements [`Ord`] and can be sorted,
/// compared, and used as a max/min key directly.
///
/// ```
/// use garlic_agg::Grade;
/// let g = Grade::new(0.75).unwrap();
/// assert!(g > Grade::ZERO && g < Grade::ONE);
/// assert_eq!(g.complement(), Grade::new(0.25).unwrap());
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Grade(f64);

impl Grade {
    /// Grade `0`: the query is (fully) false about the object.
    pub const ZERO: Grade = Grade(0.0);
    /// Grade `1`: a perfect match.
    pub const ONE: Grade = Grade(1.0);
    /// Grade `1/2`: the fixed point of the standard negation, central to the
    /// hard query `Q AND NOT Q` of Section 7.
    pub const HALF: Grade = Grade(0.5);

    /// Creates a grade, rejecting NaN and values outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Grade, GradeError> {
        if value.is_nan() {
            Err(GradeError::NotANumber)
        } else if !(0.0..=1.0).contains(&value) {
            Err(GradeError::OutOfRange(value))
        } else {
            Ok(Grade(value))
        }
    }

    /// Creates a grade, clamping out-of-range values into `[0, 1]`.
    ///
    /// NaN clamps to `0` (the conservative "no information" grade).
    pub fn clamped(value: f64) -> Grade {
        if value.is_nan() {
            Grade::ZERO
        } else {
            Grade(value.clamp(0.0, 1.0))
        }
    }

    /// The underlying `f64` in `[0, 1]`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The standard fuzzy negation `1 - g` (Zadeh's negation rule).
    #[inline]
    pub fn complement(self) -> Grade {
        Grade(1.0 - self.0)
    }

    /// `true` iff the grade is exactly `0` or exactly `1`, i.e. the grade a
    /// traditional (non-fuzzy) predicate would produce.
    #[inline]
    pub fn is_crisp(self) -> bool {
        self.0 == 0.0 || self.0 == 1.0
    }

    /// Pointwise minimum (the standard fuzzy conjunction rule).
    #[inline]
    pub fn min(self, other: Grade) -> Grade {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Pointwise maximum (the standard fuzzy disjunction rule).
    #[inline]
    pub fn max(self, other: Grade) -> Grade {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Approximate equality within `eps`, for testing algebraic identities
    /// over the floating-point t-norm zoo.
    pub fn approx_eq(self, other: Grade, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }

    /// Converts a boolean (a crisp predicate result) into a grade.
    #[inline]
    pub fn from_bool(b: bool) -> Grade {
        if b {
            Grade::ONE
        } else {
            Grade::ZERO
        }
    }
}

impl Eq for Grade {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Grade {
    #[allow(clippy::expect_used, reason = "the constructor invariant excludes NaN")]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("Grade is never NaN")
    }
}

impl fmt::Debug for Grade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grade({})", self.0)
    }
}

impl fmt::Display for Grade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl TryFrom<f64> for Grade {
    type Error = GradeError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Grade::new(value)
    }
}

impl From<bool> for Grade {
    fn from(b: bool) -> Self {
        Grade::from_bool(b)
    }
}

/// An evenly spaced grid of grades covering `[0, 1]` inclusive, used by the
/// axiom checkers and tests. `steps` is the number of intervals, so the grid
/// has `steps + 1` points; `grade_grid(4)` is `[0, 0.25, 0.5, 0.75, 1]`.
pub fn grade_grid(steps: usize) -> Vec<Grade> {
    assert!(steps >= 1, "grid needs at least one interval");
    (0..=steps)
        .map(|i| Grade::clamped(i as f64 / steps as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert_eq!(Grade::new(0.0).unwrap(), Grade::ZERO);
        assert_eq!(Grade::new(1.0).unwrap(), Grade::ONE);
        assert_eq!(Grade::new(0.5).unwrap(), Grade::HALF);
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert_eq!(Grade::new(-0.1), Err(GradeError::OutOfRange(-0.1)));
        assert_eq!(Grade::new(1.1), Err(GradeError::OutOfRange(1.1)));
        assert_eq!(Grade::new(f64::NAN), Err(GradeError::NotANumber));
        assert_eq!(
            Grade::new(f64::INFINITY),
            Err(GradeError::OutOfRange(f64::INFINITY))
        );
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Grade::clamped(-3.0), Grade::ZERO);
        assert_eq!(Grade::clamped(7.0), Grade::ONE);
        assert_eq!(Grade::clamped(f64::NAN), Grade::ZERO);
        assert_eq!(Grade::clamped(0.25).value(), 0.25);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Grade::ONE, Grade::ZERO, Grade::HALF];
        v.sort();
        assert_eq!(v, vec![Grade::ZERO, Grade::HALF, Grade::ONE]);
    }

    #[test]
    fn complement_is_involutive() {
        for g in grade_grid(20) {
            assert!(g.complement().complement().approx_eq(g, 1e-12));
        }
    }

    #[test]
    fn crispness() {
        assert!(Grade::ZERO.is_crisp());
        assert!(Grade::ONE.is_crisp());
        assert!(!Grade::HALF.is_crisp());
    }

    #[test]
    fn min_max_agree_with_ord() {
        let a = Grade::new(0.3).unwrap();
        let b = Grade::new(0.8).unwrap();
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(a), a);
    }

    #[test]
    fn from_bool_is_crisp() {
        assert_eq!(Grade::from_bool(true), Grade::ONE);
        assert_eq!(Grade::from_bool(false), Grade::ZERO);
    }

    #[test]
    fn grid_endpoints() {
        let g = grade_grid(4);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], Grade::ZERO);
        assert_eq!(g[4], Grade::ONE);
        assert_eq!(g[2], Grade::HALF);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Grade::HALF), "0.5000");
    }
}
