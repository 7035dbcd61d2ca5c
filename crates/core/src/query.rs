//! Boolean queries over atomic subqueries and their graded semantics
//! (Sections 2–3).
//!
//! Queries are Boolean combinations of atomic queries; each atomic query
//! assigns every object a grade, and a [`Calculus`] (a choice of t-norm,
//! t-conorm, and negation) extends the grading to compound queries:
//!
//! * `μ_{A ∧ B}(x) = t(μ_A(x), μ_B(x))`
//! * `μ_{A ∨ B}(x) = s(μ_A(x), μ_B(x))`
//! * `μ_{¬A}(x)    = n(μ_A(x))`
//!
//! With the standard calculus (min/max/1−x) these are Zadeh's rules, which
//! are the *unique* monotone rules preserving logical equivalence of ∧/∨
//! queries (Theorem 3.1) — property-tested below and in the integration
//! suite.

use garlic_agg::negation::StandardNegation;
use garlic_agg::tconorms::Maximum;
use garlic_agg::tnorms::Minimum;
use garlic_agg::{Grade, Negation, TCoNorm, TNorm};

/// Index of an atomic subquery within a query's atom universe. The concrete
/// meaning of an atom (e.g. `Artist = "Beatles"`) lives in the middleware
/// layer; the core algebra only needs identity.
pub type AtomId = usize;

/// A Boolean combination of atomic queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// An atomic query `X = t`, identified by index.
    Atom(AtomId),
    /// Conjunction of subqueries (graded by the calculus's t-norm).
    And(Vec<Query>),
    /// Disjunction of subqueries (graded by the calculus's t-conorm).
    Or(Vec<Query>),
    /// Negation of a subquery (graded by the calculus's negation).
    Not(Box<Query>),
}

impl Query {
    /// Convenience constructor: `a ∧ b`.
    pub fn and(a: Query, b: Query) -> Query {
        Query::And(vec![a, b])
    }

    /// Convenience constructor: `a ∨ b`.
    pub fn or(a: Query, b: Query) -> Query {
        Query::Or(vec![a, b])
    }

    /// Convenience constructor: `¬a`. (Deliberately named like the logic
    /// operator; this is a static constructor, not `std::ops::Not`.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Query) -> Query {
        Query::Not(Box::new(a))
    }

    /// Grades the query on one object, given that object's grade under each
    /// atom.
    ///
    /// # Panics
    /// Panics if an atom id is out of range of `atom_grades`.
    pub fn grade<T, S, N>(&self, atom_grades: &[Grade], calculus: &Calculus<T, S, N>) -> Grade
    where
        T: TNorm,
        S: TCoNorm,
        N: Negation,
    {
        match self {
            Query::Atom(a) => atom_grades[*a],
            Query::And(qs) => qs
                .iter()
                .map(|q| q.grade(atom_grades, calculus))
                .fold(Grade::ONE, |acc, g| calculus.tnorm.t(acc, g)),
            Query::Or(qs) => qs
                .iter()
                .map(|q| q.grade(atom_grades, calculus))
                .fold(Grade::ZERO, |acc, g| calculus.conorm.s(acc, g)),
            Query::Not(q) => calculus.negation.negate(q.grade(atom_grades, calculus)),
        }
    }
}

/// A choice of connective semantics: one t-norm for ∧, one t-conorm for ∨,
/// one negation for ¬.
#[derive(Debug, Clone, Copy)]
pub struct Calculus<T = Minimum, S = Maximum, N = StandardNegation> {
    /// Semantics of conjunction.
    pub tnorm: T,
    /// Semantics of disjunction.
    pub conorm: S,
    /// Semantics of negation.
    pub negation: N,
}

impl Calculus {
    /// Zadeh's standard rules: min / max / 1−x.
    pub fn standard() -> Calculus<Minimum, Maximum, StandardNegation> {
        Calculus {
            tnorm: Minimum,
            conorm: Maximum,
            negation: StandardNegation,
        }
    }
}

impl<T: TNorm, S: TCoNorm, N: Negation> Calculus<T, S, N> {
    /// Builds a calculus from arbitrary connectives.
    pub fn new(tnorm: T, conorm: S, negation: N) -> Self {
        Calculus {
            tnorm,
            conorm,
            negation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garlic_agg::tconorms::AlgebraicSum;
    use garlic_agg::tnorms::AlgebraicProduct;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn grades() -> Vec<Grade> {
        vec![g(0.3), g(0.8), g(0.6)]
    }

    #[test]
    fn standard_rules_evaluate() {
        let c = Calculus::standard();
        let q = Query::and(Query::Atom(0), Query::Atom(1));
        assert_eq!(q.grade(&grades(), &c), g(0.3));
        let q = Query::or(Query::Atom(0), Query::Atom(1));
        assert_eq!(q.grade(&grades(), &c), g(0.8));
        let q = Query::not(Query::Atom(1));
        assert!(q.grade(&grades(), &c).approx_eq(g(0.2), 1e-12));
    }

    #[test]
    fn crisp_restriction_recovers_propositional_logic() {
        // Conservative extension: on {0,1} grades the standard rules are
        // classical logic.
        let c = Calculus::standard();
        for a in [Grade::ZERO, Grade::ONE] {
            for b in [Grade::ZERO, Grade::ONE] {
                let v = [a, b];
                let and = Query::and(Query::Atom(0), Query::Atom(1)).grade(&v, &c);
                let or = Query::or(Query::Atom(0), Query::Atom(1)).grade(&v, &c);
                let not = Query::not(Query::Atom(0)).grade(&v, &c);
                assert_eq!(and == Grade::ONE, a == Grade::ONE && b == Grade::ONE);
                assert_eq!(or == Grade::ONE, a == Grade::ONE || b == Grade::ONE);
                assert_eq!(not == Grade::ONE, a == Grade::ZERO);
            }
        }
    }

    #[test]
    fn min_max_preserve_idempotence_product_does_not() {
        // Theorem 3.1's flavour: A ∧ A ≡ A under min, but not under product.
        let std_c = Calculus::standard();
        let prod_c = Calculus::new(AlgebraicProduct, AlgebraicSum, StandardNegation);
        let aa = Query::and(Query::Atom(0), Query::Atom(0));
        let a = Query::Atom(0);
        let v = [g(0.5)];
        assert_eq!(aa.grade(&v, &std_c), a.grade(&v, &std_c));
        assert!(aa.grade(&v, &prod_c) < a.grade(&v, &prod_c)); // 0.25 < 0.5
    }

    #[test]
    fn distributivity_under_min_max() {
        // A ∧ (B ∨ C) ≡ (A ∧ B) ∨ (A ∧ C) under the standard calculus.
        let c = Calculus::standard();
        let lhs = Query::and(Query::Atom(0), Query::or(Query::Atom(1), Query::Atom(2)));
        let rhs = Query::or(
            Query::and(Query::Atom(0), Query::Atom(1)),
            Query::and(Query::Atom(0), Query::Atom(2)),
        );
        for a in garlic_agg::grade_grid(4) {
            for b in garlic_agg::grade_grid(4) {
                for d in garlic_agg::grade_grid(4) {
                    let v = [a, b, d];
                    assert_eq!(lhs.grade(&v, &c), rhs.grade(&v, &c));
                }
            }
        }
    }

    #[test]
    fn hard_query_peaks_at_half() {
        // Section 7: μ_{Q ∧ ¬Q}(x) = 1/2 exactly when μ_Q(x) = 1/2, and 1/2
        // is the maximum possible value.
        let c = Calculus::standard();
        let q = Query::and(Query::Atom(0), Query::not(Query::Atom(0)));
        assert_eq!(q.grade(&[Grade::HALF], &c), Grade::HALF);
        for v in garlic_agg::grade_grid(20) {
            assert!(q.grade(&[v], &c) <= Grade::HALF);
        }
    }

    #[test]
    fn empty_connectives_have_units() {
        let c = Calculus::standard();
        assert_eq!(Query::And(vec![]).grade(&[], &c), Grade::ONE);
        assert_eq!(Query::Or(vec![]).grade(&[], &c), Grade::ZERO);
    }
}
