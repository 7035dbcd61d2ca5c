//! Garlic-level queries: Boolean combinations of concrete atomic queries,
//! graded under the standard calculus (min / max / 1−x — the Garlic
//! semantics of Section 2).

use garlic_agg::{Aggregation, Grade};
use garlic_core::query::{Calculus, Query};
use garlic_subsys::AtomicQuery;

/// A Boolean combination of atomic queries, e.g.
/// `(Artist = "Beatles") ∧ (AlbumColor = "red")`.
#[derive(Debug, Clone, PartialEq)]
pub enum GarlicQuery {
    /// An atomic query.
    Atom(AtomicQuery),
    /// Conjunction (graded by min).
    And(Vec<GarlicQuery>),
    /// Disjunction (graded by max).
    Or(Vec<GarlicQuery>),
    /// Negation (graded by 1−x).
    Not(Box<GarlicQuery>),
}

impl GarlicQuery {
    /// Convenience: an atomic leaf.
    pub fn atom(attribute: &str, target: garlic_subsys::Target) -> GarlicQuery {
        GarlicQuery::Atom(AtomicQuery::new(attribute, target))
    }

    /// Convenience: binary conjunction.
    pub fn and(a: GarlicQuery, b: GarlicQuery) -> GarlicQuery {
        GarlicQuery::And(vec![a, b])
    }

    /// Convenience: binary disjunction.
    pub fn or(a: GarlicQuery, b: GarlicQuery) -> GarlicQuery {
        GarlicQuery::Or(vec![a, b])
    }

    /// Convenience: negation. (Deliberately named like the logic operator;
    /// this is a static constructor, not `std::ops::Not`.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(q: GarlicQuery) -> GarlicQuery {
        GarlicQuery::Not(Box::new(q))
    }

    /// The distinct atomic queries, in first-occurrence order. A repeated
    /// atom (as in `Q ∧ ¬Q`) appears once and is evaluated once.
    pub fn atoms(&self) -> Vec<AtomicQuery> {
        let mut out: Vec<AtomicQuery> = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut Vec<AtomicQuery>) {
        match self {
            GarlicQuery::Atom(a) => {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
            GarlicQuery::And(qs) | GarlicQuery::Or(qs) => {
                for q in qs {
                    q.collect_atoms(out);
                }
            }
            GarlicQuery::Not(q) => q.collect_atoms(out),
        }
    }

    /// Lowers to the index-based core algebra, given the atom universe from
    /// [`GarlicQuery::atoms`].
    pub fn to_core(&self, atoms: &[AtomicQuery]) -> Query {
        match self {
            GarlicQuery::Atom(a) => Query::Atom(
                atoms
                    .iter()
                    .position(|x| x == a)
                    .expect("atom universe must come from atoms()"),
            ),
            GarlicQuery::And(qs) => Query::And(qs.iter().map(|q| q.to_core(atoms)).collect()),
            GarlicQuery::Or(qs) => Query::Or(qs.iter().map(|q| q.to_core(atoms)).collect()),
            GarlicQuery::Not(q) => Query::Not(Box::new(q.to_core(atoms))),
        }
    }

    /// Negation-free?
    pub fn is_positive(&self) -> bool {
        match self {
            GarlicQuery::Atom(_) => true,
            GarlicQuery::And(qs) | GarlicQuery::Or(qs) => qs.iter().all(Self::is_positive),
            GarlicQuery::Not(_) => false,
        }
    }

    /// If the query is a flat conjunction of distinct atoms, those atoms.
    pub fn as_flat_and(&self) -> Option<Vec<&AtomicQuery>> {
        match self {
            GarlicQuery::Atom(a) => Some(vec![a]),
            GarlicQuery::And(qs) => {
                let mut out = Vec::with_capacity(qs.len());
                for q in qs {
                    match q {
                        GarlicQuery::Atom(a) if !out.contains(&a) => out.push(a),
                        _ => return None,
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// If the query is a flat disjunction of distinct atoms, those atoms.
    pub fn as_flat_or(&self) -> Option<Vec<&AtomicQuery>> {
        match self {
            GarlicQuery::Or(qs) if qs.len() >= 2 => {
                let mut out = Vec::with_capacity(qs.len());
                for q in qs {
                    match q {
                        GarlicQuery::Atom(a) if !out.contains(&a) => out.push(a),
                        _ => return None,
                    }
                }
                Some(out)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for GarlicQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GarlicQuery::Atom(a) => write!(f, "({a})"),
            GarlicQuery::And(qs) => {
                let parts: Vec<String> = qs.iter().map(|q| format!("{q}")).collect();
                write!(f, "({})", parts.join(" AND "))
            }
            GarlicQuery::Or(qs) => {
                let parts: Vec<String> = qs.iter().map(|q| format!("{q}")).collect();
                write!(f, "({})", parts.join(" OR "))
            }
            GarlicQuery::Not(q) => write!(f, "NOT {q}"),
        }
    }
}

/// A literal of a negation-normal-form query: an atomic query or its
/// negation.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// The underlying atomic query.
    pub atom: AtomicQuery,
    /// Whether the literal is the atom's negation.
    pub negated: bool,
}

/// A query converted to negation-normal form — negations appear only on
/// atoms — with its literal table.
///
/// Under the standard calculus an NNF query is *monotone in its literals'
/// grades* (only min/max combine them), so algorithm A₀ applies — with each
/// negated literal served by a
/// [`ComplementSource`](garlic_core::ComplementSource), per the Section 7
/// observation that the sorted order of `¬Q` is the reverse of `Q`'s.
#[derive(Debug, Clone, PartialEq)]
pub struct Nnf {
    /// Distinct literals, in first-occurrence order. Note `Q` and `¬Q` are
    /// *different* literals over the same atom (the hard query of Section 7
    /// produces exactly that pair).
    pub literals: Vec<Literal>,
    /// The negation-free formula over literal indexes, in the one core
    /// algebra: graded from the literals' grades like any other
    /// [`Query`] (see [`QueryAggregation::nnf`]).
    pub root: Query,
}

impl GarlicQuery {
    /// Converts to negation-normal form by pushing negations down through
    /// De Morgan's laws (valid for the standard calculus — property-tested
    /// in `tests/semantics_equivalences.rs`) and cancelling double
    /// negations.
    pub fn to_nnf(&self) -> Nnf {
        let mut literals: Vec<Literal> = Vec::new();
        let root = nnf_rec(self, false, &mut literals);
        Nnf { literals, root }
    }
}

fn nnf_rec(query: &GarlicQuery, negate: bool, literals: &mut Vec<Literal>) -> Query {
    match query {
        GarlicQuery::Atom(a) => {
            let lit = Literal {
                atom: a.clone(),
                negated: negate,
            };
            let idx = literals.iter().position(|l| *l == lit).unwrap_or_else(|| {
                literals.push(lit);
                literals.len() - 1
            });
            Query::Atom(idx)
        }
        GarlicQuery::And(qs) => {
            let children = qs.iter().map(|q| nnf_rec(q, negate, literals)).collect();
            if negate {
                Query::Or(children) // ¬(A ∧ B) = ¬A ∨ ¬B
            } else {
                Query::And(children)
            }
        }
        GarlicQuery::Or(qs) => {
            let children = qs.iter().map(|q| nnf_rec(q, negate, literals)).collect();
            if negate {
                Query::And(children) // ¬(A ∨ B) = ¬A ∧ ¬B
            } else {
                Query::Or(children)
            }
        }
        GarlicQuery::Not(q) => nnf_rec(q, !negate, literals),
    }
}

/// A compound query as an m-ary [`Aggregation`] over its atoms' grades,
/// under the standard calculus. This is what lets algorithm A₀ evaluate
/// *any* positive Boolean query, not just flat conjunctions — positive
/// min/max combinations are monotone, which is all Theorem 4.2 needs.
#[derive(Debug, Clone)]
pub struct QueryAggregation {
    core: Query,
    positive: bool,
    conjunctive: bool,
}

impl QueryAggregation {
    /// Builds the aggregation for a query over its atom universe.
    pub fn new(query: &GarlicQuery, atoms: &[AtomicQuery]) -> Self {
        QueryAggregation {
            core: query.to_core(atoms),
            positive: query.is_positive(),
            conjunctive: query.as_flat_and().is_some(),
        }
    }

    /// An NNF query as an aggregation over its *literals'* grades — always
    /// monotone (min/max over literal grades only), so A₀ evaluates any
    /// Boolean query once negations are pushed to the sources.
    pub fn nnf(nnf: Nnf) -> Self {
        QueryAggregation {
            conjunctive: matches!(&nnf.root, Query::And(children)
                if children.iter().all(|c| matches!(c, Query::Atom(_)))),
            core: nnf.root,
            positive: true,
        }
    }
}

impl Aggregation for QueryAggregation {
    fn name(&self) -> String {
        "garlic-query(min/max/1-x)".to_owned()
    }

    fn combine(&self, grades: &[Grade]) -> Grade {
        self.core.grade(grades, &Calculus::standard())
    }

    fn is_monotone(&self) -> bool {
        // Positive min/max queries are monotone; negation breaks it.
        self.positive
    }

    fn is_strict(&self, _arity: usize) -> bool {
        // A flat conjunction under min is strict; anything containing an OR
        // (or a negation) is not, in general. Conservative.
        self.conjunctive
    }

    fn zero_annihilates(&self, _arity: usize) -> bool {
        self.conjunctive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garlic_subsys::Target;

    fn q_beatles_red() -> GarlicQuery {
        GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("AlbumColor", Target::text("red")),
        )
    }

    #[test]
    fn atoms_dedupe_and_order() {
        let a = GarlicQuery::atom("Color", Target::text("red"));
        let hard = GarlicQuery::and(a.clone(), GarlicQuery::not(a));
        let atoms = hard.atoms();
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].attribute, "Color");
    }

    #[test]
    fn flat_shapes_detected() {
        let q = q_beatles_red();
        assert_eq!(q.as_flat_and().unwrap().len(), 2);
        assert!(q.as_flat_or().is_none());

        let o = GarlicQuery::or(
            GarlicQuery::atom("Color", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        assert_eq!(o.as_flat_or().unwrap().len(), 2);
        assert!(o.as_flat_and().is_none());

        let nested = GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Who")),
            GarlicQuery::or(
                GarlicQuery::atom("Color", Target::text("red")),
                GarlicQuery::atom("Shape", Target::text("round")),
            ),
        );
        assert!(nested.as_flat_and().is_none());
    }

    #[test]
    fn query_aggregation_evaluates_standard_semantics() {
        let q = q_beatles_red();
        let atoms = q.atoms();
        let agg = QueryAggregation::new(&q, &atoms);
        let g = |v: f64| Grade::new(v).unwrap();
        assert_eq!(agg.combine(&[g(1.0), g(0.7)]), g(0.7)); // min
        assert!(agg.is_monotone());
        assert!(agg.is_strict(2));
        assert!(agg.zero_annihilates(2));
    }

    #[test]
    fn nested_positive_query_monotone_not_strict() {
        let q = GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Who")),
            GarlicQuery::or(
                GarlicQuery::atom("Color", Target::text("red")),
                GarlicQuery::atom("Shape", Target::text("round")),
            ),
        );
        let atoms = q.atoms();
        let agg = QueryAggregation::new(&q, &atoms);
        assert!(agg.is_monotone());
        assert!(!agg.is_strict(3));
        let g = |v: f64| Grade::new(v).unwrap();
        // min(a, max(b, c))
        assert_eq!(agg.combine(&[g(0.8), g(0.3), g(0.6)]), g(0.6));
    }

    #[test]
    fn negated_query_not_monotone() {
        let a = GarlicQuery::atom("Color", Target::text("red"));
        let hard = GarlicQuery::and(a.clone(), GarlicQuery::not(a));
        let atoms = hard.atoms();
        let agg = QueryAggregation::new(&hard, &atoms);
        assert!(!agg.is_monotone());
        // μ(x) = min(g, 1-g).
        assert_eq!(agg.combine(&[Grade::HALF]), Grade::HALF);
        let g = |v: f64| Grade::new(v).unwrap();
        assert!(agg.combine(&[g(0.9)]).approx_eq(g(0.1), 1e-12));
    }

    #[test]
    fn display_is_readable() {
        let s = format!("{}", q_beatles_red());
        assert!(s.contains("AND"));
        assert!(s.contains("Beatles"));
    }

    #[test]
    fn nnf_of_hard_query_has_two_literals_over_one_atom() {
        let red = GarlicQuery::atom("Color", Target::text("red"));
        let hard = GarlicQuery::and(red.clone(), GarlicQuery::not(red));
        let nnf = hard.to_nnf();
        assert_eq!(nnf.literals.len(), 2);
        assert!(!nnf.literals[0].negated);
        assert!(nnf.literals[1].negated);
        assert_eq!(nnf.literals[0].atom, nnf.literals[1].atom);
    }

    #[test]
    fn nnf_pushes_negation_through_de_morgan() {
        // ¬(A ∧ (B ∨ C)) = ¬A ∨ (¬B ∧ ¬C).
        let q = GarlicQuery::not(GarlicQuery::and(
            GarlicQuery::atom("A", Target::text("a")),
            GarlicQuery::or(
                GarlicQuery::atom("B", Target::text("b")),
                GarlicQuery::atom("C", Target::text("c")),
            ),
        ));
        let nnf = q.to_nnf();
        assert_eq!(nnf.literals.len(), 3);
        assert!(nnf.literals.iter().all(|l| l.negated));
        assert!(matches!(nnf.root, Query::Or(_)));
    }

    #[test]
    fn double_negation_cancels() {
        let a = GarlicQuery::atom("A", Target::text("a"));
        let nnf = GarlicQuery::not(GarlicQuery::not(a)).to_nnf();
        assert_eq!(nnf.literals.len(), 1);
        assert!(!nnf.literals[0].negated);
    }

    #[test]
    fn nnf_grading_matches_calculus_grading() {
        // Grade via NNF-over-literal-grades vs the original query under the
        // standard calculus: identical for all atom grades.
        let a = GarlicQuery::atom("A", Target::text("a"));
        let b = GarlicQuery::atom("B", Target::text("b"));
        let q = GarlicQuery::not(GarlicQuery::or(
            GarlicQuery::and(a.clone(), GarlicQuery::not(b.clone())),
            b.clone(),
        ));
        let atoms = q.atoms();
        let nnf = q.to_nnf();
        let core = q.to_core(&atoms);
        let calc = garlic_core::query::Calculus::standard();
        for ga in garlic_agg::grade_grid(6) {
            for gb in garlic_agg::grade_grid(6) {
                let atom_grades = [ga, gb];
                let lit_grades: Vec<Grade> = nnf
                    .literals
                    .iter()
                    .map(|l| {
                        let base = if l.atom == atoms[0] { ga } else { gb };
                        if l.negated {
                            base.complement()
                        } else {
                            base
                        }
                    })
                    .collect();
                // Approximate: the calculus path may complement twice
                // (1 − (1 − x) differs from x by an ulp for some x).
                assert!(nnf
                    .root
                    .grade(&lit_grades, &calc)
                    .approx_eq(core.grade(&atom_grades, &calc), 1e-12));
            }
        }
    }

    #[test]
    fn nnf_aggregation_is_monotone_and_conjunctive_when_flat() {
        let red = GarlicQuery::atom("Color", Target::text("red"));
        let hard = GarlicQuery::and(red.clone(), GarlicQuery::not(red));
        let agg = QueryAggregation::nnf(hard.to_nnf());
        assert!(agg.is_monotone());
        assert!(agg.is_strict(2)); // flat AND over literals
        let g = |v: f64| Grade::new(v).unwrap();
        // combine takes LITERAL grades: (g, 1-g) supplied externally.
        assert_eq!(agg.combine(&[g(0.7), g(0.3)]), g(0.3));
    }
}
