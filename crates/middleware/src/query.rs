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

    /// Whether the query as written negates anything (`¬¬A` included).
    pub(crate) fn negates(&self) -> bool {
        match self {
            GarlicQuery::Atom(_) => false,
            GarlicQuery::And(qs) | GarlicQuery::Or(qs) => qs.iter().any(Self::negates),
            GarlicQuery::Not(_) => true,
        }
    }

    /// Lowers to the index-based core algebra, given the atom universe from
    /// [`GarlicQuery::atoms`].
    #[allow(
        clippy::expect_used,
        reason = "private: every caller passes the query's own atoms(), which hold each atom"
    )]
    fn to_core(&self, atoms: &[AtomicQuery]) -> Query {
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

impl Nnf {
    /// The distinct atoms under the literals, in first-occurrence order:
    /// the query's [`GarlicQuery::atoms`], since each atom's first literal
    /// comes from its first occurrence.
    pub fn atoms(&self) -> Vec<&AtomicQuery> {
        let mut out: Vec<&AtomicQuery> = Vec::with_capacity(self.literals.len());
        for lit in &self.literals {
            if !out.contains(&&lit.atom) {
                out.push(&lit.atom);
            }
        }
        out
    }

    /// Whether the root is a conjunction of the literals, each once — a
    /// lone literal is a conjunction of one.
    pub(crate) fn is_flat_and(&self) -> bool {
        match &self.root {
            Query::Atom(_) => true,
            Query::And(children) => !children.is_empty() && self.each_literal_once(children),
            _ => false,
        }
    }

    /// Whether the root is a disjunction of two or more literals, each
    /// once.
    pub(crate) fn is_flat_or(&self) -> bool {
        matches!(&self.root, Query::Or(children)
            if children.len() >= 2 && self.each_literal_once(children))
    }

    /// Every child is a literal and there are as many as literals: each
    /// literal occurs in the root, so each appears once.
    fn each_literal_once(&self, children: &[Query]) -> bool {
        children.len() == self.literals.len()
            && children.iter().all(|c| matches!(c, Query::Atom(_)))
    }
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
    /// Builds the aggregation for a query over its distinct atoms, in
    /// [`GarlicQuery::atoms`] order: monotone only if the query is
    /// negation-free.
    pub fn new(query: &GarlicQuery) -> Self {
        Self::over(query.to_core(&query.atoms()), !query.negates())
    }

    /// An NNF query as an aggregation over its *literals'* grades — always
    /// monotone (min/max over literal grades only), so A₀ evaluates any
    /// Boolean query once negations are pushed to the sources.
    pub fn nnf(nnf: &Nnf) -> Self {
        Self::over(nnf.root.clone(), true)
    }

    fn over(core: Query, positive: bool) -> Self {
        QueryAggregation {
            positive,
            conjunctive: matches!(&core, Query::And(children)
                if children.iter().all(|c| matches!(c, Query::Atom(_)))),
            core,
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
    use rand::{Rng, SeedableRng};

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
        let atom = |a: &str| GarlicQuery::atom(a, Target::text("x"));
        let (and, or, not) = (GarlicQuery::and, GarlicQuery::or, GarlicQuery::not);
        let shape = |q: GarlicQuery| {
            let nnf = q.to_nnf();
            (nnf.is_flat_and(), nnf.is_flat_or())
        };
        assert_eq!(shape(q_beatles_red()), (true, false));
        assert_eq!(shape(atom("A")), (true, false));
        assert_eq!(shape(or(atom("A"), atom("B"))), (false, true));
        // Shapes are read on the NNF: negated literals count like atoms.
        assert_eq!(shape(and(atom("A"), not(atom("B")))), (true, false));
        assert_eq!(shape(not(and(atom("A"), atom("B")))), (false, true));
        assert_eq!(shape(and(atom("A"), not(atom("A")))), (true, false));
        assert_eq!(shape(not(not(atom("A")))), (true, false));
        // A repeated literal, a nested connective or a lone disjunct is
        // no flat shape.
        assert_eq!(shape(and(atom("A"), atom("A"))), (false, false));
        assert_eq!(shape(or(atom("A"), not(not(atom("A"))))), (false, false));
        assert_eq!(
            shape(and(atom("A"), or(atom("B"), atom("C")))),
            (false, false)
        );
        assert_eq!(shape(GarlicQuery::Or(vec![atom("A")])), (false, false));
        assert_eq!(shape(GarlicQuery::And(vec![])), (false, false));
    }

    #[test]
    fn query_aggregation_evaluates_standard_semantics() {
        let q = q_beatles_red();
        let agg = QueryAggregation::new(&q);
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
        let agg = QueryAggregation::new(&q);
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
        let agg = QueryAggregation::new(&hard);
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

    /// Every positive AND/OR tree whose leaves, left to right, are the
    /// given queries (n-ary nodes, both operators at every node).
    fn positive_trees(leaves: &[GarlicQuery]) -> Vec<GarlicQuery> {
        if leaves.len() == 1 {
            return leaves.to_vec();
        }
        // Split into two or more consecutive non-empty runs: each bit of
        // `cuts` marks a cut after that leaf.
        let mut out = Vec::new();
        for cuts in 1..1u32 << (leaves.len() - 1) {
            let mut children: Vec<Vec<GarlicQuery>> = vec![Vec::new()];
            let mut start = 0;
            for end in 1..=leaves.len() {
                if end == leaves.len() || cuts & (1 << (end - 1)) != 0 {
                    let run = positive_trees(&leaves[start..end]);
                    children = children
                        .iter()
                        .flat_map(|prefix| {
                            run.iter().map(move |t| {
                                let mut next = prefix.clone();
                                next.push(t.clone());
                                next
                            })
                        })
                        .collect();
                    start = end;
                }
            }
            for kids in children {
                out.push(GarlicQuery::And(kids.clone()));
                out.push(GarlicQuery::Or(kids));
            }
        }
        out
    }

    /// Every assignment of up to `len` leaves to atoms, up to renaming:
    /// `[0]`, `[0, 0]`, `[0, 1]`, `[0, 0, 0]`, `[0, 0, 1]`, ...
    fn leaf_labelings(len: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![0]];
        for _ in 1..len {
            out = out
                .into_iter()
                .flat_map(|labels: Vec<usize>| {
                    let fresh = labels.iter().max().unwrap() + 1;
                    (0..=fresh).map(move |next| {
                        let mut more = labels.clone();
                        more.push(next);
                        more
                    })
                })
                .collect();
        }
        out
    }

    /// The threshold rule's bounds — and A₀ itself — are sound only for
    /// monotone aggregations. Grid-check the three the middleware hands
    /// it: the compound aggregation of every positive AND/OR tree of up to
    /// four atoms, the NNF aggregation of negated ones, and Fagin–Wimmers
    /// weighted min under random weights.
    #[test]
    fn threshold_rule_aggregations_are_monotone() {
        use garlic_agg::axioms::check_monotone;
        let atom = |i: usize| GarlicQuery::atom(&format!("A{i}"), Target::text("x"));
        let mut checked = 0;
        for len in 1..=4 {
            for labels in leaf_labelings(len) {
                let leaves: Vec<GarlicQuery> = labels.iter().map(|&i| atom(i)).collect();
                for tree in positive_trees(&leaves) {
                    let atoms = tree.atoms();
                    let agg = QueryAggregation::new(&tree);
                    check_monotone(&agg, atoms.len(), 3).unwrap_or_else(|e| panic!("{tree}: {e}"));
                    for negated in [
                        GarlicQuery::not(tree.clone()),
                        GarlicQuery::and(GarlicQuery::not(atom(0)), tree.clone()),
                    ] {
                        let nnf = negated.to_nnf();
                        let arity = nnf.literals.len();
                        check_monotone(&QueryAggregation::nnf(&nnf), arity, 3)
                            .unwrap_or_else(|e| panic!("NNF of {negated}: {e}"));
                    }
                    checked += 1;
                }
            }
        }
        // 1 + 2·2 + 10·5 + 62·15 trees: every shape, every atom sharing.
        assert_eq!(checked, 985);

        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for m in 1..=4 {
            for _ in 0..8 {
                let mut weights: Vec<f64> = (0..m)
                    .map(|_| rng.gen_range(0..4) as f64 * rng.gen::<f64>())
                    .collect();
                if weights.iter().sum::<f64>() == 0.0 {
                    weights[0] = 1.0;
                }
                let fw = garlic_agg::weighted::FaginWimmers::new(
                    garlic_agg::iterated::min_agg(),
                    &weights,
                );
                check_monotone(&fw, m, 4).unwrap_or_else(|e| panic!("{weights:?}: {e}"));
            }
        }

        // The check has teeth: the raw aggregation of a negated query is
        // rejected.
        let hard = GarlicQuery::and(atom(0), GarlicQuery::not(atom(0)));
        assert!(check_monotone(&QueryAggregation::new(&hard), 1, 3).is_err());
    }

    #[test]
    fn nnf_aggregation_is_monotone_and_conjunctive_when_flat() {
        let red = GarlicQuery::atom("Color", Target::text("red"));
        let hard = GarlicQuery::and(red.clone(), GarlicQuery::not(red));
        let agg = QueryAggregation::nnf(&hard.to_nnf());
        assert!(agg.is_monotone());
        assert!(agg.is_strict(2)); // flat AND over literals
        let g = |v: f64| Grade::new(v).unwrap();
        // combine takes LITERAL grades: (g, 1-g) supplied externally.
        assert_eq!(agg.combine(&[g(0.7), g(0.3)]), g(0.3));
    }
}
