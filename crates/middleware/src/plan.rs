//! The query planner: choosing the evaluation strategy the paper's Section 4
//! catalogue offers.
//!
//! The planner reads each query once, in negation-normal form
//! ([`GarlicQuery::to_nnf`](crate::GarlicQuery::to_nnf)): its distinct
//! literals are the lists a strategy reads — a negated one through its
//! atom's list reversed with complemented grades, Section 7's observation
//! — and the shape of the NNF root picks the rule. Negation-free queries
//! have one literal per atom, so the table below reads the same for them
//! with "atom" for "literal".
//!
//! | Query shape (of the NNF) | Strategy | Paper reference |
//! |---|---|---|
//! | flat conjunction, one positive crisp selective literal | filtered ("Beatles") | §4 opening |
//! | flat conjunction of atoms, all on one internal-conjunction subsystem, user opted in | internal pushdown | §8 |
//! | flat conjunction | algorithm A₀′ | Thm 4.4 |
//! | flat disjunction | algorithm B₀ | Thm 4.5 |
//! | any other positive query | algorithm A₀ with the compound-query aggregation and a threshold stop | Thm 4.2 |
//! | any other query with negation | algorithm A₀ with a threshold stop over the NNF literals | §7 |
//! | flat conjunction of atoms, request carries weights | algorithm A₀ with the Fagin–Wimmers weighting of min and a threshold stop | §4, \[FW97\] |
//!
//! A negated literal is read through a complement list only with
//! [`PlannerOptions::negation_pushdown`] on; with it off (the default) a
//! query with negation takes the naive scan under the calculus (§4 naive),
//! whatever its shape.
//!
//! "A threshold stop" is
//! [`EngineSession::threshold`](garlic_core::EngineSession::threshold): A₀'s
//! answers, entry for entry, from a sorted phase that ends once `k`
//! objects' lower bounds beat `t` of the last grades read, grading only
//! the objects that can still reach the `k`-th.

use garlic_subsys::AtomicQuery;

use crate::catalog::Catalog;
use crate::error::MiddlewareError;
use crate::exec::QueryRequest;
use crate::query::Nnf;

/// The chosen evaluation strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Algorithm B₀ for a flat disjunction (cost `m·k`): of atoms, or with
    /// negation pushdown on, of literals.
    B0Max,
    /// Algorithm A₀′ for a flat conjunction under min: of atoms, or with
    /// negation pushdown on, of literals.
    FaMin,
    /// The filtered strategy: enumerate the crisp literal's match set,
    /// random access the rest. Payload: index of the crisp literal in the
    /// literal list.
    Filtered {
        /// Which literal is the crisp filter.
        crisp_index: usize,
    },
    /// Algorithm A₀ with the compound positive query (or, with weights,
    /// the Fagin–Wimmers weighting of min) as its monotone aggregation,
    /// run with a threshold stop: the same answers as A₀, with the sorted
    /// phase ended once `k` lower bounds beat `t(last grades read)` and
    /// only the objects that can still win graded.
    FaGeneric,
    /// Full scan of the atoms' lists with per-object grading under the
    /// standard calculus: any query with negation, negation pushdown off.
    NaiveCalculus,
    /// Section 8 internal conjunction pushed down to one subsystem (its own
    /// semantics!).
    InternalPushdown {
        /// The subsystem that evaluates the whole conjunction.
        subsystem: String,
    },
    /// Any other negated query, negation pushdown on: the NNF is monotone
    /// in its literals, negated ones read as reversed complement lists
    /// (the Section 7 observation), so A₀ applies — run with the same
    /// threshold stop as [`Strategy::FaGeneric`]. Theorem 7.1 warns the
    /// cost can be inherently linear (e.g. `Q ∧ ¬Q`).
    FaNnf,
}

/// Planner tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerOptions {
    /// Request Section 8 internal conjunction when one subsystem serves all
    /// atoms (trades Garlic semantics for efficiency — "the user could
    /// request an internal conjunction for the sake of efficiency").
    pub prefer_internal: bool,
    /// Evaluate negated queries by pushing negations to the sources
    /// (negation-normal form + complement sources) and running the rule of
    /// the NNF's shape, instead of the naive scan. Same answers; the cost
    /// advantage depends on the query (none for `Q ∧ ¬Q`, per Theorem 7.1,
    /// but real for e.g. `A ∧ ¬B` with independent lists).
    pub negation_pushdown: bool,
}

/// An explainable query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The strategy to execute.
    pub strategy: Strategy,
    /// The query in negation-normal form, computed once by the planner:
    /// its literals are the lists every strategy but the naive scan reads,
    /// in source order, and [`Nnf::atoms`] the ones the scan reads. Boxed,
    /// because a plan travels with every [`crate::QueryResult`].
    pub nnf: Box<Nnf>,
    /// A middleware-cost estimate (unweighted accesses).
    pub estimated_cost: f64,
    /// Universe size N the plan was made for.
    pub n: usize,
    /// Number of lists the strategy combines: literals, or atoms for
    /// [`Strategy::NaiveCalculus`].
    pub m: usize,
    /// The requested page size.
    pub k: usize,
    /// Size of the crisp match set ([`Strategy::Filtered`] only, else 0).
    pub matches: usize,
    /// The Fagin–Wimmers weights of a weighted conjunction, else empty.
    pub weights: Vec<f64>,
}

impl Plan {
    /// The lists the strategy reads, in source order, each as its atom and
    /// whether it is complemented: one per NNF literal, or one per atom for
    /// the naive scan, which grades the query under the calculus.
    pub(crate) fn lists(&self) -> Vec<(&AtomicQuery, bool)> {
        match self.strategy {
            Strategy::NaiveCalculus => self.nnf.atoms().into_iter().map(|a| (a, false)).collect(),
            _ => (self.nnf.literals.iter())
                .map(|l| (&l.atom, l.negated))
                .collect(),
        }
    }

    /// Each list's name, as EXPLAIN shows it: its attribute, `¬attr` for
    /// a complemented one.
    pub(crate) fn labels(&self) -> Vec<String> {
        (self.lists().into_iter())
            .map(|(atom, negated)| format!("{}{}", if negated { "¬" } else { "" }, atom.attribute))
            .collect()
    }

    /// Human-readable explanation (for EXPLAIN output), rendered from the
    /// strategy and the numbers above — a plan travels with every
    /// [`crate::QueryResult`], so it carries no prose of its own.
    pub fn description(&self) -> String {
        let Plan {
            n, m, k, matches, ..
        } = *self;
        // A negation-free plan names its lists "atoms"; one with a negated
        // literal names them.
        let operands = if self.nnf.literals.iter().any(|l| l.negated) {
            format!(
                "{m} literals ({}; ¬ reads the atom's list in reverse, \
                 grades complemented)",
                self.labels().join(", ")
            )
        } else {
            format!("{m} atoms")
        };
        match &self.strategy {
            Strategy::FaNnf => format!(
                "query contains negation: rewriting to negation-normal form \
                 with {m} literal(s); negated literals read their atom's \
                 list in reverse with complemented grades (Section 7's \
                 π_notQ observation), restoring monotonicity so A0 applies, \
                 with a threshold stop"
            ),
            Strategy::NaiveCalculus => format!(
                "query contains negation: not monotone, falling back to the naive \
                 linear scan (Section 7 shows e.g. Q AND NOT Q is Θ(N), so no \
                 sublinear strategy exists in general); scanning {m} list(s) of \
                 {n} objects"
            ),
            Strategy::InternalPushdown { subsystem } => format!(
                "all {m} conjuncts served by {subsystem}, which evaluates the \
                 conjunction internally under ITS OWN semantics \
                 (Section 8): expect rankings to differ from Garlic's \
                 min rule; cost is k sorted accesses on one fused list"
            ),
            Strategy::Filtered { crisp_index } => format!(
                "conjunct [{crisp_index}] is crisp with only {matches} \
                 matches: enumerate its match set and random-access the \
                 other {} conjunct(s) for just those objects (the \
                 Section 4 'Beatles' strategy)",
                m - 1
            ),
            Strategy::FaMin => format!(
                "flat conjunction of {operands} under min: algorithm A0' \
                 (sorted access to the k-match depth, random access only for \
                 the pivot list's candidates, Theorem 4.4); expected cost \
                 O(N^(({m}-1)/{m}) k^(1/{m})) for independent lists"
            ),
            Strategy::B0Max => format!(
                "flat disjunction of {operands} under max: algorithm B0 \
                 (top k of each list, no random access, Theorem 4.5); cost \
                 m*k = {} independent of N",
                m * k
            ),
            Strategy::FaGeneric if !self.weights.is_empty() => format!(
                "weighted conjunction of {m} atoms with weights {:?} \
                 under the Fagin-Wimmers rule (FW97); monotone, evaluated by A0 \
                 with a threshold stop",
                self.weights
            ),
            Strategy::FaGeneric => format!(
                "positive compound query over {m} atoms: monotone under the \
                 standard calculus, so algorithm A0 applies (Theorem 4.2) with \
                 the query itself as the aggregation function; sorted access \
                 stops once k objects' lower bounds beat t(last grades read), \
                 and only objects that can still reach the k-th are graded"
            ),
        }
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let atoms = self.nnf.atoms();
        writeln!(f, "strategy: {:?}", self.strategy)?;
        writeln!(f, "atoms ({}):", atoms.len())?;
        for (i, a) in atoms.iter().enumerate() {
            writeln!(f, "  [{i}] {a}")?;
        }
        writeln!(f, "estimated cost: {:.1}", self.estimated_cost)?;
        write!(f, "{}", self.description())
    }
}

/// The Theorem 5.3 cost scale, used for estimates.
fn fa_cost_estimate(n: usize, m: usize, k: usize) -> f64 {
    let (n, m, k) = (n as f64, m as f64, k as f64);
    // Sorted phase ≈ m·T plus a comparable random phase.
    2.0 * m * n.powf((m - 1.0) / m) * k.powf(1.0 / m)
}

/// Plans a top-k evaluation of the request's query against the catalog.
///
/// Non-empty [`QueryRequest::weights`] ask for a *weighted* conjunction
/// (Fagin–Wimmers, \[FW97\]): the query must be a flat conjunction of
/// distinct atoms with one finite, non-negative weight per atom and a
/// positive sum. The weighting of min is monotone, so the plan is
/// algorithm A₀ over the conjuncts as written, with `weights` selecting
/// the aggregation.
pub fn plan(
    catalog: &Catalog,
    request: &QueryRequest<'_>,
    options: PlannerOptions,
) -> Result<Plan, MiddlewareError> {
    let nnf = request.query.to_nnf();
    // Verify every atom resolves before committing to a strategy.
    for lit in &nnf.literals {
        catalog.resolve(&lit.atom.attribute)?;
    }
    let (strategy, estimated_cost, matches) = choose(catalog, request, &nnf, options)?;
    // The number of lists: see `Plan::lists`.
    let m = match strategy {
        Strategy::NaiveCalculus => nnf.atoms().len(),
        _ => nnf.literals.len(),
    };
    Ok(Plan {
        strategy,
        nnf: Box::new(nnf),
        estimated_cost,
        n: catalog.universe_size(),
        m,
        k: request.k,
        matches,
        weights: request.weights.to_vec(),
    })
}

/// The strategy for the request's NNF, its cost estimate and the crisp
/// match-set size ([`Strategy::Filtered`] only, else 0).
fn choose(
    catalog: &Catalog,
    request: &QueryRequest<'_>,
    nnf: &Nnf,
    options: PlannerOptions,
) -> Result<(Strategy, f64, usize), MiddlewareError> {
    let QueryRequest {
        query, k, weights, ..
    } = *request;
    let n = catalog.universe_size();
    let literals = &nnf.literals;
    let m = literals.len();
    let positive = literals.iter().all(|l| !l.negated);
    let fa_cost = fa_cost_estimate(n, m, k);

    if !weights.is_empty() {
        if !positive || !nnf.is_flat_and() || m != weights.len() {
            return Err(MiddlewareError::Unsupported {
                reason: "weights need a flat conjunction of distinct atoms, one weight per atom"
                    .into(),
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) || weights.iter().sum::<f64>() <= 0.0
        {
            return Err(MiddlewareError::Unsupported {
                reason: "weights must be non-negative, finite, with a positive sum".into(),
            });
        }
        return Ok((Strategy::FaGeneric, fa_cost, 0));
    }

    // A query that negates anything as written is not monotone in its
    // atoms' grades (and Section 7 shows some are inherently linear):
    // unless its negations are pushed to the sources, the naive scan
    // grades it under the calculus as written.
    if query.negates() && !options.negation_pushdown {
        let atoms = nnf.atoms().len();
        return Ok((Strategy::NaiveCalculus, (atoms * n) as f64, 0));
    }

    if nnf.is_flat_and() {
        // Section 8 internal pushdown, on request.
        if positive && options.prefer_internal && m >= 2 {
            let first = catalog.resolve(&literals[0].atom.attribute)?;
            let all_same = literals.iter().all(|l| {
                catalog
                    .resolve(&l.atom.attribute)
                    .map(|s| std::sync::Arc::ptr_eq(s, first))
                    .unwrap_or(false)
            });
            if all_same && first.supports_internal_conjunction() {
                let subsystem = first.name().to_owned();
                return Ok((Strategy::InternalPushdown { subsystem }, k as f64, 0));
            }
        }

        // The "Beatles" filtered strategy: a positive crisp literal whose
        // match set is small enough that probing it beats running A₀′.
        let mut best: Option<(usize, usize)> = None; // (literal index, |S|)
        for (i, lit) in literals.iter().enumerate().filter(|(_, l)| !l.negated) {
            let sub = catalog.resolve(&lit.atom.attribute)?;
            if sub.is_crisp(&lit.atom.attribute) {
                if let Some(matches) = sub.estimate_matches(&lit.atom) {
                    if best.is_none_or(|(_, s)| matches < s) {
                        best = Some((i, matches));
                    }
                }
            }
        }
        if let Some((crisp_index, matches)) = best {
            let filtered_cost = (matches * m) as f64;
            if filtered_cost < fa_cost {
                return Ok((Strategy::Filtered { crisp_index }, filtered_cost, matches));
            }
        }
        return Ok((Strategy::FaMin, fa_cost, 0));
    }

    if nnf.is_flat_or() {
        return Ok((Strategy::B0Max, (m * k) as f64, 0));
    }

    // Any other query: A₀ with the compound aggregation over the literals.
    let strategy = if positive {
        Strategy::FaGeneric
    } else {
        Strategy::FaNnf
    };
    Ok((strategy, fa_cost, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::GarlicQuery;
    use garlic_subsys::cd_store::demo_subsystems;
    use garlic_subsys::Target;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        rel: garlic_subsys::RelationalStore,
        qbic: garlic_subsys::QbicStore,
        text: garlic_subsys::TextStore,
    }

    impl Fixture {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(0);
            let (rel, qbic, text) = demo_subsystems(&mut rng);
            Fixture { rel, qbic, text }
        }

        fn catalog(&self) -> Catalog {
            let mut cat = Catalog::new();
            cat.register(self.rel.clone()).unwrap();
            cat.register(self.qbic.clone()).unwrap();
            cat.register(self.text.clone()).unwrap();
            cat
        }
    }

    /// Plans the plain request for `q`.
    fn plan_of(
        catalog: &Catalog,
        q: &GarlicQuery,
        k: usize,
        options: PlannerOptions,
    ) -> Result<Plan, MiddlewareError> {
        plan(catalog, &QueryRequest::new(q, k), options)
    }

    fn beatles_red() -> GarlicQuery {
        GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("AlbumColor", Target::text("red")),
        )
    }

    #[test]
    fn beatles_query_plans_filtered() {
        let f = Fixture::new();
        let p = plan_of(&f.catalog(), &beatles_red(), 3, PlannerOptions::default()).unwrap();
        assert_eq!(p.strategy, Strategy::Filtered { crisp_index: 0 });
        assert!(p.description().contains("Beatles"));
    }

    #[test]
    fn fuzzy_conjunction_plans_fa_min() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let p = plan_of(&f.catalog(), &q, 3, PlannerOptions::default()).unwrap();
        assert_eq!(p.strategy, Strategy::FaMin);
    }

    #[test]
    fn disjunction_plans_b0() {
        let f = Fixture::new();
        let q = GarlicQuery::or(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let p = plan_of(&f.catalog(), &q, 3, PlannerOptions::default()).unwrap();
        assert_eq!(p.strategy, Strategy::B0Max);
        assert_eq!(p.estimated_cost, 6.0);
    }

    #[test]
    fn negation_plans_naive() {
        let f = Fixture::new();
        let a = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let q = GarlicQuery::and(a.clone(), GarlicQuery::not(a));
        let p = plan_of(&f.catalog(), &q, 1, PlannerOptions::default()).unwrap();
        assert_eq!(p.strategy, Strategy::NaiveCalculus);
    }

    /// With pushdown on, shapes are read on the NNF and `m` counts
    /// literals; with it off, any written negation scans the atoms.
    #[test]
    fn shapes_are_read_on_the_nnf() {
        let f = Fixture::new();
        let cat = f.catalog();
        let (and, or, not) = (GarlicQuery::and, GarlicQuery::or, GarlicQuery::not);
        let color = || GarlicQuery::atom("AlbumColor", Target::text("red"));
        let shape = || GarlicQuery::atom("Shape", Target::text("round"));
        let beatles = || GarlicQuery::atom("Artist", Target::text("Beatles"));
        let pushdown = PlannerOptions {
            negation_pushdown: true,
            prefer_internal: true,
        };
        let planned = |q: &GarlicQuery, opts| {
            let p = plan_of(&cat, q, 3, opts).unwrap();
            (p.strategy, p.m)
        };
        for (q, want) in [
            (and(color(), not(shape())), (Strategy::FaMin, 2)),
            (and(color(), not(color())), (Strategy::FaMin, 2)),
            (not(color()), (Strategy::FaMin, 1)),
            (or(not(color()), not(shape())), (Strategy::B0Max, 2)),
            (not(and(color(), shape())), (Strategy::B0Max, 2)),
            (
                and(beatles(), not(color())),
                (Strategy::Filtered { crisp_index: 0 }, 2),
            ),
            (
                and(color(), or(shape(), not(beatles()))),
                (Strategy::FaNnf, 3),
            ),
            (
                not(not(and(color(), or(shape(), beatles())))),
                (Strategy::FaGeneric, 3),
            ),
            // A negated crisp literal filters nothing, and internal
            // pushdown takes atoms only (both lists below are on the
            // QBIC store, which offers it).
            (and(not(beatles()), color()), (Strategy::FaMin, 2)),
            (not(or(color(), shape())), (Strategy::FaMin, 2)),
        ] {
            assert_eq!(planned(&q, pushdown), want, "{q}");
        }
        for q in [and(color(), not(color())), not(not(color()))] {
            assert_eq!(
                planned(&q, PlannerOptions::default()),
                (Strategy::NaiveCalculus, 1),
                "{q}"
            );
        }
    }

    #[test]
    fn nested_positive_plans_fa_generic() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::or(
                GarlicQuery::atom("Shape", Target::text("round")),
                GarlicQuery::atom("Review", Target::terms(&["rock"])),
            ),
        );
        let p = plan_of(&f.catalog(), &q, 2, PlannerOptions::default()).unwrap();
        assert_eq!(p.strategy, Strategy::FaGeneric);
    }

    #[test]
    fn internal_pushdown_when_requested_and_colocated() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let opts = PlannerOptions {
            prefer_internal: true,
            ..Default::default()
        };
        let p = plan_of(&f.catalog(), &q, 3, opts).unwrap();
        assert_eq!(
            p.strategy,
            Strategy::InternalPushdown {
                subsystem: "cd_qbic".into()
            }
        );
    }

    #[test]
    fn internal_pushdown_not_possible_across_subsystems() {
        let f = Fixture::new();
        let opts = PlannerOptions {
            prefer_internal: true,
            ..Default::default()
        };
        // Artist lives in the relational store: cannot push down.
        let p = plan_of(&f.catalog(), &beatles_red(), 3, opts).unwrap();
        assert_ne!(
            std::mem::discriminant(&p.strategy),
            std::mem::discriminant(&Strategy::InternalPushdown {
                subsystem: String::new()
            })
        );
    }

    /// `Plan::description` is rendered on demand from the strategy and the
    /// plan's scalars; this pins the text of every strategy (the weighted
    /// conjunction's is pinned where it is executed, in `exec.rs`).
    #[test]
    fn description_text_is_pinned_per_strategy() {
        let f = Fixture::new();
        let cat = f.catalog();
        let n = cat.universe_size();
        let color = || GarlicQuery::atom("AlbumColor", Target::text("red"));
        let shape = || GarlicQuery::atom("Shape", Target::text("round"));
        let review = || GarlicQuery::atom("Review", Target::terms(&["rock"]));
        let fuzzy_and = GarlicQuery::and(color(), shape());
        let negated = GarlicQuery::and(color(), GarlicQuery::not(shape()));
        let internal = PlannerOptions {
            prefer_internal: true,
            ..Default::default()
        };
        let pushdown = PlannerOptions {
            negation_pushdown: true,
            ..Default::default()
        };
        let describe = |q: &GarlicQuery, k, opts| plan_of(&cat, q, k, opts).unwrap().description();

        let filtered = plan_of(&cat, &beatles_red(), 3, PlannerOptions::default()).unwrap();
        assert_eq!(
            filtered.description(),
            format!(
                "conjunct [0] is crisp with only {} matches: enumerate its match set and \
                 random-access the other 1 conjunct(s) for just those objects (the Section 4 \
                 'Beatles' strategy)",
                filtered.matches
            )
        );
        assert!(filtered.matches > 0);
        assert_eq!(
            describe(&fuzzy_and, 3, PlannerOptions::default()),
            "flat conjunction of 2 atoms under min: algorithm A0' (sorted access to the \
             k-match depth, random access only for the pivot list's candidates, Theorem 4.4); \
             expected cost O(N^((2-1)/2) k^(1/2)) for independent lists"
        );
        assert_eq!(
            describe(
                &GarlicQuery::or(color(), shape()),
                7,
                PlannerOptions::default()
            ),
            "flat disjunction of 2 atoms under max: algorithm B0 (top k of each list, no \
             random access, Theorem 4.5); cost m*k = 14 independent of N"
        );
        assert_eq!(
            describe(
                &GarlicQuery::and(color(), GarlicQuery::or(shape(), review())),
                2,
                PlannerOptions::default()
            ),
            "positive compound query over 3 atoms: monotone under the standard calculus, so \
             algorithm A0 applies (Theorem 4.2) with the query itself as the aggregation \
             function; sorted access stops once k objects' lower bounds beat t(last grades \
             read), and only objects that can still reach the k-th are graded"
        );
        assert_eq!(
            describe(&negated, 2, PlannerOptions::default()),
            format!(
                "query contains negation: not monotone, falling back to the naive linear scan \
                 (Section 7 shows e.g. Q AND NOT Q is Θ(N), so no sublinear strategy exists in \
                 general); scanning 2 list(s) of {n} objects"
            )
        );
        // With pushdown on, a flat shape of literals takes A0' or B0, and
        // the text lists the literals; any other negated query is FaNnf.
        assert_eq!(
            describe(&negated, 2, pushdown),
            "flat conjunction of 2 literals (AlbumColor, ¬Shape; ¬ reads the atom's list in \
             reverse, grades complemented) under min: algorithm A0' (sorted access to the \
             k-match depth, random access only for the pivot list's candidates, Theorem 4.4); \
             expected cost O(N^((2-1)/2) k^(1/2)) for independent lists"
        );
        assert_eq!(
            describe(
                &GarlicQuery::or(GarlicQuery::not(color()), GarlicQuery::not(shape())),
                7,
                pushdown
            ),
            "flat disjunction of 2 literals (¬AlbumColor, ¬Shape; ¬ reads the atom's list in \
             reverse, grades complemented) under max: algorithm B0 (top k of each list, no \
             random access, Theorem 4.5); cost m*k = 14 independent of N"
        );
        assert_eq!(
            describe(
                &GarlicQuery::and(
                    color(),
                    GarlicQuery::or(shape(), GarlicQuery::not(review()))
                ),
                2,
                pushdown
            ),
            "query contains negation: rewriting to negation-normal form with 3 literal(s); \
             negated literals read their atom's list in reverse with complemented grades \
             (Section 7's π_notQ observation), restoring monotonicity so A0 applies, with a \
             threshold stop"
        );
        assert_eq!(
            describe(&fuzzy_and, 3, internal),
            "all 2 conjuncts served by cd_qbic, which evaluates the conjunction internally \
             under ITS OWN semantics (Section 8): expect rankings to differ from Garlic's min \
             rule; cost is k sorted accesses on one fused list"
        );
        // EXPLAIN's `Display` ends with the same text.
        assert!(filtered.to_string().ends_with(&filtered.description()));
    }

    #[test]
    fn unknown_attribute_fails_planning() {
        let f = Fixture::new();
        let q = GarlicQuery::atom("Tempo", Target::text("fast"));
        assert!(matches!(
            plan_of(&f.catalog(), &q, 1, PlannerOptions::default()),
            Err(MiddlewareError::UnboundAttribute { .. })
        ));
    }
}
