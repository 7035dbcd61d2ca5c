//! The query planner: choosing the evaluation strategy the paper's Section 4
//! catalogue offers.
//!
//! | Query shape | Strategy | Paper reference |
//! |---|---|---|
//! | flat conjunction, one crisp selective atom | filtered ("Beatles") | §4 opening |
//! | flat conjunction, all atoms on one internal-conjunction subsystem, user opted in | internal pushdown | §8 |
//! | flat conjunction | algorithm A₀′ | Thm 4.4 |
//! | flat disjunction | algorithm B₀ | Thm 4.5 |
//! | any other positive query | algorithm A₀ with the compound-query aggregation and a threshold stop | Thm 4.2 |
//! | query with negation | naive scan under the calculus | §4 naive |
//! | query with negation, negation pushdown on | algorithm A₀ with a threshold stop over the NNF literals | §7 |
//! | flat conjunction, request carries weights | algorithm A₀ with the Fagin–Wimmers weighting of min and a threshold stop | §4, \[FW97\] |
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

/// The chosen evaluation strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Algorithm B₀ for a flat disjunction (cost `m·k`).
    B0Max,
    /// Algorithm A₀′ for a flat conjunction under min.
    FaMin,
    /// The filtered strategy: enumerate the crisp atom's match set, random
    /// access the rest. Payload: index of the crisp atom in the atom list.
    Filtered {
        /// Which atom is the crisp filter.
        crisp_index: usize,
    },
    /// Algorithm A₀ with the compound positive query (or, with weights,
    /// the Fagin–Wimmers weighting of min) as its monotone aggregation,
    /// run with a threshold stop: the same answers as A₀, with the sorted
    /// phase ended once `k` lower bounds beat `t(last grades read)` and
    /// only the objects that can still win graded.
    FaGeneric,
    /// Full scan with per-object grading under the standard calculus
    /// (required for non-monotone queries, e.g. any negation).
    NaiveCalculus,
    /// Section 8 internal conjunction pushed down to one subsystem (its own
    /// semantics!).
    InternalPushdown {
        /// The subsystem that evaluates the whole conjunction.
        subsystem: String,
    },
    /// Negation-normal form: negated atoms become reversed complement
    /// sources (the Section 7 observation), making the query monotone in
    /// its literals so A₀ applies — run with the same threshold stop as
    /// [`Strategy::FaGeneric`]. Correct for *any* Boolean query, but
    /// Theorem 7.1 warns the cost can be inherently linear (e.g. `Q ∧ ¬Q`).
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
    /// (negation-normal form + complement sources) and running A₀, instead
    /// of the naive scan. Same answers; the cost advantage depends on the
    /// query (none for `Q ∧ ¬Q`, per Theorem 7.1, but real for e.g.
    /// `A ∧ ¬B` with independent lists).
    pub negation_pushdown: bool,
}

/// An explainable query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The strategy to execute.
    pub strategy: Strategy,
    /// The distinct atoms, in evaluation order.
    pub atoms: Vec<AtomicQuery>,
    /// A middleware-cost estimate (unweighted accesses).
    pub estimated_cost: f64,
    /// Universe size N the plan was made for.
    pub n: usize,
    /// Number of lists the strategy combines: atoms, or literals for
    /// [`Strategy::FaNnf`].
    pub m: usize,
    /// The requested page size.
    pub k: usize,
    /// Size of the crisp match set ([`Strategy::Filtered`] only, else 0).
    pub matches: usize,
    /// The Fagin–Wimmers weights of a weighted conjunction, else empty.
    pub weights: Vec<f64>,
}

impl Plan {
    /// Human-readable explanation (for EXPLAIN output), rendered from the
    /// strategy and the numbers above — a plan travels with every
    /// [`crate::QueryResult`], so it carries no prose of its own.
    pub fn description(&self) -> String {
        let Plan {
            n, m, k, matches, ..
        } = *self;
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
                "flat conjunction of {m} atoms under min: algorithm A0' \
                 (sorted access to the k-match depth, random access only for \
                 the pivot list's candidates, Theorem 4.4); expected cost \
                 O(N^(({m}-1)/{m}) k^(1/{m})) for independent lists"
            ),
            Strategy::B0Max => format!(
                "flat disjunction of {m} atoms under max: algorithm B0 \
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
        writeln!(f, "strategy: {:?}", self.strategy)?;
        writeln!(f, "atoms ({}):", self.atoms.len())?;
        for (i, a) in self.atoms.iter().enumerate() {
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
    let QueryRequest {
        query, k, weights, ..
    } = *request;
    let atoms = query.atoms();
    let n = catalog.universe_size();
    let m = atoms.len();

    // Verify every atom resolves before committing to a strategy.
    for a in &atoms {
        catalog.resolve(&a.attribute)?;
    }
    let chosen = move |strategy, m, estimated_cost| Plan {
        strategy,
        atoms,
        estimated_cost,
        n,
        m,
        k,
        matches: 0,
        weights: weights.to_vec(),
    };

    if !weights.is_empty() {
        if query
            .as_flat_and()
            .is_none_or(|flat| flat.len() != weights.len())
        {
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
        return Ok(chosen(Strategy::FaGeneric, m, fa_cost_estimate(n, m, k)));
    }

    // Non-positive queries cannot be evaluated by A₀ over the raw atom
    // lists (monotonicity fails — and Section 7 shows some such queries are
    // inherently linear). Two options: push negations into the sources
    // (NNF + complement lists, opt-in) or fall back to the naive scan.
    if !query.is_positive() {
        if options.negation_pushdown {
            let lits = query.to_nnf().literals.len();
            return Ok(chosen(Strategy::FaNnf, lits, fa_cost_estimate(n, lits, k)));
        }
        return Ok(chosen(Strategy::NaiveCalculus, m, (m * n) as f64));
    }

    if let Some(flat) = query.as_flat_and() {
        // Section 8 internal pushdown, on request.
        if options.prefer_internal && m >= 2 {
            let first = catalog.resolve(&flat[0].attribute)?;
            let all_same = flat.iter().all(|a| {
                catalog
                    .resolve(&a.attribute)
                    .map(|s| std::sync::Arc::ptr_eq(s, first))
                    .unwrap_or(false)
            });
            if all_same && first.supports_internal_conjunction() {
                let subsystem = first.name().to_owned();
                return Ok(chosen(
                    Strategy::InternalPushdown { subsystem },
                    m,
                    k as f64,
                ));
            }
        }

        // The "Beatles" filtered strategy: a crisp atom whose match set is
        // small enough that probing it beats running A₀′.
        let mut best: Option<(usize, usize)> = None; // (atom index, |S|)
        for (i, a) in flat.iter().enumerate() {
            let sub = catalog.resolve(&a.attribute)?;
            if sub.is_crisp(&a.attribute) {
                if let Some(matches) = sub.estimate_matches(a) {
                    if best.is_none_or(|(_, s)| matches < s) {
                        best = Some((i, matches));
                    }
                }
            }
        }
        if let Some((crisp_index, matches)) = best {
            let filtered_cost = (matches * m) as f64;
            if filtered_cost < fa_cost_estimate(n, m, k) {
                return Ok(Plan {
                    matches,
                    ..chosen(Strategy::Filtered { crisp_index }, m, filtered_cost)
                });
            }
        }

        if m >= 1 {
            return Ok(chosen(Strategy::FaMin, m, fa_cost_estimate(n, m, k)));
        }
    }

    if let Some(flat) = query.as_flat_or() {
        let m = flat.len();
        return Ok(chosen(Strategy::B0Max, m, (m * k) as f64));
    }

    // General positive query: A₀ with the compound aggregation.
    Ok(chosen(Strategy::FaGeneric, m, fa_cost_estimate(n, m, k)))
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
        assert_eq!(
            describe(&negated, 2, pushdown),
            "query contains negation: rewriting to negation-normal form with 2 literal(s); \
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
