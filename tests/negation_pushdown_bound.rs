//! Negation pushdown's worst case, pinned.
//!
//! With negations pushed to the sources, a query of `m` literals is read
//! through `m` lists (a negated literal through its atom's list reversed
//! with complemented grades, Section 7). Whatever rule the planner picks
//! for the NNF's shape, a session bills at most `(2m−1)·N`: sorted access
//! never passes depth `N` (`S ≤ m·N`), and each (object, list) pair is
//! probed at most once, for an object that already has a grade from
//! sorted access (`R ≤ (m−1)·N`). That is under twice the naive scan's
//! `m·N`, and Theorem 7.1's hard query `Q ∧ ¬Q` shows the linear order is
//! unavoidable. The property pages pushdown sessions over four workloads —
//! the hard query (ledger row e06), Lemma 5.1's setting, correlated lists
//! (ρ ∈ [−1, 1]) and random negated query shapes — and holds every page
//! to the scan's answers and the cumulative bill to the bound.

mod support;

use std::collections::{HashMap, HashSet};

use garlic::core::{ComplementSource, EngineSession};
use garlic::middleware::{
    Garlic, GarlicQuery, PlannerOptions, QueryAggregation, QueryRequest, Strategy,
};
use garlic::workload::correlation::{hard_query_database, latent_database};
use garlic::workload::lemma51::Lemma51Params;
use garlic::workload::scoring::ScoringDatabase;
use garlic::workload::seeded_rng;
use garlic::{AccessStats, Grade, ObjectId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use support::{crisp_list, garlic_over, pages_strategy, Db, ATTRS};

/// Case count: 16 locally; CI runs the property once more by name with
/// `PROPTEST_CASES` raised.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn atom(attr: &str) -> GarlicQuery {
    GarlicQuery::atom(attr, garlic::subsys::Target::text("t"))
}

/// The negated flat shapes over `A` and `B`: conjunctions and
/// disjunctions of literals, as written and behind De Morgan.
fn flat_negated(pick: usize) -> GarlicQuery {
    let (and, or, not) = (GarlicQuery::and, GarlicQuery::or, GarlicQuery::not);
    match pick % 4 {
        0 => and(atom("A"), not(atom("B"))),
        1 => or(not(atom("A")), not(atom("B"))),
        2 => not(or(atom("A"), atom("B"))),
        _ => or(atom("A"), not(atom("B"))),
    }
}

/// A random Boolean query over [`ATTRS`] of depth at most `depth`, with
/// at least one negated literal in its NNF.
fn random_negated(rng: &mut StdRng, depth: usize) -> GarlicQuery {
    fn tree(rng: &mut StdRng, depth: usize) -> GarlicQuery {
        let op = if depth == 0 { 0 } else { rng.gen_range(0..4) };
        match op {
            0 => atom(ATTRS[rng.gen_range(0..ATTRS.len())]),
            1 => GarlicQuery::not(tree(rng, depth - 1)),
            _ => {
                let children = (0..rng.gen_range(1..=3))
                    .map(|_| tree(rng, depth - 1))
                    .collect();
                if op == 2 {
                    GarlicQuery::And(children)
                } else {
                    GarlicQuery::Or(children)
                }
            }
        }
    }
    let q = tree(rng, depth);
    if q.to_nnf().literals.iter().any(|l| l.negated) {
        q
    } else {
        GarlicQuery::not(q)
    }
}

/// Per-object grades of list `i` of a workload database.
fn grades(db: &ScoringDatabase, i: usize) -> Vec<Grade> {
    (0..db.n() as u64)
        .map(|x| db.lists()[i].grade_of(ObjectId(x)).unwrap())
        .collect()
}

/// Lemma 5.1's setting over `n` objects: list `A` ranks a fixed set `B1`
/// of `l1 = ⌈N/10⌉` objects first, list `B` a uniformly random set `B2`
/// of `l2` objects; their top sets meet in about `l1·l2/N` objects.
fn lemma51(n: usize, rng: &mut StdRng) -> [Vec<Grade>; 2] {
    let p = Lemma51Params::new(n, n.div_ceil(10), rng.gen_range(1..=n));
    assert!(p.l1 <= p.n && p.l2 <= p.n);
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    let b2: HashSet<usize> = ids[..p.l2].iter().copied().collect();
    let mut list = |top: &dyn Fn(usize) -> bool| -> Vec<Grade> {
        (0..n)
            .map(|x| {
                let g: f64 = rng.gen_range(0.0..0.5);
                Grade::clamped(if top(x) { 0.5 + g } else { g })
            })
            .collect()
    };
    [list(&|x| x < p.l1), list(&|x| b2.contains(&x))]
}

/// One drawn workload: the database and the negated query to page.
fn workload(kind: usize, n: usize, seed: u64, rho: f64, pick: usize) -> (Db, GarlicQuery) {
    let mut rng = seeded_rng(seed);
    // `C` quantised, `K` crisp: the attributes the flat shapes leave out.
    let rest = |rng: &mut StdRng| {
        let c = (0..n)
            .map(|_| Grade::clamped(f64::from(rng.gen_range(0..=12u8)) / 12.0))
            .collect();
        (c, crisp_list(rng, n, n.div_ceil(16)))
    };
    match kind % 4 {
        // e06: μ_Q and 1 − μ_Q, distinct grades; the query is Q ∧ ¬Q.
        0 => {
            let db = hard_query_database(n, &mut rng);
            let (c, k) = rest(&mut rng);
            let query = GarlicQuery::and(atom("A"), GarlicQuery::not(atom("A")));
            (Db::dense([grades(&db, 0), grades(&db, 1), c, k]), query)
        }
        1 => {
            let [a, b] = lemma51(n, &mut rng);
            let (c, k) = rest(&mut rng);
            (Db::dense([a, b, c, k]), flat_negated(pick))
        }
        2 => {
            let db = latent_database(2, n, rho, &mut rng);
            let (c, k) = rest(&mut rng);
            (
                Db::dense([grades(&db, 0), grades(&db, 1), c, k]),
                flat_negated(pick),
            )
        }
        _ => {
            let query = random_negated(&mut rng, 3);
            (Db::quantised(n, seed), query)
        }
    }
}

/// Pages `query` on one session of `garlic`: each page's entries and the
/// bill so far.
fn paged(
    garlic: &Garlic,
    query: &GarlicQuery,
    pages: &[usize],
) -> Vec<(Vec<(ObjectId, Grade)>, AccessStats)> {
    let request = QueryRequest::new(query, pages.iter().sum());
    let mut session = garlic.open_session(&request).unwrap();
    pages
        .iter()
        .map(|&k| {
            let page = session.next_batch(k).unwrap();
            let entries = page.entries().iter().map(|e| (e.object, e.grade)).collect();
            (entries, session.stats())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every page of a pushdown session grades like the scan's, within
    /// 1e-12 (a complemented grade is `1 − g` whichever way it is
    /// reached), returns each object once at its own grade, and the bill
    /// so far stays within `(2m−1)·N` for `m` literals.
    #[test]
    fn pushdown_sessions_answer_like_the_scan_within_the_literal_bound(
        kind in 0usize..4,
        n in 8usize..120,
        seed in 0u64..1_000_000,
        rho in -1.0f64..=1.0,
        pick in 0usize..4,
        pages in pages_strategy(),
    ) {
        let (db, query) = workload(kind, n, seed, rho, pick);
        let memory = db.memory();
        let scan = garlic_over(&memory, PlannerOptions::default());
        let pushdown = garlic_over(
            &memory,
            PlannerOptions { negation_pushdown: true, ..Default::default() },
        );
        let plan = pushdown.plan_for(&query, 1).unwrap();
        prop_assert!(scan.plan_for(&query, 1).unwrap().strategy == Strategy::NaiveCalculus);
        let m = plan.nnf.literals.len();
        prop_assert_eq!(plan.m, m);
        let bound = (2 * m as u64 - 1) * n as u64;

        // Every object's grade under the calculus, from one full scan.
        let truth: HashMap<ObjectId, Grade> = scan
            .top_k(&query, n)
            .unwrap()
            .answers
            .entries()
            .iter()
            .map(|e| (e.object, e.grade))
            .collect();
        let want = paged(&scan, &query, &pages);
        let got = paged(&pushdown, &query, &pages);
        let mut seen = HashSet::new();
        for (i, ((got, bill), (want, _))) in got.iter().zip(&want).enumerate() {
            let at = format!("{query} ({:?}, m = {m}, N = {n}) page {i} of {pages:?}", plan.strategy);
            prop_assert_eq!(got.len(), want.len(), "{}", at);
            for ((object, grade), (_, scan_grade)) in got.iter().zip(want) {
                prop_assert!(grade.approx_eq(*scan_grade, 1e-12), "{}: {} vs {}", at, grade, scan_grade);
                prop_assert!(grade.approx_eq(truth[object], 1e-12), "{}: {:?}", at, object);
                prop_assert!(seen.insert(*object), "{}: {:?} repeated", at, object);
            }
            prop_assert!(bill.unweighted() <= bound, "{}: {} > (2m-1)N = {}", at, bill, bound);
        }
    }
}

/// The bill (`S + R`) of one page of `k` under the threshold rule over
/// the NNF's literals: [`Strategy::FaNnf`]'s rule, which any negated flat
/// shape would take if the planner did not read the NNF's shape.
fn threshold_bill(garlic: &Garlic, query: &GarlicQuery, k: usize) -> u64 {
    let nnf = query.to_nnf();
    let sources: Vec<_> = nnf
        .literals
        .iter()
        .map(|lit| {
            let list = garlic.catalog().evaluate(&lit.atom).unwrap();
            if lit.negated {
                std::sync::Arc::new(ComplementSource::new(list))
            } else {
                list
            }
        })
        .collect();
    let mut session = EngineSession::threshold(sources, QueryAggregation::nnf(&nnf)).unwrap();
    session.next_batch(k).unwrap();
    session.stats().unweighted()
}

/// Each negated flat shape, on fixed data, bills at or below the
/// threshold rule over the same literals, whose bills on this data are
/// pinned here (`S + R` of one page of 10): A₀′ stops at the k-match depth
/// and probes only the pivot list's candidates, B₀ reads `m·k` entries
/// and probes nothing, and the filtered rule reads the crisp match set.
#[test]
fn negated_flat_shapes_bill_at_most_the_threshold_rule() {
    let (and, or, not) = (GarlicQuery::and, GarlicQuery::or, GarlicQuery::not);
    let db = Db::continuous(2_000, 42);
    let pushdown = garlic_over(
        &db.memory(),
        PlannerOptions {
            negation_pushdown: true,
            ..Default::default()
        },
    );
    let k = 10;
    for (query, strategy, bill, threshold) in [
        (and(atom("A"), not(atom("B"))), Strategy::FaMin, 434, 572),
        (
            and(not(atom("A")), not(atom("B"))),
            Strategy::FaMin,
            385,
            385,
        ),
        (not(or(atom("A"), atom("C"))), Strategy::FaMin, 353, 464),
        (and(atom("A"), not(atom("A"))), Strategy::FaMin, 3005, 4000),
        (or(not(atom("A")), not(atom("B"))), Strategy::B0Max, 20, 30),
        (
            and(atom("K"), not(atom("A"))),
            Strategy::Filtered { crisp_index: 0 },
            64,
            560,
        ),
    ] {
        let result = pushdown.top_k(&query, k).unwrap();
        assert_eq!(result.plan.strategy, strategy, "{query}");
        assert_eq!(result.stats.unweighted(), bill, "{query}");
        assert_eq!(threshold_bill(&pushdown, &query, k), threshold, "{query}");
        assert!(bill <= threshold, "{query}");
    }
}
