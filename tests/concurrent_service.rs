//! Concurrent-equivalence suite for the service layer: the same query set,
//! served sequentially and via [`GarlicService`] across worker threads over
//! ONE shared catalog, must produce identical top-k results — same objects,
//! same grades, same tie order — and identical per-query Section 5 access
//! counts. Concurrency is an execution detail; it must never be observable
//! in answers or in measured cost.

use garlic::middleware::{
    Catalog, Garlic, GarlicQuery, GarlicService, PlannerOptions, QueryRequest, Strategy,
};
use garlic::subsys::{Target, VectorSubsystem};
use garlic::Grade;
use garlic::{AccessStats, TopK};
use proptest::prelude::*;

/// Pages through `q` on one session: the pages and the total bill.
fn paged(garlic: &Garlic, q: &GarlicQuery, batches: &[usize]) -> (Vec<TopK>, AccessStats) {
    let request = QueryRequest::new(q, batches.iter().sum());
    let mut session = garlic.open_session(&request).unwrap();
    let pages = batches
        .iter()
        .map(|&k| session.next_batch(k).unwrap())
        .collect();
    (pages, session.stats())
}

/// A federated two-subsystem catalog over randomly graded lists: three
/// fuzzy attributes split across the subsystems, same universe.
fn build_garlic(a: &[u32], b: &[u32], c: &[u32]) -> Garlic {
    let to_grades = |raw: &[u32]| -> Vec<Grade> {
        raw.iter()
            .map(|&v| Grade::clamped(v as f64 / u32::MAX as f64))
            .collect()
    };
    let left = VectorSubsystem::new("left", a.len())
        .with_list("A", &to_grades(a))
        .with_list("B", &to_grades(b));
    let right = VectorSubsystem::new("right", c.len()).with_list("C", &to_grades(c));
    let mut cat = Catalog::new();
    cat.register(left).unwrap();
    cat.register(right).unwrap();
    Garlic::with_options(
        cat,
        PlannerOptions {
            negation_pushdown: false,
            ..Default::default()
        },
    )
}

/// A query pool covering every strategy the planner can choose for these
/// (non-crisp) attributes: A₀′ conjunctions, B₀ disjunctions, generic A₀
/// compounds, and naive-calculus negations.
fn query_pool() -> Vec<GarlicQuery> {
    let a = || GarlicQuery::atom("A", Target::text("t"));
    let b = || GarlicQuery::atom("B", Target::text("t"));
    let c = || GarlicQuery::atom("C", Target::text("t"));
    vec![
        a(),
        GarlicQuery::and(a(), b()),
        GarlicQuery::and(a(), GarlicQuery::and(b(), c())),
        GarlicQuery::or(a(), c()),
        GarlicQuery::or(b(), GarlicQuery::or(a(), c())),
        GarlicQuery::and(a(), GarlicQuery::or(b(), c())),
        GarlicQuery::and(a(), GarlicQuery::not(b())),
        GarlicQuery::and(a(), GarlicQuery::not(a())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property of the concurrent service: >= 8 queries per
    /// batch, multiple worker threads, one shared catalog — results and
    /// per-query access counts identical to sequential execution.
    #[test]
    fn concurrent_batches_equal_sequential_execution(
        a in proptest::collection::vec(0u32..=u32::MAX, 12..40),
        b_seed in proptest::collection::vec(0u32..=u32::MAX, 40),
        c_seed in proptest::collection::vec(0u32..=u32::MAX, 40),
        ks in proptest::collection::vec(1usize..6, 8..14),
    ) {
        let n = a.len();
        let b = &b_seed[..n];
        let c = &c_seed[..n];
        let garlic = build_garlic(&a, b, c);

        let pool = query_pool();
        let requests: Vec<(GarlicQuery, usize)> = ks
            .iter()
            .enumerate()
            .map(|(i, &k)| (pool[i % pool.len()].clone(), k))
            .collect();
        prop_assert!(requests.len() >= 8, "acceptance floor: 8 concurrent queries");

        // Sequential reference on the calling thread...
        let sequential: Vec<_> = requests
            .iter()
            .map(|(q, k)| garlic.top_k(q, *k).unwrap())
            .collect();

        // ...versus the concurrent service over the SAME shared catalog.
        let service = GarlicService::with_threads(garlic, 4);
        prop_assert!(service.threads() >= 2);
        let borrowed: Vec<_> = requests
            .iter()
            .map(|(q, k)| QueryRequest::new(q, *k))
            .collect();
        let concurrent = service.serve_batch(&borrowed);

        for ((seq, conc), (query, k)) in sequential.iter().zip(&concurrent).zip(&requests) {
            let conc = conc.as_ref().unwrap();
            // Identical answers: same objects, same grades, same tie order.
            prop_assert_eq!(
                seq.answers.entries(),
                conc.answers.entries(),
                "query {} (k = {})", query, k
            );
            // Identical per-query Section 5 access counts.
            prop_assert_eq!(seq.stats, conc.stats, "query {} (k = {})", query, k);
            // And the same chosen strategy.
            prop_assert_eq!(
                std::mem::discriminant(&seq.plan.strategy),
                std::mem::discriminant(&conc.plan.strategy)
            );
        }
    }

    /// Paged sessions opened concurrently page exactly like a sequential
    /// session: "continue where we left off" is per-session state, immune
    /// to other queries running on sibling threads.
    #[test]
    fn concurrent_paging_preserves_session_resumption(
        a in proptest::collection::vec(0u32..=u32::MAX, 10..30),
        b_seed in proptest::collection::vec(0u32..=u32::MAX, 30),
        c_seed in proptest::collection::vec(0u32..=u32::MAX, 30),
    ) {
        let n = a.len();
        let garlic = build_garlic(&a, &b_seed[..n], &c_seed[..n]);
        let queries = query_pool();

        // Reference pagings, single-threaded.
        let reference: Vec<_> = queries
            .iter()
            .map(|q| paged(&garlic, q, &[2, 3]))
            .collect();

        // The same pagings, all running simultaneously on worker threads.
        let garlic_ref = &garlic;
        let paged: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| scope.spawn(move || paged(garlic_ref, q, &[2, 3])))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for ((seq, conc), q) in reference.iter().zip(&paged).zip(&queries) {
            let (seq_batches, seq_stats) = seq;
            let (conc_batches, conc_stats) = conc;
            prop_assert_eq!(seq_batches.len(), conc_batches.len());
            for (x, y) in seq_batches.iter().zip(conc_batches) {
                prop_assert_eq!(x.entries(), y.entries(), "query {}", q);
            }
            prop_assert_eq!(seq_stats, conc_stats, "query {}", q);
        }
    }
}

/// A non-property sanity pin: the planner really does route the pool across
/// distinct strategies, so the equivalence above spans the catalogue.
#[test]
fn query_pool_spans_the_strategy_catalogue() {
    let a: Vec<u32> = (0..20).map(|i| i * 1_000_003).collect();
    let garlic = build_garlic(&a, &a, &a);
    let strategies: Vec<Strategy> = query_pool()
        .iter()
        .map(|q| garlic.plan_for(q, 3).unwrap().strategy)
        .collect();
    assert!(strategies.iter().any(|s| matches!(s, Strategy::FaMin)));
    assert!(strategies.iter().any(|s| matches!(s, Strategy::B0Max)));
    assert!(strategies.iter().any(|s| matches!(s, Strategy::FaGeneric)));
    assert!(strategies
        .iter()
        .any(|s| matches!(s, Strategy::NaiveCalculus)));
}
