//! The observability acceptance property: the per-source access counts a
//! traced request's [`Explain`](garlic::middleware::Explain) reports must be
//! **bit-equal** to the Section-5 totals the [`CountingSource`] wrappers
//! bill — for every planner strategy the catalogue can reach, on the
//! memory, disk, and sharded-disk backends. The trace is rendered from the
//! same counters the executor bills against, and a traced request is the
//! plain request with `trace` set, so there is no second bookkeeping path
//! and no second execution path to drift; these tests pin both.

use std::path::PathBuf;
use std::sync::Arc;

use garlic::middleware::{
    Catalog, Explain, Garlic, GarlicQuery, PlannerOptions, QueryRequest, QueryResult, Strategy,
};
use garlic::subsys::{DiskSubsystem, Target, VectorSubsystem};
use garlic::{AccessStats, BlockCache, Grade, SegmentWriter};
use proptest::prelude::*;

/// Quantized fuzzy grades (ties everywhere) plus one selective crisp list,
/// so every strategy the ISSUE names is reachable.
fn grade_lists(n: usize, seed: u64) -> Vec<(&'static str, Vec<Grade>)> {
    let mut rng = garlic_workload::seeded_rng(seed);
    use rand::Rng;
    let mut fuzzy = || -> Vec<Grade> {
        (0..n)
            .map(|_| Grade::clamped(rng.gen_range(0..=15) as f64 / 15.0))
            .collect()
    };
    let (a, b, c) = (fuzzy(), fuzzy(), fuzzy());
    let crisp = (0..n)
        .map(|_| Grade::from_bool(rng.gen_bool(0.08)))
        .collect();
    vec![("A", a), ("B", b), ("C", c), ("K", crisp)]
}

/// One query per strategy these backends can reach (Section 8 pushdown
/// needs a subsystem with an internal conjunction; `exec.rs` covers it),
/// with the planner options that select it.
fn strategy_queries() -> Vec<(GarlicQuery, Strategy, PlannerOptions)> {
    let atom = |a: &str| GarlicQuery::atom(a, Target::text("t"));
    let negated = || GarlicQuery::and(atom("A"), GarlicQuery::not(atom("B")));
    let default = PlannerOptions::default();
    let pushdown = PlannerOptions {
        negation_pushdown: true,
        ..default
    };
    vec![
        (
            GarlicQuery::and(atom("A"), atom("B")),
            Strategy::FaMin,
            default,
        ),
        (
            GarlicQuery::or(atom("A"), atom("C")),
            Strategy::B0Max,
            default,
        ),
        (negated(), Strategy::NaiveCalculus, default),
        (negated(), Strategy::FaNnf, pushdown),
        (
            GarlicQuery::and(atom("K"), atom("A")),
            Strategy::Filtered { crisp_index: 0 },
            default,
        ),
        (
            GarlicQuery::and(atom("A"), GarlicQuery::or(atom("B"), atom("C"))),
            Strategy::FaGeneric,
            default,
        ),
    ]
}

fn memory_garlic(lists: &[(&str, Vec<Grade>)], n: usize) -> Garlic {
    let mut sub = VectorSubsystem::new("vectors", n);
    for (attr, grades) in lists {
        sub = sub.with_list(attr, grades);
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    Garlic::new(cat)
}

fn segment_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-explain-eq-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn disk_garlic(lists: &[(&str, Vec<Grade>)], n: usize, shards: Option<usize>, tag: &str) -> Garlic {
    let dir = segment_dir(tag);
    let writer = SegmentWriter::with_block_size(256).unwrap();
    let mut sub = DiskSubsystem::with_cache("segments", n, Arc::new(BlockCache::new(1024)));
    for (attr, grades) in lists {
        sub = match shards {
            Some(s) => {
                let parts = writer
                    .write_sharded_grades(&dir, &format!("{attr}-{tag}"), s, grades)
                    .unwrap();
                sub.open_sharded_segment(attr, parts.iter().map(|p| &p.path))
                    .unwrap()
            }
            None => {
                let path = dir.join(format!("{attr}-{tag}.seg"));
                writer.write_grades(&path, grades).unwrap();
                sub.open_segment(attr, &path).unwrap()
            }
        };
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    Garlic::new(cat)
}

/// Runs the traced request: the result, and the [`Explain`] it carries.
fn explain(garlic: &Garlic, query: &GarlicQuery, k: usize) -> (QueryResult, Explain) {
    let request = QueryRequest {
        trace: true,
        ..QueryRequest::new(query, k)
    };
    let mut result = garlic.run(&request).unwrap();
    let explain = *result.explain.take().expect("a traced request explains");
    (result, explain)
}

fn summed(ex: &Explain) -> AccessStats {
    ex.per_source
        .iter()
        .fold(AccessStats::default(), |acc, (_, s)| acc + *s)
}

/// The core invariant, asserted for one backend: the executed trace's
/// per-source counts sum bit-equal to the billed total, the rendered span
/// fields carry those exact numbers, and the explained execution returns
/// the same answers and bill a plain `top_k` does.
fn assert_explain_bills_exactly(garlic: &Garlic, backend: &str) {
    for (query, expected_strategy, options) in strategy_queries() {
        let garlic = &Garlic::with_options(garlic.catalog().clone(), options);
        for k in [1, 5, 23] {
            let (traced, ex) = explain(garlic, &query, k);
            assert_eq!(
                traced.plan.strategy, expected_strategy,
                "{backend}: {query} must exercise the intended strategy"
            );
            assert_eq!(
                summed(&ex),
                traced.stats,
                "{backend}: per-source counts must sum bit-equal to the \
                 billed total for {query} at k={k}"
            );
            for (i, (label, s)) in ex.per_source.iter().enumerate() {
                let span = ex
                    .trace
                    .root
                    .find(&format!("source[{i}] \"{label}\""))
                    .unwrap_or_else(|| {
                        panic!("{backend}: trace for {query} is missing source[{i}] \"{label}\"")
                    });
                assert_eq!(
                    span.get_field("S"),
                    Some(s.sorted.to_string().as_str()),
                    "{backend}: sorted count rendered for {label} in {query}"
                );
                assert_eq!(
                    span.get_field("R"),
                    Some(s.random.to_string().as_str()),
                    "{backend}: random count rendered for {label} in {query}"
                );
            }
            // One execution path: what EXPLAIN traces is what `top_k`
            // runs — entries, tie order and bill.
            let plain = garlic.top_k(&query, k).unwrap();
            assert_eq!(
                traced.answers.entries(),
                plain.answers.entries(),
                "{backend}: explaining {query} at k={k} must not change the answer"
            );
            assert_eq!(
                traced.stats, plain.stats,
                "{backend}: explain bills exactly what top_k bills for {query} at k={k}"
            );
            let mut session = garlic.open_session(&QueryRequest::new(&query, k)).unwrap();
            assert_eq!(
                traced.answers.entries(),
                session.next_batch(k).unwrap().entries(),
                "{backend}: explain answers match the paged session for {query} at k={k}"
            );
            assert_eq!(
                traced.stats,
                session.stats(),
                "{backend}: explain bills exactly what a one-page session \
                 bills for {query} at k={k}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn explain_bills_bit_equal_on_memory(n in 40usize..160, seed in 0u64..1000) {
        let lists = grade_lists(n, seed);
        assert_explain_bills_exactly(&memory_garlic(&lists, n), "memory");
    }

    #[test]
    fn explain_bills_bit_equal_on_disk(n in 40usize..120, seed in 0u64..1000) {
        let lists = grade_lists(n, seed);
        let garlic = disk_garlic(&lists, n, None, &format!("flat-{n}-{seed}"));
        assert_explain_bills_exactly(&garlic, "disk");
    }

    #[test]
    fn explain_bills_bit_equal_on_sharded_disk(n in 40usize..120, seed in 0u64..1000) {
        let lists = grade_lists(n, seed);
        let garlic = disk_garlic(&lists, n, Some(3), &format!("shard-{n}-{seed}"));
        assert_explain_bills_exactly(&garlic, "sharded-disk");
    }
}

/// The explained backends must also agree with each other: the trace is an
/// account of the execution, and the execution is backend-invariant.
#[test]
fn explained_backends_agree_with_memory() {
    let n = 300;
    let lists = grade_lists(n, 4242);
    let mem = memory_garlic(&lists, n);
    let disk = disk_garlic(&lists, n, None, "agree-flat");
    let sharded = disk_garlic(&lists, n, Some(3), "agree-shard");

    for (query, _, options) in strategy_queries() {
        let with_options = |g: &Garlic| Garlic::with_options(g.catalog().clone(), options);
        for k in [1, 7, 50] {
            let (want, want_ex) = explain(&with_options(&mem), &query, k);
            for (name, backend) in [("disk", &disk), ("sharded-disk", &sharded)] {
                let (got, got_ex) = explain(&with_options(backend), &query, k);
                assert_eq!(
                    got.answers.entries(),
                    want.answers.entries(),
                    "{name}: entries and tie order for {query} at k={k}"
                );
                assert_eq!(
                    got.stats, want.stats,
                    "{name}: Section-5 billing for {query} at k={k}"
                );
                assert_eq!(
                    summed(&got_ex),
                    summed(&want_ex),
                    "{name}: per-source sums for {query} at k={k}"
                );
            }
        }
    }
}

/// Attaching a metrics registry is invisible to the caller: same answers
/// and same billed `stats` for every strategy, one `middleware.queries`
/// tick per execution (`gate_telemetry_overhead` times this pair).
#[test]
fn telemetry_attachment_changes_neither_answers_nor_bill() {
    let n = 300;
    let plain = memory_garlic(&grade_lists(n, 77), n);
    let telemetry = garlic::Telemetry::new();
    let queries = strategy_queries();
    for (query, strategy, options) in &queries {
        let plain = Garlic::with_options(plain.catalog().clone(), *options);
        let attached = plain.clone().with_telemetry(Arc::clone(&telemetry));
        for k in [1, 10] {
            let want = plain.top_k(query, k).unwrap();
            let got = attached.top_k(query, k).unwrap();
            assert_eq!(&got.plan.strategy, strategy, "{query}");
            assert_eq!(want.answers.entries(), got.answers.entries(), "{query}");
            assert_eq!(want.stats, got.stats, "{query} k={k}: same billed cost");
        }
    }
    let metered = telemetry.snapshot().counter("middleware.queries");
    assert_eq!(metered, 2 * queries.len() as u64);
}
