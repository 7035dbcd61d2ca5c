//! The observability acceptance property: the per-source access counts a
//! traced request's [`Explain`](garlic::middleware::Explain) reports are
//! rendered into the trace's `source[i]` spans, and sum **bit-equal** to
//! the Section-5 totals the engine session bills — for every planner
//! strategy the catalogue can reach. The trace is rendered from the same
//! per-source bill the result's `stats` sums, and a traced request is the
//! plain request with `trace` set, so there is no second bookkeeping path
//! and no second execution path to drift. The spans are checked on memory
//! and sharded disk; that every backend traces, answers and bills like
//! memory (and like its own `top_k` and one-page session) is checked by the
//! oracle (`backend_oracle.rs`).

mod support;

use std::sync::Arc;

use garlic::middleware::Garlic;
use proptest::prelude::*;
use support::{explain, garlic_over, sharded_segments, strategy_queries, summed, temp_dir, Db};

/// The executed trace's per-source counts sum bit-equal to the billed
/// total, and the rendered span fields carry those exact numbers.
fn assert_spans_render_the_bill(garlic: &Garlic) {
    for (query, expected_strategy, options) in strategy_queries() {
        let garlic = &Garlic::with_options(garlic.catalog().clone(), options);
        for k in [1, 5, 23] {
            let (traced, ex) = explain(garlic, &query, k);
            assert_eq!(
                traced.plan.strategy, expected_strategy,
                "{query} must exercise the intended strategy"
            );
            assert_eq!(
                summed(&ex),
                traced.stats,
                "per-source counts must sum bit-equal to the billed total for {query} at k={k}"
            );
            for (i, (label, s)) in ex.per_source.iter().enumerate() {
                let span = ex
                    .trace
                    .root
                    .find(&format!("source[{i}] \"{label}\""))
                    .unwrap_or_else(|| {
                        panic!("trace for {query} is missing source[{i}] \"{label}\"")
                    });
                assert_eq!(
                    span.get_field("S"),
                    Some(s.sorted.to_string().as_str()),
                    "sorted count rendered for {label} in {query}"
                );
                assert_eq!(
                    span.get_field("R"),
                    Some(s.random.to_string().as_str()),
                    "random count rendered for {label} in {query}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn explain_bills_bit_equal_on_memory(n in 40usize..160, seed in 0u64..1000) {
        let memory = Db::quantised(n, seed).memory();
        assert_spans_render_the_bill(&garlic_over(&memory, Default::default()));
    }

    #[test]
    fn explain_bills_bit_equal_on_sharded_disk(n in 40usize..120, seed in 0u64..1000) {
        let db = Db::quantised(n, seed);
        let sharded = sharded_segments(&db, &temp_dir("explain-sharded"), 3);
        assert_spans_render_the_bill(&garlic_over(&sharded, Default::default()));
    }
}

/// Attaching a metrics registry is invisible to the caller: same answers
/// and same billed `stats` for every strategy, one `middleware.queries`
/// tick per execution (`gate_telemetry_overhead` times this pair).
#[test]
fn telemetry_attachment_changes_neither_answers_nor_bill() {
    let plain = garlic_over(&Db::quantised(300, 77).memory(), Default::default());
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
