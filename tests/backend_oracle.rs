//! The differential oracle: every backend answers exactly like memory.
//!
//! The paper's guarantees — A₀'s answers for monotone queries (Thm 4.2),
//! A₀′ and B₀ (Thms 4.4, 4.5), Section 7's reading of `¬Q` as the
//! reversed complement list, exact Section 5 bills — must hold whatever
//! stores the lists. One property builds six backends over the same
//! lists: memory, segments in dictionary mode and (on one fixed database
//! of continuous grades) segments in delta mode, sharded memory and
//! sharded segments at a drawn shard count, and live stores holding a
//! compacted base, a frozen layer and an active memtable — so the grade
//! column's 8-byte cells (delta mode) and 1-byte cells (dictionary mode,
//! and the live stores' compacted bases) stay under the oracle. Each is
//! compared with memory at two levels:
//!
//! * **engine** — every session rule (A₀, shrunk, threshold, A₀′, scan,
//!   B₀, filtered) over every query shape (flat AND, flat OR,
//!   `A ∧ (B ∨ C)`, `A ∧ ¬B`, `¬(A ∨ B)`, `Q ∧ ¬Q`), paged through a drawn
//!   sequence: entries and tie order, per-source bills, and grades
//!   against a brute-force ranking, after every page;
//! * **middleware** — every strategy the planner reaches: plan, entries,
//!   bill and EXPLAIN per-source split, one shot and paged.

mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use support::{
    assert_sessions_match, assert_strategies_match, backends, delta_fixture, engine_shapes,
    temp_dir, Db, KS, SHARD_COUNTS,
};

static DELTA_CASES: AtomicUsize = AtomicUsize::new(0);

/// Case count: 12 locally; CI runs the property once more by name with
/// `PROPTEST_CASES` raised.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn every_backend_answers_like_memory(
        n in 40usize..160,
        seed in 0u64..1000,
        shard_pick in 0usize..SHARD_COUNTS.len(),
        pages in support::pages_strategy(),
    ) {
        let db = Db::quantised(n, seed);
        let all = backends(&db, SHARD_COUNTS[shard_pick], &temp_dir("oracle"));
        let memory = &all[0].1;
        // The delta fixture is one fixed database of 4 200 objects: its
        // one-shot answers are checked in the first case only, and its
        // sessions over a third of the shapes per case, in turn (one
        // negated shape in each third), so each shape meets four page
        // sequences in twelve cases.
        let fixture = delta_fixture();
        let delta = [("v4-delta".to_owned(), Arc::clone(&fixture.delta))];
        let case = DELTA_CASES.fetch_add(1, Ordering::Relaxed);
        let delta_ks = if case == 0 { &KS[..] } else { &[] };
        let delta_shapes = engine_shapes().into_iter().skip(case % 3).step_by(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_sessions_match(&all, memory.as_ref(), &db, engine_shapes(), &pages)
            });
            scope.spawn(|| assert_strategies_match(&all, memory, &KS, &pages));
            scope.spawn(|| {
                let shapes = delta_shapes.collect();
                assert_sessions_match(&delta, fixture.memory.as_ref(), &fixture.db, shapes, &pages)
            });
            scope.spawn(|| assert_strategies_match(&delta, &fixture.memory, delta_ks, &pages));
        });
    }
}
