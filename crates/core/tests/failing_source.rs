//! Every algorithm and every session answers a failing source with a typed
//! error, never a panic.
//!
//! Each entry point of `garlic_core::algorithms` runs once over healthy
//! sources, counting its reads (every sorted batch, random batch and
//! match-set call, across all sources). It then runs again with the j-th
//! read and every later one failing, for every j up to one past that
//! count: a run that reaches the failure must return
//! `Err(TopKError::SourceFailed(_))`, and a run that does not must return
//! the healthy answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use garlic_agg::iterated::{min_agg, IteratedTNorm};
use garlic_agg::tnorms::Minimum;
use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource, SetAccess, SourceError};
use garlic_core::algorithms::b0_max::b0_max_topk;
use garlic_core::algorithms::fa::{fagin_run, fagin_shrunk_run, fagin_topk};
use garlic_core::algorithms::fa_min::{fagin_min_run, fagin_min_topk};
use garlic_core::algorithms::filtered::{filtered_topk, FilteredSession};
use garlic_core::algorithms::naive::{naive_random_topk, naive_topk};
use garlic_core::algorithms::order_stat::{median_topk, order_statistic_topk};
use garlic_core::algorithms::ullman::{ullman_run, ullman_top1, ullman_topk};
use garlic_core::{EngineSession, GradedEntry, ObjectId, TopK, TopKError};

/// A source whose reads share one counter with its siblings; the read
/// numbered `fail_from` (1-based) and every later one fail.
struct Flaky {
    inner: MemorySource,
    reads: Arc<AtomicUsize>,
    fail_from: usize,
}

impl Flaky {
    fn read(&self) -> Result<(), SourceError> {
        let read = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if read < self.fail_from {
            return Ok(());
        }
        Err(SourceError {
            source: "flaky".into(),
            detail: format!("read {read} failed"),
            quarantined: false,
        })
    }
}

impl GradedSource for Flaky {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        self.read()?;
        self.inner.try_sorted_batch(start, count, out)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        self.read()?;
        self.inner.try_random_batch(objects, out)
    }
}

impl SetAccess for Flaky {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        self.read()?;
        self.inner.try_matching_set()
    }
}

fn g(v: f64) -> Grade {
    Grade::new(v).unwrap()
}

/// Three lists over eight objects; list 0 is crisp, for the filtered
/// strategy.
fn lists() -> Vec<Vec<Grade>> {
    vec![
        [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0].map(g).to_vec(),
        [0.9, 0.2, 0.7, 0.4, 0.8, 0.1, 0.6, 0.3].map(g).to_vec(),
        [0.3, 0.8, 0.5, 0.9, 0.1, 0.6, 0.7, 0.2].map(g).to_vec(),
    ]
}

/// The first `m` lists as flaky sources sharing one read counter.
fn flaky(m: usize, fail_from: usize) -> (Vec<Flaky>, Arc<AtomicUsize>) {
    let reads = Arc::new(AtomicUsize::new(0));
    let sources = lists()[..m]
        .iter()
        .map(|grades| Flaky {
            inner: MemorySource::from_grades(grades),
            reads: Arc::clone(&reads),
            fail_from,
        })
        .collect();
    (sources, reads)
}

type Run = fn(&[Flaky]) -> Result<TopK, TopKError>;
type MinAgg = IteratedTNorm<Minimum>;

/// Two pages of a session, so resumption is exercised too.
fn two_pages<S: GradedSource, A: garlic_agg::Aggregation>(
    mut session: EngineSession<S, A>,
) -> Result<TopK, TopKError> {
    let mut entries = session.next_batch(2)?.into_entries();
    entries.extend(session.next_batch(3)?.into_entries());
    Ok(TopK::from_entries(entries))
}

/// Every entry point, with the number of lists it runs over.
fn entry_points() -> [(&'static str, usize, Run); 20] {
    [
        ("fagin_topk", 3, |s| fagin_topk(s, &min_agg(), 2)),
        ("fagin_run", 3, |s| {
            fagin_run(s, &min_agg(), 2).map(|r| r.topk)
        }),
        ("fagin_shrunk_run", 3, |s| {
            fagin_shrunk_run(s, &min_agg(), 2).map(|r| r.topk)
        }),
        ("fagin_min_topk", 3, |s| fagin_min_topk(s, 2)),
        ("fagin_min_run", 3, |s| fagin_min_run(s, 2).map(|r| r.topk)),
        ("b0_max_topk", 3, |s| b0_max_topk(s, 2)),
        ("naive_topk", 3, |s| naive_topk(s, &min_agg(), 2)),
        ("naive_random_topk", 3, |s| {
            naive_random_topk(s, &min_agg(), 2)
        }),
        ("order_statistic_topk", 3, |s| order_statistic_topk(s, 2, 2)),
        ("median_topk", 3, |s| median_topk(s, 2)),
        ("ullman_top1", 2, ullman_top1),
        ("ullman_topk", 2, |s| ullman_topk(s, 2)),
        ("ullman_run", 2, |s| ullman_run(s, 2).map(|r| r.topk)),
        ("filtered_topk", 3, |s| {
            filtered_topk(&s[0], &s[1..], 0, &min_agg(), 2)
        }),
        ("FilteredSession::new", 3, |s| {
            let graded = s[1..].iter().collect();
            let mut session = FilteredSession::new(&s[0], graded, 0, min_agg())?;
            let mut entries = session.next_batch(2)?.into_entries();
            entries.extend(session.next_batch(3)?.into_entries());
            Ok(TopK::from_entries(entries))
        }),
        ("EngineSession::new", 3, |s| {
            two_pages(EngineSession::new(s.iter().collect(), min_agg())?)
        }),
        ("EngineSession::shrunk", 3, |s| {
            two_pages(EngineSession::shrunk(s.iter().collect(), min_agg())?)
        }),
        ("EngineSession::min", 3, |s| {
            two_pages(EngineSession::<_, MinAgg>::min(s.iter().collect())?)
        }),
        ("EngineSession::scan", 3, |s| {
            two_pages(EngineSession::scan(s.iter().collect(), min_agg())?)
        }),
        ("EngineSession::max", 3, |s| {
            two_pages(EngineSession::<_, MinAgg>::max(s.iter().collect())?)
        }),
    ]
}

#[test]
fn every_entry_point_returns_source_failed_and_never_panics() {
    for (name, m, run) in entry_points() {
        let (healthy, reads) = flaky(m, usize::MAX);
        let answer = run(&healthy).unwrap_or_else(|e| panic!("{name} on healthy sources: {e}"));
        let total = reads.load(Ordering::Relaxed);
        assert!(total > 0, "{name} read nothing");

        for fail_from in 1..=total + 1 {
            let (sources, _) = flaky(m, fail_from);
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&sources)))
                .unwrap_or_else(|_| panic!("{name} panicked when read {fail_from} failed"));
            if fail_from <= total {
                assert!(
                    matches!(outcome, Err(TopKError::SourceFailed(_))),
                    "{name} with read {fail_from} of {total} failing: {outcome:?}"
                );
            } else {
                assert_eq!(outcome, Ok(answer.clone()), "{name}");
            }
        }
    }
}
