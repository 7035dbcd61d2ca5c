//! Every algorithm and every session answers a failing source with a typed
//! error, never a panic.
//!
//! Each entry point of `garlic_core::algorithms` runs once over healthy
//! sources, counting its reads (every sorted batch, random batch and
//! match-set call, across all sources). It then runs again with the j-th
//! read and every later one failing, for every j up to one past that
//! count: a run that reaches the failure must return
//! `Err(TopKError::SourceFailed(_))`, and a run that does not must return
//! the healthy answer. A session whose j-th read alone fails must, when
//! the failed page is asked for again, hand out the healthy pages without
//! any source answering a rank, a probe or its match set twice — over the
//! lists themselves, and over each list sharded into flaky id ranges,
//! where the merge must retry a failed refill without reading a rank
//! twice — and, after every page it answers, with the session's own
//! per-source bill equal to an independent meter around each list.

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use garlic_agg::iterated::{min_agg, IteratedTNorm};
use garlic_agg::means::ArithmeticMean;
use garlic_agg::tnorms::Minimum;
use garlic_agg::{Aggregation, Grade};
use garlic_core::access::{
    counted, CountingSource, GradedSource, MemorySource, SetAccess, SourceError,
};
use garlic_core::algorithms::b0_max::b0_max_topk;
use garlic_core::algorithms::fa::{fagin_run, fagin_shrunk_run, fagin_topk};
use garlic_core::algorithms::fa_min::{fagin_min_run, fagin_min_topk};
use garlic_core::algorithms::filtered::filtered_topk;
use garlic_core::algorithms::naive::{naive_random_topk, naive_topk};
use garlic_core::algorithms::order_stat::{median_topk, order_statistic_topk};
use garlic_core::algorithms::ullman::{ullman_run, ullman_top1, ullman_topk};
use garlic_core::{
    AccessStats, EngineSession, GradedEntry, ObjectId, ShardedSource, TopK, TopKError,
};

/// What a source handed over: a sorted rank, a random-access probe or its
/// match set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Served {
    Rank(usize),
    Probe(ObjectId),
    Set,
}

/// A source whose reads share one counter with its siblings; the reads
/// numbered `failing` (1-based) fail.
struct Flaky {
    inner: MemorySource,
    reads: Arc<AtomicUsize>,
    failing: RangeInclusive<usize>,
    /// Every rank and probe this source answered, in order.
    served: Mutex<Vec<Served>>,
}

impl Flaky {
    fn read(&self) -> Result<(), SourceError> {
        let read = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.failing.contains(&read) {
            return Ok(());
        }
        Err(SourceError {
            source: "flaky".into(),
            detail: format!("read {read} failed"),
            quarantined: false,
        })
    }

    fn serve(&self, served: impl IntoIterator<Item = Served>) {
        self.served.lock().unwrap().extend(served);
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
        let got = self.inner.try_sorted_batch(start, count, out)?;
        self.serve((start..start + got).map(Served::Rank));
        Ok(got)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        self.read()?;
        self.inner.try_random_batch(objects, out)?;
        self.serve(objects.iter().copied().map(Served::Probe));
        Ok(())
    }
}

impl SetAccess for Flaky {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        self.read()?;
        let set = self.inner.try_matching_set()?;
        self.serve([Served::Set]);
        Ok(set)
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

/// A flaky source over `inner`, counting its reads on `reads`.
fn flaky_source(
    inner: MemorySource,
    reads: &Arc<AtomicUsize>,
    failing: &RangeInclusive<usize>,
) -> Flaky {
    Flaky {
        inner,
        reads: Arc::clone(reads),
        failing: failing.clone(),
        served: Mutex::new(Vec::new()),
    }
}

/// The first `m` lists as flaky sources sharing one read counter, the
/// reads numbered `failing` failing.
fn flaky_range(m: usize, failing: RangeInclusive<usize>) -> (Vec<Flaky>, Arc<AtomicUsize>) {
    let reads = Arc::new(AtomicUsize::new(0));
    let sources = lists()[..m]
        .iter()
        .map(|grades| flaky_source(MemorySource::from_grades(grades), &reads, &failing))
        .collect();
    (sources, reads)
}

/// Read `fail_from` and every later one fail.
fn flaky(m: usize, fail_from: usize) -> (Vec<Flaky>, Arc<AtomicUsize>) {
    flaky_range(m, fail_from..=usize::MAX)
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
fn entry_points() -> [(&'static str, usize, Run); 21] {
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
        ("filtered_topk", 3, |s| filtered_topk(s, 0, &min_agg(), 2)),
        ("EngineSession::filtered", 3, |s| {
            two_pages(EngineSession::filtered(s.iter().collect(), 0, min_agg())?)
        }),
        ("EngineSession::new", 3, |s| {
            two_pages(EngineSession::new(s.iter().collect(), min_agg())?)
        }),
        ("EngineSession::shrunk", 3, |s| {
            two_pages(EngineSession::shrunk(s.iter().collect(), min_agg())?)
        }),
        ("EngineSession::threshold", 3, |s| {
            two_pages(EngineSession::threshold(
                s.iter().collect(),
                ArithmeticMean,
            )?)
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

type Session<'a> = EngineSession<CountingSource<&'a dyn SetAccess>, Box<dyn Aggregation>>;
type Open = fn(Vec<CountingSource<&dyn SetAccess>>) -> Result<Session<'_>, TopKError>;

/// The three lists a session runs over, on flaky sources sharing one read
/// counter.
enum Lists {
    /// Each list one flaky source.
    Flat(Vec<Flaky>),
    /// Each list a `ShardedSource` over three flaky id ranges.
    Sharded(Vec<ShardedSource<Flaky>>),
}

impl Lists {
    fn new(sharded: bool, failing: RangeInclusive<usize>) -> (Lists, Arc<AtomicUsize>) {
        if !sharded {
            let (sources, reads) = flaky_range(3, failing);
            return (Lists::Flat(sources), reads);
        }
        let reads = Arc::new(AtomicUsize::new(0));
        let fences = vec![0, 3, 6];
        let sharded = lists()
            .iter()
            .map(|grades| {
                let shards = [0..3, 3..6, 6..8]
                    .map(|ids| {
                        let pairs: Vec<_> = ids.map(|i| (ObjectId::from(i), grades[i])).collect();
                        flaky_source(MemorySource::from_pairs(pairs), &reads, &failing)
                    })
                    .into();
                ShardedSource::new(shards, fences.clone())
            })
            .collect();
        (Lists::Sharded(sharded), reads)
    }

    fn sources(&self) -> Vec<&dyn SetAccess> {
        match self {
            Lists::Flat(sources) => sources.iter().map(|s| s as &dyn SetAccess).collect(),
            Lists::Sharded(sources) => sources.iter().map(|s| s as &dyn SetAccess).collect(),
        }
    }

    /// Every flaky source under the lists.
    fn flaky(&self) -> Vec<&Flaky> {
        match self {
            Lists::Flat(sources) => sources.iter().collect(),
            Lists::Sharded(sources) => sources.iter().flat_map(|s| s.shards()).collect(),
        }
    }
}

fn boxed_min() -> Box<dyn Aggregation> {
    Box::new(min_agg())
}

/// Every session rule, over all three lists. The threshold rule runs the
/// arithmetic mean, under which it stops before A₀ and prunes; the
/// filtered rule reads list 0 as the crisp one.
fn sessions() -> [(&'static str, Open); 7] {
    [
        ("new", |s| EngineSession::new(s, boxed_min())),
        ("shrunk", |s| EngineSession::shrunk(s, boxed_min())),
        ("threshold", |s| {
            EngineSession::threshold(s, Box::new(ArithmeticMean))
        }),
        ("min", |s| EngineSession::min(s)),
        ("scan", |s| EngineSession::scan(s, boxed_min())),
        ("max", |s| EngineSession::max(s)),
        ("filtered", |s| EngineSession::filtered(s, 0, boxed_min())),
    ]
}

/// Pages of 2, 3 and the rest, each asked for again after a source
/// failure until it is answered; once it is, the meter around each list
/// counted exactly the session's bill for it plus the entries it fetched
/// and has not folded.
fn retried_pages(session: &mut Session<'_>) -> Vec<GradedEntry> {
    let mut entries = Vec::new();
    for k in [2, 3, 8] {
        let page = loop {
            match session.next_batch(k) {
                Ok(page) => break page,
                Err(TopKError::SourceFailed(_)) => continue,
                Err(e) => panic!("untyped failure: {e}"),
            }
        };
        let bills = session.per_source_stats().iter().zip(session.unfolded());
        let read: Vec<_> = bills
            .map(|(bill, ahead)| AccessStats::new(bill.sorted + ahead, bill.random))
            .collect();
        let metered: Vec<_> = session
            .sources()
            .iter()
            .map(CountingSource::stats)
            .collect();
        assert_eq!(read, metered, "page of {k}");
        entries.extend(page.into_entries());
    }
    entries
}

#[test]
fn every_session_retried_after_a_failure_bills_nothing_twice() {
    for sharded in [false, true] {
        for (name, open) in sessions() {
            let name = format!("{name}{}", if sharded { " (sharded)" } else { "" });
            let (healthy, reads) = Lists::new(sharded, usize::MAX..=usize::MAX);
            let answer = retried_pages(&mut open(counted(healthy.sources())).unwrap());
            let total = reads.load(Ordering::Relaxed);
            for fail_at in 1..=total {
                let (lists, _) = Lists::new(sharded, fail_at..=fail_at);
                let entries = retried_pages(&mut open(counted(lists.sources())).unwrap());
                assert_eq!(entries, answer, "{name} with read {fail_at} failing");
                for (i, source) in lists.flaky().iter().enumerate() {
                    let mut served = source.served.lock().unwrap().clone();
                    if sharded {
                        // A random batch fans out over the shards and fails
                        // whole, so a shard that answered beside a failing
                        // sibling answers its probes again on the retry.
                        // Ranks come from the merge, which never re-reads.
                        served.retain(|s| matches!(s, Served::Rank(_)));
                    }
                    let distinct: std::collections::HashSet<_> = served.iter().collect();
                    assert_eq!(
                        distinct.len(),
                        served.len(),
                        "{name}, read {fail_at} failing: source {i} served {served:?}"
                    );
                }
            }
        }
    }
}
