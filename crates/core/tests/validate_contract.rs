//! Integration coverage for the access-contract audit (`validate.rs`),
//! exercised through the crate's *public* surface only — the way a
//! middleware deployment would vet a third-party subsystem before
//! registering it (paper §4's interface assumptions).

use garlic_agg::Grade;
use std::sync::Arc;

use garlic_core::access::{CountingSource, GradedSource, MemorySource, SourceError};
use garlic_core::complement::ComplementSource;
use garlic_core::cost::AccessStats;
use garlic_core::graded_set::GradedEntry;
use garlic_core::sharded::{partition_pairs, ShardedSource};
use garlic_core::validate::{validate_source, SourceViolation};
use garlic_core::ObjectId;

fn g(v: f64) -> Grade {
    Grade::new(v).unwrap()
}

#[test]
fn well_behaved_memory_source_passes_the_audit() {
    let source = MemorySource::from_grades(&[g(0.9), g(0.1), g(0.5), g(0.5), g(0.0)]);
    assert_eq!(validate_source(&source), Ok(()));
}

#[test]
fn metered_source_passes_and_audit_cost_is_linear() {
    // The audit promises 2·len() sorted (one positional pass plus one
    // batched sorted pass) + 2·len() random accesses (one per-object pass
    // plus one batched pass; the batched pass's deliberate miss probes
    // bill nothing); the metering wrapper lets us hold it to that.
    let source = CountingSource::new(MemorySource::from_grades(&[g(0.7), g(0.2), g(0.4)]));
    assert_eq!(validate_source(&source), Ok(()));
    let stats = source.stats();
    assert_eq!(stats.sorted, 6);
    assert_eq!(stats.random, 6);
}

/// A source whose sorted stream *ascends* — the exact "non-monotone
/// subsystem" a buggy ranking engine would expose. Random access is
/// consistent, so the only contract breach is the ordering.
struct AscendingSource {
    grades: Vec<Grade>,
}

impl GradedSource for AscendingSource {
    fn len(&self) -> usize {
        self.grades.len()
    }
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let before = out.len();
        let listed = self.grades.iter().enumerate().skip(start).take(count);
        out.extend(listed.map(|(rank, &grade)| GradedEntry::new(rank, grade)));
        Ok(out.len() - before)
    }
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        out.extend(
            objects
                .iter()
                .map(|o| self.grades.get(o.0 as usize).copied()),
        );
        Ok(())
    }
}

#[test]
fn non_monotone_source_is_rejected_with_the_breaking_rank() {
    let source = AscendingSource {
        grades: vec![g(0.1), g(0.4), g(0.9)],
    };
    assert_eq!(
        validate_source(&source),
        Err(SourceViolation::NotDescending { rank: 1 })
    );
}

#[test]
fn constant_grades_are_monotone_enough() {
    // Ties everywhere are legal: "descending" is non-strict in the paper.
    let source = MemorySource::from_grades(&[g(0.5); 4]);
    assert_eq!(validate_source(&source), Ok(()));
}

#[test]
fn single_defect_deep_in_the_list_is_still_found() {
    // 0.30 at rank 8 followed by 0.31 at rank 9: one inversion, far from
    // the head — the audit must scan the whole list, not spot-check.
    struct OneInversion;
    impl OneInversion {
        fn grade(rank: usize) -> Option<Grade> {
            match rank {
                r if r < 8 => Some(Grade::clamped(1.0 - 0.05 * r as f64)),
                8 => Some(Grade::clamped(0.30)),
                9 => Some(Grade::clamped(0.31)),
                _ => None,
            }
        }
    }
    impl GradedSource for OneInversion {
        fn len(&self) -> usize {
            10
        }
        fn try_sorted_batch(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<GradedEntry>,
        ) -> Result<usize, SourceError> {
            let before = out.len();
            let ranks = start..start.saturating_add(count);
            out.extend(ranks.map_while(|r| Some(GradedEntry::new(r, Self::grade(r)?))));
            Ok(out.len() - before)
        }
        fn try_random_batch(
            &self,
            objects: &[ObjectId],
            out: &mut Vec<Option<Grade>>,
        ) -> Result<(), SourceError> {
            out.extend(objects.iter().map(|o| Self::grade(o.0 as usize)));
            Ok(())
        }
    }
    assert_eq!(
        validate_source(&OneInversion),
        Err(SourceViolation::NotDescending { rank: 9 })
    );
}

/// A source that implements the required core and nothing else. Reads that
/// reach rank `healthy` or beyond — and every probe batch, once `healthy`
/// is short of the list — fail with a typed error.
struct CoreOnly {
    entries: Vec<GradedEntry>,
    healthy: usize,
}

impl CoreOnly {
    fn new(pairs: impl IntoIterator<Item = (ObjectId, Grade)>) -> Self {
        let entries = MemorySource::from_pairs(pairs)
            .graded_set()
            .as_slice()
            .to_vec();
        let healthy = entries.len();
        CoreOnly { entries, healthy }
    }

    fn failing_from(mut self, rank: usize) -> Self {
        self.healthy = rank;
        self
    }

    fn error() -> SourceError {
        SourceError {
            source: "core-only".into(),
            detail: "injected".into(),
            quarantined: false,
        }
    }
}

impl GradedSource for CoreOnly {
    fn len(&self) -> usize {
        self.entries.len()
    }
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        if start.saturating_add(count).min(self.entries.len()) > self.healthy {
            return Err(CoreOnly::error());
        }
        let before = out.len();
        out.extend(self.entries.iter().skip(start).take(count));
        Ok(out.len() - before)
    }
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        if self.healthy < self.entries.len() {
            return Err(CoreOnly::error());
        }
        out.extend(objects.iter().map(|o| {
            let listed = self.entries.iter().find(|e| e.object == *o);
            listed.map(|e| e.grade)
        }));
        Ok(())
    }
}

/// 300 objects, grades with ties, ids scattered so shards interleave.
fn pairs() -> Vec<(ObjectId, Grade)> {
    (0..300u64)
        .map(|i| (ObjectId(i), Grade::clamped(((i * 37) % 101) as f64 / 100.0)))
        .collect()
}

fn three_shards(healthy: usize) -> ShardedSource<CoreOnly> {
    let runs = partition_pairs(pairs(), 3);
    let fences = runs.iter().map(|run| run[0].0 .0).collect();
    let shards = runs
        .into_iter()
        .map(|run| CoreOnly::new(run).failing_from(healthy));
    ShardedSource::new(shards.collect(), fences)
}

#[test]
fn the_three_method_core_is_the_whole_contract_bare_and_under_every_wrapper() {
    let bare = CoreOnly::new(pairs());
    assert_eq!(validate_source(&bare), Ok(()));
    assert_eq!(validate_source(&&bare), Ok(()));
    assert_eq!(validate_source(&Box::new(CoreOnly::new(pairs()))), Ok(()));
    let shared: Arc<dyn GradedSource> = Arc::new(CoreOnly::new(pairs()));
    assert_eq!(validate_source(&shared), Ok(()));
    let metered = CountingSource::new(CoreOnly::new(pairs()));
    assert_eq!(validate_source(&metered), Ok(()));
    assert_eq!(metered.stats(), AccessStats::new(600, 600));
    assert_eq!(
        validate_source(&ComplementSource::new(CoreOnly::new(pairs()))),
        Ok(())
    );
    let sharded = three_shards(usize::MAX);
    assert_eq!(sharded.shards().len(), 3);
    assert_eq!(validate_source(&sharded), Ok(()));
    // Same stream as the reference source, through the merge as well.
    let (mut want, mut got) = (Vec::new(), Vec::new());
    MemorySource::from_pairs(pairs()).sorted_batch(0, 300, &mut want);
    sharded.sorted_batch(0, 300, &mut got);
    assert_eq!(got, want);
}

/// Every fallible read of a failing stack returns the source's typed
/// error, leaves the caller's buffer as it found it, and bills nothing.
fn assert_fails_typed_and_unbilled<S: GradedSource>(stack: S, what: &str) {
    let metered = CountingSource::new(stack);
    let kept = GradedEntry::new(7usize, g(0.5));
    let mut entries = vec![kept];
    let err = metered.try_sorted_batch(0, 300, &mut entries).unwrap_err();
    assert_eq!(err, CoreOnly::error(), "{what}: sorted");
    let err = metered
        .try_sorted_batch_bounded(0, 300, g(0.2), &mut entries)
        .unwrap_err();
    assert_eq!(err, CoreOnly::error(), "{what}: bounded");
    assert_eq!(entries, [kept], "{what}: sorted output restored");
    let mut grades = vec![Some(g(0.5))];
    let err = metered
        .try_random_batch(&[ObjectId(1), ObjectId(250)], &mut grades)
        .unwrap_err();
    assert_eq!(err, CoreOnly::error(), "{what}: random");
    assert_eq!(grades, [Some(g(0.5))], "{what}: random output restored");
    assert_eq!(metered.stats(), AccessStats::ZERO, "{what}: nothing billed");
}

#[test]
fn a_failing_core_is_a_typed_error_through_every_wrapper() {
    let failing = || CoreOnly::new(pairs()).failing_from(0);
    assert_fails_typed_and_unbilled(failing(), "bare");
    let borrowed = failing();
    assert_fails_typed_and_unbilled(&borrowed, "&");
    assert_fails_typed_and_unbilled(Box::new(failing()), "Box");
    let shared: Arc<dyn GradedSource> = Arc::new(failing());
    assert_fails_typed_and_unbilled(shared, "Arc<dyn>");
    assert_fails_typed_and_unbilled(CountingSource::new(failing()), "CountingSource");
    assert_fails_typed_and_unbilled(ComplementSource::new(failing()), "ComplementSource");
    assert_fails_typed_and_unbilled(three_shards(0), "ShardedSource");

    // The infallible adaptors have no error channel: they panic, and never
    // pass a failure off as a miss or a short read.
    let broken = failing();
    for outcome in [
        std::panic::catch_unwind(|| broken.sorted_access(0).is_none()),
        std::panic::catch_unwind(|| broken.random_access(ObjectId(1)).is_none()),
        std::panic::catch_unwind(|| broken.sorted_batch(0, 4, &mut Vec::new()) == 0),
    ] {
        let message = *outcome.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("core-only failed: injected"), "{message}");
    }
}
