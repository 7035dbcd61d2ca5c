//! The subsystem access model of Section 4.
//!
//! Garlic can interact with a subsystem in exactly two ways:
//!
//! * **Sorted access** — "the subsystem will output the graded set
//!   consisting of all objects, one by one, along with their grades under
//!   the subquery, in sorted order based on grade";
//! * **Random access** — "Garlic could ask the subsystem the grade (with
//!   respect to a query) of any given object".
//!
//! [`GradedSource`] captures that contract. The engine session bills the
//! [`AccessStats`] the Section 5 cost model is defined over;
//! [`CountingSource`] wraps any source and meters what it physically
//! returns, the independent check of that bill. [`SetAccess`] is the extra
//! capability crisp relational subsystems have — enumerating the exact-match
//! set — which enables the "Beatles" filtered strategy of Section 4.
//!
//! # Required core, provided adaptors
//!
//! A source implements **three** methods — [`GradedSource::len`],
//! [`GradedSource::try_sorted_batch`] (sorted access, batched) and
//! [`GradedSource::try_random_batch`] (random access, batched), both
//! fallible. A crisp source adds [`SetAccess`] with an empty block: its
//! [`try_matching_set`](SetAccess::try_matching_set) has one provided body,
//! the grade-1 prefix of the sorted stream. Query engines call nothing
//! else, plus [`GradedSource::degraded`], which has a correct default that
//! a wrapper overrides when it has something to report (a dropped shard).
//!
//! Every other method — the positional
//! [`sorted_access`](GradedSource::sorted_access) /
//! [`random_access`](GradedSource::random_access) of the paper and the
//! infallible `sorted_batch` / `random_batch` / `sorted_batch_bounded` /
//! [`matching_set`](SetAccess::matching_set) — is a **provided adaptor**
//! over that core: the same stream and the same answers, with a typed
//! [`SourceError`] turned into a panic (one message, defined once in this
//! module; never a `None` or a short read). They exist for tests, examples
//! and experiment code over sources that cannot fail. Because the adaptors
//! sit *on top of* the fallible core, a wrapper that forgets to forward a
//! required method does not compile, rather than silently turning a typed
//! error into a panic. One that forgets `try_matching_set` still returns
//! the same set, read through its own sorted access.
//!
//! # The batch contract
//!
//! Production streaming is **batched**: one
//! [`try_sorted_batch`](GradedSource::try_sorted_batch) call appends the
//! next `count` entries of the descending-grade stream from rank `start`;
//! sources backed by a materialised ranking (e.g. [`MemorySource`])
//! satisfy it with a sequential slice walk rather than a per-rank lookup.
//! What every implementation of the core must honour:
//!
//! * **Same stream.** Any way of cutting the stream into batches yields
//!   the same sequence — descending grades, each object exactly once, ties
//!   broken by the source's fixed *skeleton* (for the in-memory sources:
//!   descending grade, then ascending object id). The batch size is an
//!   access-plan choice and must never change the stream;
//!   `sorted_access(rank)` is the batch `(rank, 1)`.
//! * **Batching.** A batch appends up to `count` entries to `out` and
//!   returns how many were appended; a short (or zero) count means the
//!   list is exhausted. Entries are *appended* — the caller owns the buffer
//!   and may reuse it across calls to amortise allocation.
//! * **Failure.** On `Err`, `out` is back at its pre-call length: a failed
//!   read is retryable and hands over nothing, so nothing is billed.
//! * **Resumption.** A stream position is a plain rank: passing it as
//!   `start` resumes the stream there, which is what makes paging sessions
//!   ("continue where we left off", Section 4) restartable across batches
//!   and across process boundaries.
//! * **Metering.** The Section 5 sorted-access cost `S` counts *entries*,
//!   not calls: a batch of 50 entries is 50 sorted accesses. The query path
//!   has one meter, the engine session, which bills each entry when it
//!   folds it ([`crate::algorithms::engine`]), not when it fetches it: the
//!   engine fetches each list to the end of a [`SORTED_WINDOW`]-rank
//!   window and folds only what the positional loop would read.
//!   [`CountingSource`] counts each entry a source returns, updating its
//!   counter once per batch: the physical reads, which are exactly the
//!   session's bill plus the entries it fetched and has not folded
//!   ([`EngineSession::unfolded`](crate::EngineSession::unfolded)). The
//!   tests wrap lists in it to check that identity.
//!
//! Random access is batched the same way:
//! [`GradedSource::try_random_batch`] answers many probes in one call,
//! positionally aligned with its input, with each *hit* billed as one
//! Section 5 random access — so block-backed sources can group probes by
//! block without changing a single measured count. `random_access(object)`
//! is the batch `[object]`.
//!
//! # The bounded read
//!
//! [`GradedSource::try_sorted_batch_bounded`] takes an advisory stop
//! threshold: a source *may* stop once every remaining entry grades
//! strictly below it. No source does. Its one provided body is
//! [`try_sorted_batch`](GradedSource::try_sorted_batch) with
//! [`BoundedBatch::truncated`] `false`, so it returns and bills exactly
//! what the plain read does. An early stop could only ever have trimmed
//! the last batch of a list, because the engine reads each list's exact
//! positional prefix and stops at a batch boundary by itself. The method
//! and [`BoundedBatch`] keep their names and signatures for wrappers
//! written against them; no query path calls them.
//!
//! # Threading
//!
//! Garlic is a multi-user middleware: many queries run concurrently over
//! one shared catalog of subsystems. [`GradedSource`] therefore requires
//! `Send + Sync` — a source is an owned, shareable handle (typically an
//! `Arc<dyn GradedSource>`), not a borrow into a single-threaded subsystem
//! — and [`CountingSource`] meters with atomic counters so a metered source
//! can be read from worker threads while still reporting exact Section 5
//! access counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::Grade;

use crate::cost::AccessStats;
use crate::graded_set::{GradedEntry, GradedSet};
use crate::object::ObjectId;

/// A typed runtime failure from a source read.
///
/// In-memory sources never fail; disk-backed sources surface I/O errors
/// (after their own retry policy is exhausted) as a `SourceError`.
/// `quarantined` distinguishes a source that has poisoned itself — every
/// subsequent read fails fast with the same error — from a one-off failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError {
    /// Which source failed (a path or label, best-effort).
    pub source: String,
    /// Human-readable failure detail (the underlying I/O or corruption
    /// error).
    pub detail: String,
    /// `true` when the source has marked itself permanently unhealthy and
    /// will fail fast on every subsequent read.
    pub quarantined: bool,
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.quarantined {
            write!(f, "source {} is quarantined: {}", self.source, self.detail)
        } else {
            write!(f, "source {} failed: {}", self.source, self.detail)
        }
    }
}

impl std::error::Error for SourceError {}

/// Where every infallible adaptor ends when the fallible core fails: the
/// caller chose a signature with no error channel.
fn infallible(e: SourceError) -> ! {
    panic!("read failed on an infallible adaptor (the try_* methods return this as a typed error): {e}")
}

/// A subsystem's view of one atomic query: a graded set reachable through
/// sorted access and random access.
///
/// **Required** (3): [`len`](GradedSource::len),
/// [`try_sorted_batch`](GradedSource::try_sorted_batch),
/// [`try_random_batch`](GradedSource::try_random_batch). Everything else is
/// **provided** on top of those (see the module docs): override
/// [`degraded`](GradedSource::degraded) on wrappers, and leave the
/// infallible and positional adaptors alone. A source written against the
/// positional pair alone no longer compiles:
///
/// ```compile_fail,E0046
/// use garlic_agg::Grade;
/// use garlic_core::access::GradedSource;
/// use garlic_core::{GradedEntry, ObjectId};
///
/// struct Positional;
/// impl GradedSource for Positional {
///     fn len(&self) -> usize {
///         0
///     }
///     fn sorted_access(&self, _rank: usize) -> Option<GradedEntry> {
///         None
///     }
///     fn random_access(&self, _object: ObjectId) -> Option<Grade> {
///         None
///     }
/// }
/// ```
///
/// Sorted access is *positional* (`start` is a 0-based rank); this models
/// "ask for the top 10, then the next 10" as well as one-by-one streaming,
/// and makes instrumentation and resumption trivial. Every object in the
/// database is graded (possibly with grade 0), so `len()` is the database
/// size `N`.
///
/// Sources are `Send + Sync`: a graded answer is an owned handle that many
/// concurrent queries may read simultaneously through `&self`.
pub trait GradedSource: Send + Sync {
    /// **Required.** The number of graded objects (the database size `N`).
    fn len(&self) -> usize;

    /// **Required.** Batched sorted access: appends up to `count` entries
    /// of the descending-grade stream, starting at rank `start`, to `out`
    /// and returns how many were appended. A short count means the list is
    /// exhausted. Tie order is fixed by the source (the paper's
    /// *skeleton*); see the module docs for the full batch contract.
    ///
    /// A read failure is a typed [`SourceError`] and leaves `out` at its
    /// pre-call length. Sources that cannot fail always return `Ok`.
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError>;

    /// **Required.** Batched random access: appends one `Option<Grade>`
    /// per probe to `out`, positionally aligned with `objects` (so `out`
    /// grows by exactly `objects.len()`); `None` answers an unknown
    /// object. Probes may repeat and may miss; each is answered — and each
    /// hit billed by [`CountingSource`] — on its own, but an implementation
    /// may reorder its internal I/O: [`SegmentSource`] groups probes by
    /// table block so each cached block is fetched and decoded once per
    /// batch, not once per probe.
    ///
    /// A read failure is a typed [`SourceError`] and leaves `out` at its
    /// pre-call length.
    ///
    /// [`SegmentSource`]: https://docs.rs/garlic-storage
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError>;

    /// Batched sorted access with an advisory stop threshold (see the
    /// module docs). A source may stop once every remaining entry grades
    /// strictly below `bound`, and [`BoundedBatch::truncated`] would say it
    /// did. This body never stops early: it is
    /// [`try_sorted_batch`](GradedSource::try_sorted_batch) with
    /// `truncated: false`, the same entries and the same bill. It is kept
    /// for wrappers that override it by name; no backend overrides it and
    /// no query path calls it.
    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        _bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        let appended = self.try_sorted_batch(start, count, out)?;
        Ok(BoundedBatch {
            appended,
            truncated: false,
        })
    }

    /// Whether this source has dropped part of its data and is serving a
    /// *degraded* stream (e.g. a sharded source that lost a quarantined
    /// shard and now grades that shard's objects as zero). Results computed
    /// over a degraded source are correct for the surviving data but must
    /// be flagged to the caller. Wrappers forward it; a source of its own
    /// data is never degraded.
    fn degraded(&self) -> bool {
        false
    }

    /// Whether the source grades no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adaptor: the paper's positional sorted access — the `rank`-th entry
    /// (0-based) of the stream, or `None` past the end. One
    /// [`try_sorted_batch`](GradedSource::try_sorted_batch) of one entry.
    ///
    /// # Panics
    /// Panics if the read fails, like every infallible adaptor below.
    fn sorted_access(&self, rank: usize) -> Option<GradedEntry> {
        let mut one = Vec::with_capacity(1);
        self.try_sorted_batch(rank, 1, &mut one)
            .unwrap_or_else(|e| infallible(e));
        one.pop()
    }

    /// Adaptor: the paper's per-object random access — the grade of
    /// `object`, or `None` for an unknown object. One
    /// [`try_random_batch`](GradedSource::try_random_batch) of one probe.
    fn random_access(&self, object: ObjectId) -> Option<Grade> {
        let mut one = Vec::with_capacity(1);
        self.try_random_batch(&[object], &mut one)
            .unwrap_or_else(|e| infallible(e));
        one.pop().flatten()
    }

    /// Adaptor: [`try_sorted_batch`](GradedSource::try_sorted_batch) for
    /// callers without an error channel.
    fn sorted_batch(&self, start: usize, count: usize, out: &mut Vec<GradedEntry>) -> usize {
        self.try_sorted_batch(start, count, out)
            .unwrap_or_else(|e| infallible(e))
    }

    /// Adaptor: [`try_random_batch`](GradedSource::try_random_batch) for
    /// callers without an error channel.
    fn random_batch(&self, objects: &[ObjectId], out: &mut Vec<Option<Grade>>) {
        self.try_random_batch(objects, out)
            .unwrap_or_else(|e| infallible(e))
    }

    /// Adaptor:
    /// [`try_sorted_batch_bounded`](GradedSource::try_sorted_batch_bounded)
    /// for callers without an error channel.
    fn sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> BoundedBatch {
        self.try_sorted_batch_bounded(start, count, bound, out)
            .unwrap_or_else(|e| infallible(e))
    }
}

/// What [`GradedSource::try_sorted_batch_bounded`] did: how many entries
/// were appended and whether the source stopped early because the rest of
/// the stream provably grades below the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedBatch {
    /// Entries appended to the output, starting at the requested rank.
    pub appended: usize,
    /// `true` when the source stopped because every remaining entry
    /// grades strictly below the bound. The provided read never stops
    /// early, so it is always `false` there.
    pub truncated: bool,
}

/// Ranks per sorted read window: one default 4 KiB segment block of
/// 16-byte entries. [`SetAccess::try_matching_set`]'s provided body reads
/// in chunks of this size, and the engine fetches a list to the end of the
/// window that holds a round's last folded rank
/// ([`crate::algorithms::engine`]), so a block-backed list decodes each
/// block it reads once and never loads a block the fold does not reach.
pub const SORTED_WINDOW: usize = 256;

/// Extra capability of crisp sources: enumerate every object whose grade is
/// exactly 1 (the classical relation "result set"). Powers the filtered
/// conjunction strategy of Section 4.
///
/// The match set is the **grade-1 prefix** of the sorted stream, in stream
/// order — which is ascending object id, because grade-1 ties break by id
/// — and it costs exactly its size in sorted accesses. The one provided
/// body of [`try_matching_set`](SetAccess::try_matching_set) reads it off
/// [`try_sorted_batch`](GradedSource::try_sorted_batch), so a backend
/// implements `SetAccess` with an empty block; an override only forwards
/// to the wrapped source (and, in [`CountingSource`], bills what it got).
pub trait SetAccess: GradedSource {
    /// All objects with grade 1, in stream order: the sorted stream read in
    /// fixed chunks up to its first grade below 1 (or its end). A read
    /// failure is a typed [`SourceError`].
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        let mut set = Vec::new();
        let mut chunk = Vec::with_capacity(SORTED_WINDOW);
        loop {
            chunk.clear();
            self.try_sorted_batch(set.len(), SORTED_WINDOW, &mut chunk)?;
            let ones = chunk.iter().take_while(|e| e.grade == Grade::ONE).count();
            set.extend(chunk[..ones].iter().map(|e| e.object));
            if ones < SORTED_WINDOW {
                return Ok(set);
            }
        }
    }

    /// Adaptor: [`try_matching_set`](SetAccess::try_matching_set) for
    /// callers without an error channel; panics if the read fails.
    fn matching_set(&self) -> Vec<ObjectId> {
        self.try_matching_set().unwrap_or_else(|e| infallible(e))
    }
}

/// An in-memory [`GradedSource`] over a [`GradedSet`], with a hash index for
/// O(1) random access. The workhorse source for workloads and tests.
///
/// The index is keyed by the vendored [`crate::fx`] hash: object ids are
/// process-internal keys, so the hot random-access path skips SipHash
/// entirely.
#[derive(Debug, Clone)]
pub struct MemorySource {
    set: GradedSet,
    index: crate::fx::FxHashMap<ObjectId, Grade>,
}

impl MemorySource {
    /// Builds the source (and its random-access index) from a graded set.
    pub fn new(set: GradedSet) -> Self {
        let index = set.iter().map(|e| (e.object, e.grade)).collect();
        MemorySource { set, index }
    }

    /// Builds from `(object, grade)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ObjectId, Grade)>) -> Self {
        MemorySource::new(GradedSet::from_pairs(pairs))
    }

    /// Builds from a dense grade vector (object `i` gets `grades[i]`).
    pub fn from_grades(grades: &[Grade]) -> Self {
        MemorySource::new(GradedSet::from_grades(grades))
    }

    /// The underlying graded set.
    pub fn graded_set(&self) -> &GradedSet {
        &self.set
    }
}

impl GradedSource for MemorySource {
    fn len(&self) -> usize {
        self.set.len()
    }

    /// One bounds-checked slice copy per batch.
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let entries = self.set.as_slice();
        let start = start.min(entries.len());
        let end = start.saturating_add(count).min(entries.len());
        out.extend_from_slice(&entries[start..end]);
        Ok(end - start)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        out.extend(objects.iter().map(|o| self.index.get(o).copied()));
        Ok(())
    }
}

impl SetAccess for MemorySource {}

/// Wraps a source and counts the accesses it physically answers: every
/// entry a sorted read returns, every probe answered with a grade, and
/// `|S|` for a match set. Under an engine session that is the session's
/// Section 5 bill plus the entries the session fetched ahead and has not
/// folded yet ([`EngineSession::unfolded`](crate::EngineSession::unfolded)),
/// so the bill itself is read from the session
/// ([`EngineSession::per_source_stats`](crate::EngineSession::per_source_stats)).
/// Uses atomic counters so the counted source still implements
/// [`GradedSource`] by shared reference — including shared *across threads*:
/// each access kind counts exactly one increment per entry obtained, so the
/// totals are identical whether the source was read sequentially or from a
/// parallel sorted phase, in batches or through the positional adaptors.
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    sorted: AtomicU64,
    random: AtomicU64,
}

impl<S: GradedSource> CountingSource<S> {
    /// Wraps a source with zeroed counters.
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            sorted: AtomicU64::new(0),
            random: AtomicU64::new(0),
        }
    }

    /// The access counts so far.
    pub fn stats(&self) -> AccessStats {
        AccessStats {
            sorted: self.sorted.load(Ordering::Relaxed),
            random: self.random.load(Ordering::Relaxed),
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.sorted.store(0, Ordering::Relaxed);
        self.random.store(0, Ordering::Relaxed);
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, discarding the counters.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

/// Every path bills what `out` gained, with one counter update per call:
/// entries for the sorted kind, hits for the random kind. A failed read
/// hands over nothing (the core's contract), so it bills nothing.
impl<S: GradedSource> GradedSource for CountingSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let before = out.len();
        let result = self.inner.try_sorted_batch(start, count, out);
        self.sorted
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
        result
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        let before = out.len();
        let result = self.inner.try_random_batch(objects, out);
        let hits = out[before..].iter().filter(|g| g.is_some()).count();
        self.random.fetch_add(hits as u64, Ordering::Relaxed);
        result
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
}

impl<S: SetAccess> SetAccess for CountingSource<S> {
    /// Enumerating the match set retrieves |set| objects from the
    /// subsystem; bill it as sorted access (it is a prefix of the sorted
    /// order: exactly the grade-1 block).
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        let set = self.inner.try_matching_set()?;
        self.sorted.fetch_add(set.len() as u64, Ordering::Relaxed);
        Ok(set)
    }
}

/// Wraps each source of a workload in a [`CountingSource`].
pub fn counted<S: GradedSource>(sources: Vec<S>) -> Vec<CountingSource<S>> {
    sources.into_iter().map(CountingSource::new).collect()
}

/// Sums the stats of a slice of counted sources.
pub fn total_stats<S: GradedSource>(sources: &[CountingSource<S>]) -> AccessStats {
    sources.iter().map(|s| s.stats()).sum()
}

/// `&S`, `Box<S>` and `Arc<S>` are sources when `S` is: each forwards the
/// required core plus [`GradedSource::degraded`], so the pointee's
/// degradation flag is reached; the adaptors then sit on the forwarded
/// core. `Arc<dyn GradedSource>` is the canonical *owned*
/// answer handle a subsystem returns: cheap to clone, `'static`, and
/// shareable across the threads of a concurrent service.
macro_rules! forward_access {
    ($($pointer:ty),*) => {$(
        impl<S: GradedSource + ?Sized> GradedSource for $pointer {
            fn len(&self) -> usize {
                (**self).len()
            }
            fn try_sorted_batch(
                &self,
                start: usize,
                count: usize,
                out: &mut Vec<GradedEntry>,
            ) -> Result<usize, SourceError> {
                (**self).try_sorted_batch(start, count, out)
            }
            fn try_random_batch(
                &self,
                objects: &[ObjectId],
                out: &mut Vec<Option<Grade>>,
            ) -> Result<(), SourceError> {
                (**self).try_random_batch(objects, out)
            }
            fn degraded(&self) -> bool {
                (**self).degraded()
            }
        }

        impl<S: SetAccess + ?Sized> SetAccess for $pointer {
            fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
                (**self).try_matching_set()
            }
        }
    )*};
}

forward_access!(&S, Box<S>, Arc<S>);

#[cfg(test)]
mod tests {
    use super::*;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn source() -> MemorySource {
        MemorySource::from_grades(&[g(0.2), g(0.9), g(0.5), g(1.0)])
    }

    #[test]
    fn sorted_access_descends() {
        let s = source();
        assert_eq!(s.sorted_access(0).unwrap().object, ObjectId(3));
        assert_eq!(s.sorted_access(1).unwrap().object, ObjectId(1));
        assert_eq!(s.sorted_access(4), None);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn random_access_looks_up() {
        let s = source();
        assert_eq!(s.random_access(ObjectId(2)), Some(g(0.5)));
        assert_eq!(s.random_access(ObjectId(99)), None);
    }

    #[test]
    fn matching_set_is_grade_one_block() {
        let s = source();
        assert_eq!(s.matching_set(), vec![ObjectId(3)]);
    }

    #[test]
    fn matching_set_is_the_brute_force_grade_one_ids() {
        /// Meters what the provided body reads: it overrides nothing of
        /// `SetAccess`, so the body runs over the counted sorted reads.
        struct Reads(CountingSource<MemorySource>);
        impl GradedSource for Reads {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn try_sorted_batch(
                &self,
                start: usize,
                count: usize,
                out: &mut Vec<GradedEntry>,
            ) -> Result<usize, SourceError> {
                self.0.try_sorted_batch(start, count, out)
            }
            fn try_random_batch(
                &self,
                objects: &[ObjectId],
                out: &mut Vec<Option<Grade>>,
            ) -> Result<(), SourceError> {
                self.0.try_random_batch(objects, out)
            }
        }
        impl SetAccess for Reads {}

        const N: usize = 600;
        for ones in [0, 1, 255, 256, 257, N] {
            // 7919 is prime to N, so `i * 7919 % N` permutes the ids and
            // exactly `ones` of them fall below `ones`; the rest grade just
            // under 1 or 0.
            let grades: Vec<Grade> = (0..N)
                .map(|i| match (i * 7919 % N < ones, i % 2) {
                    (true, _) => Grade::ONE,
                    (false, 0) => g(0.999),
                    (false, _) => Grade::ZERO,
                })
                .collect();
            let want: Vec<ObjectId> = (0..N)
                .filter(|&i| grades[i] == Grade::ONE)
                .map(|i| ObjectId(i as u64))
                .collect();
            assert_eq!(want.len(), ones);
            let reads = Reads(CountingSource::new(MemorySource::from_grades(&grades)));
            assert_eq!(reads.matching_set(), want, "{ones} ones");
            // Whole chunks up to the one holding the first grade below 1,
            // and never past the end of the list.
            let read = (ones / SORTED_WINDOW + 1) * SORTED_WINDOW;
            assert_eq!(reads.0.stats(), AccessStats::new(read.min(N) as u64, 0));
            let counted = CountingSource::new(reads.0.into_inner());
            assert_eq!(counted.matching_set(), want);
            assert_eq!(counted.stats(), AccessStats::new(ones as u64, 0));
        }
    }

    #[test]
    fn counting_meters_both_kinds() {
        let c = CountingSource::new(source());
        c.sorted_access(0);
        c.sorted_access(1);
        c.random_access(ObjectId(0));
        assert_eq!(c.stats(), AccessStats::new(2, 1));
        c.reset();
        assert_eq!(c.stats(), AccessStats::ZERO);
    }

    #[test]
    fn failed_accesses_do_not_count() {
        let c = CountingSource::new(source());
        c.sorted_access(100);
        c.random_access(ObjectId(100));
        assert_eq!(c.stats(), AccessStats::ZERO);
    }

    #[test]
    fn set_access_billed_as_sorted() {
        let c = CountingSource::new(source());
        let set = c.matching_set();
        assert_eq!(set.len(), 1);
        assert_eq!(c.stats(), AccessStats::new(1, 0));
    }

    #[test]
    fn total_stats_sums() {
        let sources = counted(vec![source(), source()]);
        sources[0].sorted_access(0);
        sources[1].random_access(ObjectId(1));
        assert_eq!(total_stats(&sources), AccessStats::new(1, 1));
    }

    #[test]
    fn cursor_streams_the_positional_order() {
        // The stream position is the number of entries read so far.
        let s = source();
        let mut batch = Vec::new();
        assert_eq!(s.sorted_batch(batch.len(), 3, &mut batch), 3);
        assert_eq!(
            s.sorted_batch(batch.len(), 3, &mut batch),
            1,
            "short batch at end"
        );
        assert_eq!(s.sorted_batch(batch.len(), 3, &mut batch), 0, "exhausted");
        let positional: Vec<GradedEntry> = (0..4).map(|r| s.sorted_access(r).unwrap()).collect();
        assert_eq!(batch, positional);
    }

    #[test]
    fn cursor_resumes_at_an_arbitrary_rank() {
        let s = source();
        let mut batch = Vec::new();
        assert_eq!(s.sorted_batch(2, 10, &mut batch), 2);
        assert_eq!(batch[0], s.sorted_access(2).unwrap());
    }

    #[test]
    fn batched_metering_bills_entries_not_calls() {
        let c = CountingSource::new(source());
        let mut out = Vec::new();
        assert_eq!(c.sorted_batch(0, 3, &mut out), 3);
        assert_eq!(c.stats(), AccessStats::new(3, 0), "3 entries = 3 accesses");
        // Overrunning the end bills only what was actually obtained.
        assert_eq!(c.sorted_batch(3, 10, &mut out), 1);
        assert_eq!(c.stats(), AccessStats::new(4, 0));
        assert_eq!(c.sorted_batch(4, 10, &mut out), 0);
        assert_eq!(c.stats(), AccessStats::new(4, 0));
    }

    #[test]
    fn batched_metering_matches_per_rank_metering() {
        let per_rank = CountingSource::new(source());
        for r in 0..4 {
            per_rank.sorted_access(r);
        }
        let batched = CountingSource::new(source());
        let mut out = Vec::new();
        while batched.sorted_batch(out.len(), 2, &mut out) > 0 {}
        assert_eq!(per_rank.stats(), batched.stats());
    }

    #[test]
    fn default_sorted_batch_agrees_with_native() {
        /// A source whose core resolves one rank (one probe) at a time.
        struct Positional(MemorySource);
        impl GradedSource for Positional {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn try_sorted_batch(
                &self,
                start: usize,
                count: usize,
                out: &mut Vec<GradedEntry>,
            ) -> Result<usize, SourceError> {
                let before = out.len();
                let ranks = start..start.saturating_add(count);
                out.extend(ranks.map_while(|rank| self.0.sorted_access(rank)));
                Ok(out.len() - before)
            }
            fn try_random_batch(
                &self,
                objects: &[ObjectId],
                out: &mut Vec<Option<Grade>>,
            ) -> Result<(), SourceError> {
                out.extend(objects.iter().map(|&object| self.0.random_access(object)));
                Ok(())
            }
        }
        let native = source();
        let fallback = Positional(source());
        for (start, count) in [(0, 2), (1, 3), (3, 5), (4, 1), (9, 2)] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            assert_eq!(
                native.sorted_batch(start, count, &mut a),
                fallback.sorted_batch(start, count, &mut b)
            );
            assert_eq!(a, b, "start {start} count {count}");
        }
    }

    #[test]
    fn bounded_batch_is_a_prefix_and_truncation_is_honest() {
        // Descending grades 1.0, 0.9, ..., 0.1 over 10 objects.
        let grades: Vec<Grade> = (1..=10).map(|i| g(i as f64 / 10.0)).collect();
        let s = MemorySource::from_grades(&grades);
        let mut full = Vec::new();
        s.sorted_batch(0, 10, &mut full);
        for bound in [0.05, 0.35, 0.75, 1.0] {
            let bound = g(bound);
            let mut bounded = Vec::new();
            let result = s.sorted_batch_bounded(0, 10, bound, &mut bounded);
            assert_eq!(result.appended, bounded.len());
            assert_eq!(bounded, full[..result.appended], "prefix for bound {bound}");
            // The bound is advisory and no source stops early: the prefix
            // is the whole batch and nothing claims a truncation.
            assert!(!result.truncated, "bound {bound} truncated");
            assert_eq!(bounded, full, "bound {bound} withheld entries");
        }
        let mut all = Vec::new();
        let result = s.sorted_batch_bounded(0, 100, Grade::ZERO, &mut all);
        assert_eq!(
            result,
            BoundedBatch {
                appended: 10,
                truncated: false
            }
        );
    }

    #[test]
    fn bounded_billing_charges_entries_obtained() {
        let grades: Vec<Grade> = (1..=8).map(|i| g(i as f64 / 8.0)).collect();
        let c = CountingSource::new(MemorySource::from_grades(&grades));
        let mut out = Vec::new();
        let result = c.sorted_batch_bounded(0, 8, g(0.99), &mut out);
        assert_eq!(result.appended, 8);
        assert_eq!(c.stats(), AccessStats::new(result.appended as u64, 0));
    }

    #[test]
    fn bounded_cursor_resumes_the_exact_stream_after_a_dirty_hint() {
        let grades: Vec<Grade> = (1..=20).map(|i| g(i as f64 / 20.0)).collect();
        let s = MemorySource::from_grades(&grades);
        let mut full = Vec::new();
        s.sorted_batch(0, 20, &mut full);
        // A deliberately dirty (too-high) hint: every grade but one is
        // below it, yet the read ignores it and streams on.
        let mut streamed = Vec::new();
        let stopped = loop {
            let read = s.sorted_batch_bounded(streamed.len(), 4, g(0.95), &mut streamed);
            if read.truncated || read.appended < 4 {
                break read.truncated;
            }
        };
        assert!(!stopped, "short batch came from the end of the list");
        assert_eq!(streamed, full, "the hinted cursor is the exact stream");
        // Resuming unbounded from the position reached adds nothing more.
        while s.sorted_batch(streamed.len(), 4, &mut streamed) > 0 {}
        assert_eq!(streamed, full, "dirty hint left the identical stream");
    }

    #[test]
    fn random_batch_aligns_with_probes_including_misses_and_duplicates() {
        let s = source();
        let probes = [
            ObjectId(2),
            ObjectId(99), // miss
            ObjectId(2),  // duplicate
            ObjectId(0),
        ];
        let mut out = vec![Some(g(1.0))]; // pre-existing entry must survive
        s.random_batch(&probes, &mut out);
        assert_eq!(
            out,
            vec![Some(g(1.0)), Some(g(0.5)), None, Some(g(0.5)), Some(g(0.2))]
        );
    }

    #[test]
    fn random_batch_billing_matches_per_object_loop() {
        let probes = [ObjectId(0), ObjectId(7), ObjectId(1), ObjectId(1)];
        let looped = CountingSource::new(source());
        for &p in &probes {
            looped.random_access(p);
        }
        let batched = CountingSource::new(source());
        let mut out = Vec::new();
        batched.random_batch(&probes, &mut out);
        // 3 hits (object 7 misses), billed identically either way.
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(batched.stats(), AccessStats::new(0, 3));
    }

    #[test]
    fn arc_dyn_sources_are_owned_shareable_handles() {
        let arc: Arc<dyn GradedSource> = Arc::new(source());
        let clone = Arc::clone(&arc);
        let mut out = Vec::new();
        assert_eq!(clone.sorted_batch(0, 4, &mut out), 4);
        assert_eq!(out[0], arc.sorted_access(0).unwrap());
        let crisp: Arc<dyn SetAccess> = Arc::new(source());
        assert_eq!(crisp.matching_set(), vec![ObjectId(3)]);
    }

    #[test]
    fn concurrent_metering_bills_exactly_like_sequential() {
        let c = CountingSource::new(source());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    assert_eq!(c.sorted_batch(0, 4, &mut out), 4);
                    assert_eq!(c.random_access(ObjectId(0)), Some(g(0.2)));
                });
            }
        });
        // 4 threads × (4 sorted entries + 1 random hit), no lost updates.
        assert_eq!(c.stats(), AccessStats::new(16, 4));
    }

    #[test]
    fn boxed_dyn_sources_use_the_native_batch_path() {
        let boxed: Box<dyn GradedSource> = Box::new(source());
        let mut out = Vec::new();
        assert_eq!(boxed.sorted_batch(0, 4, &mut out), 4);
        assert_eq!(out[0], boxed.sorted_access(0).unwrap());
        let mut native = Vec::new();
        source().sorted_batch(0, 4, &mut native);
        assert_eq!(native, out);
    }
}
