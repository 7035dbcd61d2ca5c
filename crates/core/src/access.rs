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
//! [`GradedSource`] captures that contract. [`CountingSource`] wraps any
//! source and meters both access kinds, producing the [`AccessStats`] the
//! Section 5 cost model is defined over. [`SetAccess`] is the extra
//! capability crisp relational subsystems have — enumerating the exact-match
//! set — which enables the "Beatles" filtered strategy of Section 4.
//!
//! # Required core, provided adaptors
//!
//! A source implements **three** methods — [`GradedSource::len`],
//! [`GradedSource::try_sorted_batch`] (sorted access, batched) and
//! [`GradedSource::try_random_batch`] (random access, batched), both
//! fallible — and a crisp source one more,
//! [`SetAccess::try_matching_set`]. Query engines call nothing else, plus
//! [`GradedSource::try_sorted_batch_bounded`] and
//! [`GradedSource::degraded`], which have correct defaults a source
//! overrides only when it can do better (skip metadata) or has something
//! to report (a dropped shard).
//!
//! Every other method — the positional
//! [`sorted_access`](GradedSource::sorted_access) /
//! [`random_access`](GradedSource::random_access) of the paper, the
//! infallible `sorted_batch` / `random_batch` / `sorted_batch_bounded` /
//! [`matching_set`](SetAccess::matching_set), and
//! [`open_sorted`](GradedSource::open_sorted) — is a **provided adaptor**
//! over that core: the same stream and the same answers, with a typed
//! [`SourceError`] turned into a panic (one message, defined once in this
//! module; never a `None` or a short read). They exist for tests, examples
//! and experiment code over sources that cannot fail. Because the adaptors
//! sit *on top of* the fallible core, a wrapper that forgets to forward a
//! fallible method does not compile, rather than silently turning a typed
//! error into a panic.
//!
//! # The cursor contract
//!
//! Production streaming goes through **cursors**:
//! [`GradedSource::open_sorted`] yields a [`SortedCursor`] whose
//! [`try_next_batch`](SortedCursor::try_next_batch) appends the next `n`
//! entries of the descending-grade stream in one
//! [`try_sorted_batch`](GradedSource::try_sorted_batch) call; sources backed
//! by a materialised ranking (e.g. [`MemorySource`]) satisfy it with a
//! sequential slice walk rather than a per-rank lookup. What every
//! implementation of the core must honour:
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
//! * **Resumption.** A cursor is a plain rank position
//!   ([`SortedCursor::position`]); [`SortedCursor::at`] reopens a stream at
//!   any rank, which is what makes paging sessions ("continue where we left
//!   off", Section 4) restartable across batches and across process
//!   boundaries.
//! * **Metering.** [`CountingSource`] bills each *entry* obtained, not each
//!   call: a batch of 50 entries counts as 50 sorted accesses — exactly the
//!   Section 5 sorted-access cost `S` — while updating its counter once per
//!   batch.
//!
//! Random access is batched the same way:
//! [`GradedSource::try_random_batch`] answers many probes in one call,
//! positionally aligned with its input, with each *hit* billed as one
//! Section 5 random access — so block-backed sources can group probes by
//! block without changing a single measured count. `random_access(object)`
//! is the batch `[object]`.
//!
//! # Threshold hints
//!
//! Once an engine knows its current *k-th score frontier* — the grade of
//! the worst entry that could still matter — deeper stream entries below
//! that grade can never change the answer.
//! [`GradedSource::try_sorted_batch_bounded`] carries that knowledge to the
//! source as an **advisory bound**: the source may stop early once it can
//! *prove* every remaining entry grades strictly below the bound
//! (disk-backed sources prove it from per-block grade fences without even
//! loading the blocks). The provided default reads
//! [`try_sorted_batch`](GradedSource::try_sorted_batch) in chunks and stops
//! after the first chunk that ends below the bound; sources with skip
//! metadata, and wrappers that must pass the hint through, override it.
//! The hint never changes *which* entries are emitted — the output is
//! always an exact prefix of the unbounded stream, same entries, same tie
//! order — and [`CountingSource`] bills exactly the entries obtained, so
//! Section 5 accounting is identical for the entries actually consumed. A
//! *dirty* hint (a bound higher than the true frontier) is therefore
//! harmless: the caller sees [`BoundedBatch::truncated`], knows the
//! suppressed suffix grades below the bound, and can resume unbounded from
//! `start + appended` to recover the identical full stream. No grade is
//! strictly below [`Grade::ZERO`], so a zero bound is "no bound".
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
/// [`try_sorted_batch_bounded`](GradedSource::try_sorted_batch_bounded) to
/// use skip metadata or pass a hint through a wrapper, and
/// [`degraded`](GradedSource::degraded) on wrappers; leave the infallible
/// and positional adaptors alone. A source written against the positional
/// pair alone no longer compiles:
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
    /// *skeleton*); see the module docs for the full cursor contract.
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

    /// Batched sorted access with an advisory stop-threshold (see the
    /// module docs): appends up to `count` entries starting at `start`,
    /// exactly like [`try_sorted_batch`](GradedSource::try_sorted_batch),
    /// but the source may stop early once it can prove that every
    /// remaining entry in the stream grades **strictly below** `bound`.
    /// The entries appended are always an exact prefix of the unbounded
    /// stream (same entries, same tie order); entries below the bound *may*
    /// still be emitted (implementations stop at their natural granularity,
    /// e.g. a block boundary) — the bound is a permission to stop, never a
    /// filter.
    ///
    /// Returns the number appended plus whether the source stopped because
    /// of the bound ([`BoundedBatch::truncated`] — the remaining suffix
    /// provably grades below `bound`) rather than because the request was
    /// satisfied or the stream ended.
    ///
    /// The default walks [`try_sorted_batch`](GradedSource::try_sorted_batch)
    /// in chunks and stops after the first chunk whose final (least) entry
    /// falls below the bound — correct for any source, since the stream
    /// descends. Sources with skip metadata (block grade fences) override
    /// it to avoid even loading provably useless regions.
    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        const CHUNK: usize = 256;
        let base = out.len();
        let mut appended = 0;
        let mut below = false;
        while appended < count && !below {
            let take = (count - appended).min(CHUNK);
            let got = self
                .try_sorted_batch(start + appended, take, out)
                .inspect_err(|_| out.truncate(base))?;
            appended += got;
            if got < take {
                break;
            }
            // The stream descends, so once its tail entry dips below the
            // bound every deeper entry is provably below it too.
            below = out.last().is_some_and(|e| e.grade < bound);
        }
        Ok(BoundedBatch {
            appended,
            truncated: below,
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

    /// Opens a [`SortedCursor`] over this source's descending-grade stream,
    /// positioned at rank 0.
    fn open_sorted(&self) -> SortedCursor<'_, Self>
    where
        Self: Sized,
    {
        SortedCursor::new(self)
    }
}

/// What [`GradedSource::try_sorted_batch_bounded`] did: how many entries
/// were appended and whether the source stopped early because the rest of
/// the stream provably grades below the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedBatch {
    /// Entries appended to the output — an exact prefix of the unbounded
    /// stream starting at the requested rank.
    pub appended: usize,
    /// `true` when the source stopped because every remaining entry
    /// grades strictly below the bound; `false` when the request was
    /// satisfied or the stream is exhausted.
    pub truncated: bool,
}

/// A streaming cursor over one source's sorted order: the stateful face of
/// [`GradedSource::try_sorted_batch`]. See the module docs for the contract
/// (batching, resumption, tie order = the source's skeleton).
///
/// A cursor may carry an advisory **stop-threshold bound** (typically the
/// engine's current k-th score frontier, via
/// [`with_bound`](SortedCursor::with_bound)): batches then go through
/// [`GradedSource::try_sorted_batch_bounded`], letting the source stop —
/// and a fence-aware source skip whole blocks — once the rest of the stream
/// provably grades below the bound. The emitted entries stay an exact
/// prefix of the unbounded stream; after a short batch,
/// [`stopped_by_bound`](SortedCursor::stopped_by_bound) distinguishes
/// "suffix provably below the bound" from "stream exhausted", and clearing
/// the bound resumes the untruncated remainder from the same position
/// (the dirty-hint recovery path).
///
/// The cursor also implements [`Iterator`] for one-at-a-time consumption
/// (which ignores any bound and panics on a read failure); prefer
/// [`try_next_batch`](SortedCursor::try_next_batch) on hot paths.
#[derive(Debug)]
pub struct SortedCursor<'a, S: ?Sized> {
    source: &'a S,
    position: usize,
    bound: Option<Grade>,
    stopped_by_bound: bool,
}

impl<'a, S: GradedSource + ?Sized> SortedCursor<'a, S> {
    /// Opens a cursor at rank 0.
    pub fn new(source: &'a S) -> Self {
        SortedCursor::at(source, 0)
    }

    /// Reopens a cursor at an arbitrary rank — resumption for paging
    /// sessions that stopped at a known depth.
    pub fn at(source: &'a S, position: usize) -> Self {
        SortedCursor {
            source,
            position,
            bound: None,
            stopped_by_bound: false,
        }
    }

    /// Attaches an advisory stop-threshold: batches may end early once
    /// every remaining entry provably grades strictly below `bound`.
    pub fn with_bound(mut self, bound: Grade) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Sets or clears the advisory bound mid-stream — e.g. tightening it
    /// as the engine's k-th score frontier rises, or clearing it to
    /// recover the untruncated remainder after a dirty hint.
    pub fn set_bound(&mut self, bound: Option<Grade>) {
        self.bound = bound;
        self.stopped_by_bound = false;
    }

    /// The current advisory bound, if any.
    pub fn bound(&self) -> Option<Grade> {
        self.bound
    }

    /// Whether the most recent batch ended early because of the bound (the
    /// remaining suffix provably grades below it) rather than because the
    /// stream is exhausted.
    pub fn stopped_by_bound(&self) -> bool {
        self.stopped_by_bound
    }

    /// The rank the next entry will come from (== entries consumed so far
    /// for a cursor opened at 0).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Adaptor: [`try_next_batch`](SortedCursor::try_next_batch) for
    /// callers without an error channel; panics if the read fails.
    pub fn next_batch(&mut self, out: &mut Vec<GradedEntry>, n: usize) -> usize {
        self.try_next_batch(out, n)
            .unwrap_or_else(|e| infallible(e))
    }

    /// Appends up to `n` next entries to `out`, returning how many were
    /// appended; `0` means the stream is exhausted — unless a bound is set
    /// and [`stopped_by_bound`](SortedCursor::stopped_by_bound) reports
    /// the short batch came from the threshold instead. Once the bound
    /// has stopped the stream, further calls return `0` without touching
    /// the source (the suffix is already proven useless) until
    /// [`set_bound`](SortedCursor::set_bound) changes or clears it.
    ///
    /// A read failure surfaces as a typed [`SourceError`]; the cursor only
    /// advances by the entries actually appended, so a failed call is
    /// retryable.
    pub fn try_next_batch(
        &mut self,
        out: &mut Vec<GradedEntry>,
        n: usize,
    ) -> Result<usize, SourceError> {
        let got = match self.bound {
            None => self.source.try_sorted_batch(self.position, n, out)?,
            Some(_) if self.stopped_by_bound => 0,
            Some(bound) => {
                let result = self
                    .source
                    .try_sorted_batch_bounded(self.position, n, bound, out)?;
                self.stopped_by_bound = result.truncated;
                result.appended
            }
        };
        self.position += got;
        Ok(got)
    }
}

impl<S: GradedSource + ?Sized> Iterator for SortedCursor<'_, S> {
    type Item = GradedEntry;

    fn next(&mut self) -> Option<GradedEntry> {
        let entry = self.source.sorted_access(self.position)?;
        self.position += 1;
        Some(entry)
    }
}

/// Extra capability of crisp sources: enumerate every object whose grade is
/// exactly 1 (the classical relation "result set"). Powers the filtered
/// conjunction strategy of Section 4.
///
/// **Required** (1): [`try_matching_set`](SetAccess::try_matching_set).
pub trait SetAccess: GradedSource {
    /// **Required.** All objects with grade 1, in unspecified order; a read
    /// failure is a typed [`SourceError`].
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError>;

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

impl SetAccess for MemorySource {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        Ok(self
            .set
            .iter()
            .take_while(|e| e.grade == Grade::ONE)
            .map(|e| e.object)
            .collect())
    }
}

/// Wraps a source and counts accesses, implementing the Section 5 cost
/// bookkeeping. Uses atomic counters so the counted source still implements
/// [`GradedSource`] by shared reference — including shared *across threads*:
/// each access kind bills exactly one increment per entry obtained, so the
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

    /// A threshold hint changes how *few* entries a caller reads, never the
    /// Section 5 price of the entries it does read.
    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        let before = out.len();
        let result = self
            .inner
            .try_sorted_batch_bounded(start, count, bound, out);
        self.sorted
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
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
/// required core plus the two overridable defaults, so the pointee's native
/// bounded read and degradation flag are reached; the adaptors then sit on
/// the forwarded core. `Arc<dyn GradedSource>` is the canonical *owned*
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
            fn try_sorted_batch_bounded(
                &self,
                start: usize,
                count: usize,
                bound: Grade,
                out: &mut Vec<GradedEntry>,
            ) -> Result<BoundedBatch, SourceError> {
                (**self).try_sorted_batch_bounded(start, count, bound, out)
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
        let s = source();
        let mut cursor = s.open_sorted();
        let mut batch = Vec::new();
        assert_eq!(cursor.next_batch(&mut batch, 3), 3);
        assert_eq!(cursor.position(), 3);
        assert_eq!(cursor.next_batch(&mut batch, 3), 1, "short batch at end");
        assert_eq!(cursor.next_batch(&mut batch, 3), 0, "exhausted");
        let positional: Vec<GradedEntry> = (0..4).map(|r| s.sorted_access(r).unwrap()).collect();
        assert_eq!(batch, positional);
    }

    #[test]
    fn cursor_resumes_at_an_arbitrary_rank() {
        let s = source();
        let mut cursor = SortedCursor::at(&s, 2);
        let mut batch = Vec::new();
        cursor.next_batch(&mut batch, 10);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], s.sorted_access(2).unwrap());
        assert_eq!(cursor.position(), 4);
    }

    #[test]
    fn cursor_iterates_like_sorted_access() {
        let s = source();
        let streamed: Vec<GradedEntry> = s.open_sorted().collect();
        let positional: Vec<GradedEntry> = (0..4).map(|r| s.sorted_access(r).unwrap()).collect();
        assert_eq!(streamed, positional);
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
            if result.truncated {
                assert!(
                    full[result.appended..].iter().all(|e| e.grade < bound),
                    "truncation must prove the suffix below {bound}"
                );
            }
        }
        // A bound of zero can never truncate: no grade is strictly below it.
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
        assert_eq!(c.stats(), AccessStats::new(result.appended as u64, 0));
    }

    #[test]
    fn bounded_cursor_resumes_the_exact_stream_after_a_dirty_hint() {
        let grades: Vec<Grade> = (1..=20).map(|i| g(i as f64 / 20.0)).collect();
        let s = MemorySource::from_grades(&grades);
        let mut full = Vec::new();
        s.sorted_batch(0, 20, &mut full);
        // A deliberately dirty (too-high) hint: almost everything is
        // suppressed on the first pass.
        let mut cursor = s.open_sorted().with_bound(g(0.95));
        assert_eq!(cursor.bound(), Some(g(0.95)));
        let mut streamed = Vec::new();
        while cursor.next_batch(&mut streamed, 4) > 0 {}
        assert!(cursor.stopped_by_bound(), "short batch came from the bound");
        assert_eq!(streamed, full[..streamed.len()], "still an exact prefix");
        // Recovery: clear the bound and resume from the same position.
        cursor.set_bound(None);
        while cursor.next_batch(&mut streamed, 4) > 0 {}
        assert!(!cursor.stopped_by_bound());
        assert_eq!(streamed, full, "dirty hint recovered the identical stream");
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
        let mut cursor = boxed.open_sorted();
        let mut streamed = Vec::new();
        cursor.next_batch(&mut streamed, 4);
        assert_eq!(streamed, out);
    }
}
