//! Sharded scatter-gather over object-id ranges.
//!
//! A graded list is usually served by one source. [`ShardedSource`] splits
//! that role across `S` child sources, each owning a contiguous range of
//! object ids (the per-shard analogue of the segment footer's
//! `table_first_ids` block fences): shard `i` grades exactly the objects in
//! `fences[i] .. fences[i+1]`. Because the ranges partition the id space,
//! the global skeleton key — descending grade, ties by ascending object id
//! — is unique across shards, so a k-way merge of the per-shard sorted
//! runs reproduces the unsharded stream *bit for bit*: same entries, same
//! tie order, same Section 5 billing once a [`CountingSource`] wraps the
//! merged handle.
//!
//! The merge is demand-driven, which is where the paper's Section 5
//! threshold argument pays off across shards: each shard is only read as
//! deep as the merged prefix actually needs, so a top-k consumer that
//! stops at depth `T` costs roughly `T` shard entries in total — not the
//! `S × T` a naive scatter-gather (every shard scanned to the global
//! depth) pays. A shared atomic **grade frontier** — the lowest grade the
//! merge has emitted — governs per-shard prefetch: a shard whose last
//! yielded grade has fallen below the frontier cannot contribute soon, so
//! its refills drop to a minimal probe chunk while shards still above the
//! frontier stream large (optionally parallel) chunks. The frontier only
//! shapes *when* entries are fetched, never *which* entries are emitted,
//! so correctness never depends on it. [`ShardedSource::scan_stats`]
//! reports the realised early-termination savings.
//!
//! Random access routes each probe to its owning shard by binary search
//! over the shard fences ([`ShardedSource::shard_of`]), and batched random
//! access regroups probes per shard so block-backed shards keep their
//! one-fetch-per-block batching.
//!
//! [`CountingSource`]: crate::access::CountingSource

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use garlic_agg::Grade;

use crate::access::{BoundedBatch, GradedSource, SetAccess, SourceError};
use crate::fx::FxHashSet;
use crate::graded_set::GradedEntry;
use crate::object::ObjectId;

/// Smallest refill chunk: enough to learn a shard's next few heads without
/// committing to a deep read of a shard the frontier says is out of the
/// race.
const MIN_CHUNK: usize = 16;

/// Largest refill chunk per shard — bounds prefetch overshoot past the
/// depth the merge was asked for.
const MAX_CHUNK: usize = 4096;

/// Refills this large (per shard, with at least two shards hungry) are
/// fetched on scoped threads; smaller ones are not worth a spawn.
const PARALLEL_MIN_CHUNK: usize = 1024;

/// Cumulative scatter-gather counters of one [`ShardedSource`]: how deep
/// the merged stream went vs how many entries the shards actually served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardScanStats {
    /// Entries emitted by the merged stream (the global scan depth `T`).
    pub emitted: u64,
    /// Entries pulled from all shards together (`T` plus bounded prefetch
    /// overshoot; a naive scatter-gather would pay `shards × T`).
    pub consumed: u64,
    /// Number of shards.
    pub shards: usize,
}

impl ShardScanStats {
    /// Fraction of the naive scatter-gather cost (`shards × emitted`
    /// entries) the threshold cut avoided reading. 0 when nothing was
    /// emitted.
    pub fn early_termination_savings(&self) -> f64 {
        let naive = self.emitted.saturating_mul(self.shards as u64);
        if naive == 0 {
            return 0.0;
        }
        1.0 - (self.consumed.min(naive) as f64 / naive as f64)
    }
}

/// One shard's position in the demand-driven merge.
#[derive(Debug)]
struct ShardRun {
    /// Buffered entries not yet consumed by the merge (`buf[pos..]`).
    buf: Vec<GradedEntry>,
    pos: usize,
    /// The shard rank the next refill starts at.
    next_rank: usize,
    /// Whether the shard returned a short batch (no entries remain).
    exhausted: bool,
    /// Grade of the last entry this shard yielded — an upper bound on
    /// everything it still holds, compared against the frontier to size
    /// refills.
    last_grade: Option<Grade>,
    /// Whether this shard was quarantined and replaced by its zero-grade
    /// remainder (degraded reads; see
    /// [`ShardedSource::with_degraded_reads`]).
    dropped: bool,
}

impl ShardRun {
    fn new() -> Self {
        ShardRun {
            buf: Vec::new(),
            pos: 0,
            next_rank: 0,
            exhausted: false,
            last_grade: None,
            dropped: false,
        }
    }

    fn head(&self) -> Option<GradedEntry> {
        self.buf.get(self.pos).copied()
    }

    fn needs_refill(&self) -> bool {
        !self.exhausted && self.pos == self.buf.len()
    }
}

/// The guarded merge state: the merged prefix computed so far plus each
/// shard's buffered run. Positional sorted access is served out of
/// `merged`, which only ever grows — the stream is deterministic no matter
/// how callers batch it.
#[derive(Debug)]
struct MergeState {
    merged: Vec<GradedEntry>,
    runs: Vec<ShardRun>,
}

/// `S` child sources serving one logical graded list, partitioned by
/// object-id range. Implements the full [`GradedSource`] (+ [`SetAccess`])
/// contract; see the module docs for the merge, frontier, and routing
/// rules.
///
/// The merged prefix is cached internally (interior mutability), so a
/// source that was streamed deep once serves later shallow scans without
/// touching the shards again; [`reset_scan`](ShardedSource::reset_scan)
/// drops that cache for cold-path measurement.
#[derive(Debug)]
pub struct ShardedSource<S> {
    shards: Vec<S>,
    /// `fences[i]` = lowest object id shard `i` owns; ranges are
    /// contiguous and ascending.
    fences: Vec<u64>,
    len: usize,
    state: Mutex<MergeState>,
    /// Bits of the lowest merged grade emitted so far (grades are
    /// non-negative, so the f64 bit pattern orders like the value).
    frontier: AtomicU64,
    emitted: AtomicU64,
    consumed: AtomicU64,
    /// Exclusive end of the dense object-id universe when degraded reads
    /// are enabled; `None` means shard failures always fail the read.
    degrade_universe: Option<u64>,
    /// Lock-free mirror of the per-run dropped flags, for random-access
    /// routing and [`GradedSource::degraded`] without taking the merge
    /// lock.
    dropped: Vec<AtomicBool>,
}

impl<S: GradedSource> ShardedSource<S> {
    /// Assembles a sharded source from per-shard sources and their range
    /// fences (`fences[i]` = first object id owned by shard `i`).
    ///
    /// # Panics
    /// Panics if `shards` is empty, the lengths differ, or the fences are
    /// not strictly increasing — all wiring errors: the caller (segment
    /// opener, subsystem builder, or [`partition_pairs`]) is responsible
    /// for handing over a genuine partition of the id space.
    pub fn new(shards: Vec<S>, fences: Vec<u64>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded source needs at least one shard"
        );
        assert_eq!(
            shards.len(),
            fences.len(),
            "one fence (lowest owned object id) per shard"
        );
        assert!(
            fences.windows(2).all(|w| w[0] < w[1]),
            "shard fences must be strictly increasing"
        );
        let len = shards.iter().map(|s| s.len()).sum();
        let runs = shards.iter().map(|_| ShardRun::new()).collect();
        let dropped = shards.iter().map(|_| AtomicBool::new(false)).collect();
        ShardedSource {
            shards,
            fences,
            len,
            state: Mutex::new(MergeState {
                merged: Vec::new(),
                runs,
            }),
            frontier: AtomicU64::new(Grade::ONE.value().to_bits()),
            emitted: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            degrade_universe: None,
            dropped,
        }
    }

    /// Opts in to degraded reads: when a shard read fails with a
    /// *quarantined* error, the shard is dropped from the scatter-gather
    /// and every object it still owed the stream is emitted with grade 0
    /// (the paper's "everything is graded, possibly zero" model), instead
    /// of failing the whole logical list. The merged stream keeps its
    /// exact length and descending-grade order, so callers above — the
    /// engine included — need no special casing; they only observe
    /// [`GradedSource::degraded`] flip to `true`.
    ///
    /// `universe` is the exclusive end of the dense object-id space.
    /// Degradation substitutes grades by *id range*, so it is only sound
    /// when every shard is dense over its fence range — this constructor
    /// checks that and panics otherwise (a wiring error, like the fence
    /// asserts in [`ShardedSource::new`]).
    pub fn with_degraded_reads(mut self, universe: u64) -> Self {
        assert!(
            universe >= self.fences[0] + self.len as u64,
            "universe end {universe} cannot hold {} dense entries from id {}",
            self.len,
            self.fences[0],
        );
        for (i, shard) in self.shards.iter().enumerate() {
            let lo = self.fences[i];
            let hi = self.fences.get(i + 1).copied().unwrap_or(universe);
            assert_eq!(
                shard.len() as u64,
                hi - lo,
                "degraded reads need dense shards: shard {i} covers ids {lo}..{hi}",
            );
        }
        self.degrade_universe = Some(universe);
        self
    }

    /// The merge lock, recovered from poisoning: a reader thread that
    /// panicked mid-merge leaves the guarded state consistent (buffers are
    /// cleared before any fallible shard read, and the merged prefix only
    /// grows by whole entries), so later readers may keep using it.
    fn state(&self) -> MutexGuard<'_, MergeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The dense id range shard `shard` owns under degraded reads.
    fn shard_range(&self, shard: usize, universe: u64) -> std::ops::Range<u64> {
        let lo = self.fences[shard];
        let hi = self.fences.get(shard + 1).copied().unwrap_or(universe);
        lo..hi
    }

    /// Handles a failed shard read: under degraded reads a *quarantined*
    /// failure drops the shard — its unseen objects are appended to the
    /// run buffer as zero-grade entries (id-ascending, after any already
    /// buffered positive entries) and the run is marked exhausted, so the
    /// ordinary merge loop emits them last with no further reads. Any
    /// other failure (or no opt-in) propagates.
    fn drop_shard_or_fail(
        &self,
        state: &mut MergeState,
        shard: usize,
        err: SourceError,
    ) -> Result<(), SourceError> {
        let Some(universe) = self.degrade_universe else {
            return Err(err);
        };
        if !err.quarantined {
            return Err(err);
        }
        if state.runs[shard].dropped {
            return Ok(());
        }
        let range = self.shard_range(shard, universe);
        // Objects of this shard already emitted or still buffered keep
        // their true grades; everything else in the range becomes a zero.
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for entry in &state.merged {
            if range.contains(&entry.object.0) {
                seen.insert(entry.object.0);
            }
        }
        let run = &mut state.runs[shard];
        let survivors: Vec<GradedEntry> = run.buf[run.pos..].to_vec();
        run.buf.clear();
        run.pos = 0;
        let mut zero_ids: Vec<u64> = Vec::new();
        for entry in survivors {
            seen.insert(entry.object.0);
            if entry.grade > Grade::ZERO {
                run.buf.push(entry);
            } else {
                zero_ids.push(entry.object.0);
            }
        }
        zero_ids.extend(range.filter(|id| !seen.contains(id)));
        zero_ids.sort_unstable();
        run.buf.extend(zero_ids.into_iter().map(|id| GradedEntry {
            object: ObjectId(id),
            grade: Grade::ZERO,
        }));
        run.exhausted = true;
        run.dropped = true;
        run.last_grade = Some(Grade::ZERO);
        self.dropped[shard].store(true, Ordering::Release);
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The child sources, in fence order.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// The shard owning `object`'s id range. Ids below the first fence are
    /// routed to shard 0, where they miss — same observable answer as the
    /// unsharded source.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        self.fences
            .partition_point(|&f| f <= object.0)
            .saturating_sub(1)
    }

    /// Cumulative scatter-gather counters (see [`ShardScanStats`]).
    pub fn scan_stats(&self) -> ShardScanStats {
        ShardScanStats {
            emitted: self.emitted.load(Ordering::Relaxed),
            consumed: self.consumed.load(Ordering::Relaxed),
            shards: self.shards.len(),
        }
    }

    /// Drops the cached merged prefix and all shard buffers, returning the
    /// source to its just-built state (counters included; dropped shards
    /// are *not* resurrected — quarantine outlives the scan cache). The
    /// next sorted access replays the merge from the shards — this is how
    /// cold-path benchmarks measure the scatter-gather itself rather than
    /// the cache.
    pub fn reset_scan(&self) {
        let mut state = self.state();
        state.merged = Vec::new();
        for (shard, run) in state.runs.iter_mut().enumerate() {
            *run = ShardRun::new();
            if self.dropped[shard].load(Ordering::Acquire) {
                // Rebuild the zero-grade remainder for an already-dropped
                // shard rather than re-reading a quarantined source.
                run.dropped = true;
                run.exhausted = true;
                let universe = self
                    .degrade_universe
                    .expect("dropped flag implies degraded reads");
                run.buf
                    .extend(self.shard_range(shard, universe).map(|id| GradedEntry {
                        object: ObjectId(id),
                        grade: Grade::ZERO,
                    }));
                run.last_grade = Some(Grade::ZERO);
            }
        }
        self.frontier
            .store(Grade::ONE.value().to_bits(), Ordering::Relaxed);
        self.emitted.store(0, Ordering::Relaxed);
        self.consumed.store(0, Ordering::Relaxed);
    }

    /// Extends the merged prefix to `target` entries (or to exhaustion),
    /// additionally stopping as soon as the lowest merged grade falls
    /// strictly below `bound`: the skeleton order is descending, so
    /// everything still unmerged — in *every* shard — is then also below
    /// the bound, and no shard needs another refill. Returns `true` iff the
    /// stop was due to the bound; no grade is below [`Grade::ZERO`], so a
    /// zero bound never stops early.
    ///
    /// A shard failure either drops the shard (degraded reads + a
    /// quarantined error) or aborts with the merged prefix unextended
    /// beyond already-completed rounds, so a later retry resumes exactly
    /// where this call left off.
    fn try_ensure_merged(
        &self,
        state: &mut MergeState,
        target: usize,
        bound: Grade,
    ) -> Result<bool, SourceError> {
        let target = target.min(self.len);
        loop {
            if state.merged.last().is_some_and(|e| e.grade < bound) {
                return Ok(true);
            }
            if state.merged.len() >= target {
                return Ok(false);
            }
            self.try_refill(state, target)?;
            // Pop the best head: highest grade, ties by lowest object id.
            // Every non-exhausted shard has a buffered head after refill,
            // so this comparison sees the true global next entry.
            let best = state
                .runs
                .iter()
                .enumerate()
                .filter_map(|(i, run)| run.head().map(|e| (i, e)))
                .max_by(|(_, a), (_, b)| a.grade.cmp(&b.grade).then(b.object.cmp(&a.object)));
            let Some((winner, entry)) = best else {
                return Ok(false); // every shard exhausted before `target`
            };
            state.runs[winner].pos += 1;
            if state.merged.len() == state.merged.capacity() {
                // Double, but never past the list: `push` alone would leave
                // a fully merged 100 000-entry list in 131 072 slots.
                let have = state.merged.len();
                state
                    .merged
                    .reserve_exact(have.max(MIN_CHUNK).min(self.len - have));
            }
            state.merged.push(entry);
            self.frontier
                .store(entry.grade.value().to_bits(), Ordering::Relaxed);
            self.emitted
                .store(state.merged.len() as u64, Ordering::Relaxed);
        }
    }

    /// Refills every shard whose buffer ran dry. Shards whose last yielded
    /// grade is still at/above the frontier stream demand-sized chunks;
    /// shards already below it get [`MIN_CHUNK`] probes. Large refills of
    /// two or more shards run on scoped threads.
    ///
    /// Retry safety: a failing shard's buffer is cleared before the read
    /// and left empty by the `try_sorted_batch` contract, with `next_rank`
    /// unadvanced — so retrying the refill re-reads from the same rank and
    /// no entry is lost or duplicated. Other shards that succeeded in the
    /// same round keep their refilled buffers.
    fn try_refill(&self, state: &mut MergeState, target: usize) -> Result<(), SourceError> {
        let remaining = target.saturating_sub(state.merged.len());
        if remaining == 0 {
            return Ok(());
        }
        let hungry = state.runs.iter().filter(|r| r.needs_refill()).count();
        if hungry == 0 {
            return Ok(());
        }
        let frontier = Grade::clamped(f64::from_bits(self.frontier.load(Ordering::Relaxed)));
        let live = state.runs.iter().filter(|r| !r.exhausted).count().max(1);
        let demand = (remaining / live + 1).clamp(MIN_CHUNK, MAX_CHUNK);
        let chunk_for = |run: &ShardRun| match run.last_grade {
            Some(last) if last < frontier => MIN_CHUNK,
            _ => demand,
        };

        let mut total = 0usize;
        let mut failures: Vec<(usize, SourceError)> = Vec::new();
        let parallel = hungry >= 2 && demand >= PARALLEL_MIN_CHUNK;
        if parallel {
            std::thread::scope(|scope| {
                let mut pending = Vec::new();
                for (index, (run, shard)) in state.runs.iter_mut().zip(&self.shards).enumerate() {
                    if !run.needs_refill() {
                        continue;
                    }
                    let chunk = chunk_for(run);
                    pending.push((
                        index,
                        scope.spawn(move || {
                            run.buf.clear();
                            run.pos = 0;
                            let got = shard.try_sorted_batch(run.next_rank, chunk, &mut run.buf)?;
                            finish_refill(run, got, chunk);
                            Ok(got)
                        }),
                    ));
                }
                for (index, handle) in pending {
                    match handle.join().expect("refill thread") {
                        Ok(got) => total += got,
                        Err(e) => failures.push((index, e)),
                    }
                }
            });
        } else {
            for (index, (run, shard)) in state.runs.iter_mut().zip(&self.shards).enumerate() {
                if !run.needs_refill() {
                    continue;
                }
                let chunk = chunk_for(run);
                run.buf.clear();
                run.pos = 0;
                match shard.try_sorted_batch(run.next_rank, chunk, &mut run.buf) {
                    Ok(got) => {
                        finish_refill(run, got, chunk);
                        total += got;
                    }
                    Err(e) => failures.push((index, e)),
                }
            }
        }
        self.consumed.fetch_add(total as u64, Ordering::Relaxed);
        for (index, err) in failures {
            self.drop_shard_or_fail(state, index, err)?;
        }
        Ok(())
    }
}

fn finish_refill(run: &mut ShardRun, got: usize, chunk: usize) {
    run.next_rank += got;
    if got < chunk {
        run.exhausted = true;
    }
    if let Some(last) = run.buf.last() {
        run.last_grade = Some(last.grade);
    }
}

impl<S: GradedSource> GradedSource for ShardedSource<S> {
    fn len(&self) -> usize {
        self.len
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        self.try_sorted_batch_bounded(start, count, Grade::ZERO, out)
            .map(|batch| batch.appended)
    }

    /// Bound-aware merge: stops extending the merged prefix — and thus
    /// refilling *any* shard — once the lowest merged grade falls strictly
    /// below the bound, instead of merging all the way to `start + count`.
    /// Fence-skipping shards then never even see requests for the fenced-out
    /// depths. Emitted entries are still an exact prefix of the unbounded
    /// stream (the default-impl contract), and a prefix already cached by a
    /// deeper earlier scan is served in full rather than re-truncated.
    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        let mut state = self.state();
        let stopped = self.try_ensure_merged(&mut state, start.saturating_add(count), bound)?;
        let merged = &state.merged;
        let from = start.min(merged.len());
        let to = start.saturating_add(count).min(merged.len());
        out.extend_from_slice(&merged[from..to]);
        Ok(BoundedBatch {
            appended: to - from,
            truncated: stopped && to - from < count,
        })
    }

    /// Routes each probe to its owning shard by fence lookup, forwards one
    /// grouped batch per shard (so block-backed shards batch their own
    /// I/O), and scatters the answers back into probe order.
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        let base = out.len();
        out.resize(base + objects.len(), None);
        // Group probe positions by shard; single-shard batches forward
        // straight through.
        let mut groups: Vec<(Vec<usize>, Vec<ObjectId>)> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (slot, &object) in objects.iter().enumerate() {
            let shard = self.shard_of(object);
            groups[shard].0.push(slot);
            groups[shard].1.push(object);
        }
        let mut answers = Vec::new();
        for (shard, (slots, probes)) in groups.into_iter().enumerate() {
            if probes.is_empty() {
                continue;
            }
            answers.clear();
            if !self.dropped[shard].load(Ordering::Acquire) {
                match self.shards[shard].try_random_batch(&probes, &mut answers) {
                    Ok(()) => {}
                    Err(e) => {
                        answers.clear();
                        let mut state = self.state();
                        if let Err(e) = self.drop_shard_or_fail(&mut state, shard, e) {
                            // `out` unchanged on error, per the contract.
                            out.truncate(base);
                            return Err(e);
                        }
                    }
                }
            }
            if self.dropped[shard].load(Ordering::Acquire) {
                // A quarantined shard answers every in-universe probe with
                // grade zero — the sorted stream's zero-fill, mirrored.
                let universe = self.degrade_universe.unwrap_or(0);
                let range = self.shard_range(shard, universe);
                answers.clear();
                answers.extend(
                    probes
                        .iter()
                        .map(|p| range.contains(&p.0).then_some(Grade::ZERO)),
                );
            }
            debug_assert_eq!(answers.len(), probes.len(), "one slot per probe");
            for (slot, grade) in slots.into_iter().zip(answers.drain(..)) {
                out[base + slot] = grade;
            }
        }
        Ok(())
    }

    fn degraded(&self) -> bool {
        self.dropped.iter().any(|flag| flag.load(Ordering::Acquire))
    }
}

impl<S: SetAccess> SetAccess for ShardedSource<S> {
    /// The union of the shards' grade-1 sets. Order is unspecified by the
    /// contract; this yields shard order (ascending id ranges), each
    /// shard's own enumeration order within. A quarantined shard under
    /// degraded reads contributes nothing (its objects all read as grade
    /// zero), any other failure propagates.
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        let mut set = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            if self.dropped[index].load(Ordering::Acquire) {
                continue;
            }
            match shard.try_matching_set() {
                Ok(part) => set.extend(part),
                Err(e) => {
                    let mut state = self.state();
                    self.drop_shard_or_fail(&mut state, index, e)?;
                }
            }
        }
        Ok(set)
    }
}

/// Splits `(object, grade)` pairs into at most `shards` contiguous,
/// id-ascending, balanced runs — the canonical shard layout both the
/// in-memory subsystem and the segment writer build from. Returns fewer
/// runs when there are fewer pairs than shards; every returned run is
/// non-empty.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn partition_pairs(
    mut pairs: Vec<(ObjectId, Grade)>,
    shards: usize,
) -> Vec<Vec<(ObjectId, Grade)>> {
    assert!(shards > 0, "cannot partition into zero shards");
    pairs.sort_by_key(|(object, _)| *object);
    if pairs.is_empty() {
        return Vec::new();
    }
    let per_shard = pairs.len().div_ceil(shards);
    let mut runs = Vec::with_capacity(shards);
    let mut rest = pairs.as_slice();
    while !rest.is_empty() {
        let cut = per_shard.min(rest.len());
        runs.push(rest[..cut].to_vec());
        rest = &rest[cut..];
    }
    runs
}

impl ShardedSource<crate::access::MemorySource> {
    /// Builds an in-memory sharded source by partitioning `pairs` into at
    /// most `shards` contiguous id ranges ([`partition_pairs`]).
    ///
    /// # Panics
    /// Panics if `pairs` is empty, repeats an object, or `shards` is zero.
    pub fn from_pairs(pairs: Vec<(ObjectId, Grade)>, shards: usize) -> Self {
        let runs = partition_pairs(pairs, shards);
        assert!(!runs.is_empty(), "cannot shard an empty graded list");
        for run in &runs {
            for w in run.windows(2) {
                assert_ne!(w[0].0, w[1].0, "object {} graded twice", w[0].0);
            }
        }
        let fences = runs.iter().map(|run| run[0].0 .0).collect();
        let sources = runs
            .into_iter()
            .map(crate::access::MemorySource::from_pairs)
            .collect();
        ShardedSource::new(sources, fences)
    }

    /// Builds an in-memory sharded source over a dense grade vector
    /// (object `i` gets `grades[i]`).
    ///
    /// # Panics
    /// Panics if `grades` is empty or `shards` is zero.
    pub fn from_grades(grades: &[Grade], shards: usize) -> Self {
        let pairs = grades
            .iter()
            .enumerate()
            .map(|(i, &g)| (ObjectId::from(i), g))
            .collect();
        ShardedSource::from_pairs(pairs, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CountingSource, MemorySource};

    fn g(v: f64) -> Grade {
        Grade::clamped(v)
    }

    /// A deterministic pseudo-random graded list with heavy ties (11
    /// distinct grades), the regime where tie order is easiest to break.
    fn pairs(n: usize, seed: u64) -> Vec<(ObjectId, Grade)> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (ObjectId(i as u64), g((x >> 33) as f64 % 11.0 / 10.0))
            })
            .collect()
    }

    fn unsharded(pairs: &[(ObjectId, Grade)]) -> MemorySource {
        MemorySource::from_pairs(pairs.to_vec())
    }

    #[test]
    fn early_termination_savings_zero_emission_edge_case() {
        // Regression: with nothing emitted the naive denominator is 0 —
        // savings must read 0.0, not NaN, even when shards prefetched.
        let stats = ShardScanStats {
            emitted: 0,
            consumed: 0,
            shards: 4,
        };
        assert_eq!(stats.early_termination_savings(), 0.0);
        let prefetched = ShardScanStats {
            emitted: 0,
            consumed: 64,
            shards: 4,
        };
        assert_eq!(prefetched.early_termination_savings(), 0.0);
        // And through a real source: stats before any scan report 0.
        let sharded = ShardedSource::from_pairs(pairs(100, 3), 4);
        let stats = sharded.scan_stats();
        assert_eq!(stats.emitted, 0);
        assert_eq!(stats.early_termination_savings(), 0.0);
    }

    #[test]
    fn early_termination_savings_single_shard_edge_case() {
        // Regression: with S = 1 the "naive" scatter-gather IS the merged
        // scan, so there is nothing to save — the clamp (`consumed` can
        // exceed `emitted` by bounded prefetch overshoot) must pin the
        // savings to exactly 0, never a negative fraction.
        let stats = ShardScanStats {
            emitted: 100,
            consumed: 116, // overshoot past the merged depth
            shards: 1,
        };
        assert_eq!(stats.early_termination_savings(), 0.0);
        let sharded = ShardedSource::from_pairs(pairs(200, 9), 1);
        let mut out = Vec::new();
        sharded.sorted_batch(0, 50, &mut out);
        let stats = sharded.scan_stats();
        assert_eq!(stats.shards, 1);
        assert!(stats.consumed >= stats.emitted);
        assert_eq!(stats.early_termination_savings(), 0.0);
    }

    #[test]
    fn merged_stream_is_bit_identical_to_unsharded() {
        let data = pairs(500, 7);
        let flat = unsharded(&data);
        for shards in [1, 2, 3, 7] {
            let sharded = ShardedSource::from_pairs(data.clone(), shards);
            assert_eq!(sharded.len(), flat.len());
            let mut want = Vec::new();
            flat.sorted_batch(0, 500, &mut want);
            let mut got = Vec::new();
            sharded.sorted_batch(0, 500, &mut got);
            assert_eq!(got, want, "S={shards}: entries and tie order");
        }
    }

    #[test]
    fn merged_prefix_never_reserves_past_the_list() {
        // 300 is not a power of two: doubling alone would end at 512 slots.
        let sharded = ShardedSource::from_pairs(pairs(300, 7), 3);
        let mut out = Vec::new();
        for depth in [1, 40, 170, 300] {
            sharded.sorted_batch(0, depth, &mut out);
            let capacity = sharded.state.lock().unwrap().merged.capacity();
            assert!((depth..=300).contains(&capacity), "{capacity} at {depth}");
        }
    }

    #[test]
    fn batch_size_never_changes_the_stream() {
        let data = pairs(300, 21);
        let flat = unsharded(&data);
        let sharded = ShardedSource::from_pairs(data, 3);
        let mut want = Vec::new();
        flat.sorted_batch(0, 300, &mut want);
        for batch in [1, 7, 64, 301] {
            let fresh = ShardedSource::from_pairs(
                want.iter().map(|e| (e.object, e.grade)).collect::<Vec<_>>(),
                3,
            );
            for source in [&sharded, &fresh] {
                let mut got = Vec::new();
                while source.sorted_batch(got.len(), batch, &mut got) > 0 {}
                assert_eq!(got, want, "batch={batch}");
            }
        }
    }

    #[test]
    fn positional_access_matches_the_batched_stream() {
        let data = pairs(120, 3);
        let sharded = ShardedSource::from_pairs(data.clone(), 7);
        let flat = unsharded(&data);
        for rank in [0usize, 1, 63, 119, 120, 500] {
            assert_eq!(sharded.sorted_access(rank), flat.sorted_access(rank));
        }
    }

    #[test]
    fn random_access_routes_by_fence() {
        let data = pairs(200, 11);
        let sharded = ShardedSource::from_pairs(data.clone(), 4);
        let flat = unsharded(&data);
        for id in 0..210u64 {
            assert_eq!(
                sharded.random_access(ObjectId(id)),
                flat.random_access(ObjectId(id)),
                "object {id}"
            );
        }
    }

    #[test]
    fn random_batch_aligns_and_bills_like_the_loop() {
        let data = pairs(100, 5);
        let sharded = CountingSource::new(ShardedSource::from_pairs(data.clone(), 3));
        let flat = CountingSource::new(unsharded(&data));
        let probes: Vec<ObjectId> = [0u64, 99, 55, 1000, 55, 3, 42]
            .into_iter()
            .map(ObjectId)
            .collect();
        let mut a = vec![Some(g(1.0))]; // pre-existing entry must survive
        let mut b = vec![Some(g(1.0))];
        sharded.random_batch(&probes, &mut a);
        flat.random_batch(&probes, &mut b);
        assert_eq!(a, b);
        assert_eq!(sharded.stats(), flat.stats(), "identical §5 billing");
    }

    #[test]
    fn billing_through_a_counting_wrapper_matches_unsharded() {
        let data = pairs(400, 17);
        for shards in [1, 2, 3, 7] {
            let sharded = CountingSource::new(ShardedSource::from_pairs(data.clone(), shards));
            let flat = CountingSource::new(unsharded(&data));
            let mut a = Vec::new();
            let mut b = Vec::new();
            sharded.sorted_batch(0, 123, &mut a);
            flat.sorted_batch(0, 123, &mut b);
            sharded.sorted_access(200);
            flat.sorted_access(200);
            assert_eq!(a, b);
            assert_eq!(sharded.stats(), flat.stats(), "S={shards}");
        }
    }

    #[test]
    fn matching_set_unions_the_shards() {
        let grades: Vec<Grade> = [1.0, 0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 1.0]
            .iter()
            .map(|&v| g(v))
            .collect();
        let sharded = ShardedSource::from_grades(&grades, 3);
        let mut set = sharded.matching_set();
        set.sort();
        let mut want = unsharded(
            &grades
                .iter()
                .enumerate()
                .map(|(i, &gr)| (ObjectId(i as u64), gr))
                .collect::<Vec<_>>(),
        )
        .matching_set();
        want.sort();
        assert_eq!(set, want);
        // Billed as sorted access through the counting wrapper, same
        // count as the unsharded enumeration.
        let counted = CountingSource::new(ShardedSource::from_grades(&grades, 3));
        assert_eq!(counted.matching_set().len(), want.len());
        assert_eq!(counted.stats().sorted, want.len() as u64);
    }

    #[test]
    fn early_termination_beats_naive_scatter_gather() {
        let data = pairs(4000, 31);
        let sharded = ShardedSource::from_pairs(data, 4);
        let mut out = Vec::new();
        sharded.sorted_batch(0, 200, &mut out);
        let stats = sharded.scan_stats();
        assert_eq!(stats.emitted, 200);
        assert!(
            stats.consumed < 4 * stats.emitted,
            "demand-driven merge must beat S×T: consumed {} vs naive {}",
            stats.consumed,
            4 * stats.emitted
        );
        assert!(stats.early_termination_savings() > 0.0);
    }

    #[test]
    fn bounded_scan_is_an_exact_prefix_that_stops_every_shard_early() {
        let data = pairs(4000, 41);
        let flat = unsharded(&data);
        let mut full = Vec::new();
        flat.sorted_batch(0, 4000, &mut full);
        let sharded = ShardedSource::from_pairs(data, 4);
        // A cursor hinted with a high stop threshold (the engine's k-th
        // score frontier in real use) must emit an exact prefix, be honest
        // about truncation, and stop the merge long before depth N.
        let bound = g(0.8);
        let mut cursor = sharded.open_sorted().with_bound(bound);
        let mut got = Vec::new();
        while cursor.next_batch(&mut got, 256) > 0 {}
        assert!(cursor.stopped_by_bound());
        assert_eq!(got[..], full[..got.len()], "exact prefix");
        assert!(
            full[got.len()..].iter().all(|e| e.grade < bound),
            "only entries strictly below the bound were withheld"
        );
        let stats = sharded.scan_stats();
        assert!(
            (stats.emitted as usize) < full.len() / 2,
            "merge stopped early: emitted {} of {}",
            stats.emitted,
            full.len()
        );
        // A dirty (too-low) bound and a ZERO bound are the full stream.
        let fresh = ShardedSource::from_pairs(
            full.iter().map(|e| (e.object, e.grade)).collect::<Vec<_>>(),
            4,
        );
        let mut all = Vec::new();
        let mut cursor = fresh.open_sorted().with_bound(Grade::ZERO);
        while cursor.next_batch(&mut all, 256) > 0 {}
        assert!(!cursor.stopped_by_bound());
        assert_eq!(all, full);
    }

    #[test]
    fn reset_scan_replays_the_identical_stream() {
        let data = pairs(600, 13);
        let sharded = ShardedSource::from_pairs(data, 4);
        let mut first = Vec::new();
        sharded.sorted_batch(0, 600, &mut first);
        sharded.reset_scan();
        assert_eq!(sharded.scan_stats().consumed, 0);
        let mut second = Vec::new();
        sharded.sorted_batch(0, 600, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn partition_is_contiguous_balanced_and_complete() {
        let data = pairs(103, 9);
        let runs = partition_pairs(data.clone(), 4);
        assert_eq!(runs.len(), 4);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 103);
        for w in runs.windows(2) {
            assert!(w[0].last().unwrap().0 < w[1][0].0, "ranges ascend");
        }
        // More shards than pairs: every run non-empty, fewer runs.
        let tiny = partition_pairs(pairs(3, 1), 7);
        assert_eq!(tiny.len(), 3);
        assert!(tiny.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn single_shard_degenerates_to_the_plain_source() {
        let data = pairs(50, 2);
        let sharded = ShardedSource::from_pairs(data.clone(), 1);
        let flat = unsharded(&data);
        let mut a = Vec::new();
        let mut b = Vec::new();
        sharded.sorted_batch(0, 50, &mut a);
        flat.sorted_batch(0, 50, &mut b);
        assert_eq!(a, b);
        assert_eq!(sharded.shard_count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_fences_are_a_wiring_error() {
        let a = MemorySource::from_pairs(vec![(ObjectId(5), g(0.5))]);
        let b = MemorySource::from_pairs(vec![(ObjectId(0), g(0.5))]);
        let _ = ShardedSource::new(vec![a, b], vec![5, 0]);
    }

    #[test]
    fn concurrent_readers_see_one_consistent_stream() {
        let data = pairs(800, 23);
        let flat = unsharded(&data);
        let mut want = Vec::new();
        flat.sorted_batch(0, 800, &mut want);
        let sharded = std::sync::Arc::new(ShardedSource::from_pairs(data, 4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sharded = std::sync::Arc::clone(&sharded);
                let want = &want;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    while sharded.sorted_batch(got.len(), 97, &mut got) > 0 {}
                    assert_eq!(&got, want);
                });
            }
        });
    }
}
