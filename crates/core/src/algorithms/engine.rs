//! The unified top-k execution engine.
//!
//! Every A₀-family algorithm in this crate shares the same three moving
//! parts (Section 4):
//!
//! 1. a **round-robin sorted phase** that streams all `m` lists in parallel
//!    at a common depth `T`;
//! 2. **candidate bookkeeping** — which grades and ranks each object has
//!    revealed so far;
//! 3. a **random-access completion** step that fills the missing grades of
//!    a chosen candidate set.
//!
//! [`Engine`] packages those parts once, on top of the *batched* cursor
//! layer of [`crate::access`]: sorted streaming goes through
//! [`GradedSource::try_sorted_batch`] and grade completion through
//! [`GradedSource::try_random_batch`], so block-backed sources see a handful of
//! large requests instead of millions of virtual calls. The algorithm
//! modules (`fa`, `fa_min`, `b0_max`, `filtered`, `naive`) are thin,
//! paper-annotated shells over this engine and its sessions.
//!
//! # The slab
//!
//! Bookkeeping is data-oriented and allocation-free on the hot path. The
//! per-object `HashMap<ObjectId, Partial>` of earlier revisions — two
//! heap-allocated `Vec<Option<_>>`s per candidate, SipHash on every
//! observation — is replaced by a slab:
//!
//! * an `ObjectId → u32` **slot map** keyed by the vendored [`crate::fx`]
//!   hash (a few arithmetic ops per lookup);
//! * **m-strided flat arrays**: slot `s`'s grades live at
//!   `grades[s·m .. s·m+m]`, its sorted ranks at the same stride in a
//!   `Vec<u32>` — one contiguous allocation each, grown geometrically, no
//!   per-object boxes, and the grade vector of a completed object is a
//!   *borrowable slice* ([`Engine::grade_slice`]) so scoring never clones;
//! * per-slot `u64` **seen-bitmasks** (one word per 64 lists) for both
//!   access kinds, making "has list i shown this object?" a bit test and
//!   "is the grade vector complete?" an O(1) word compare for `m ≤ 64`.
//!
//! # Exact Section 5 cost preservation
//!
//! Batching is an access-plan optimisation, not a semantic change: the
//! engine consumes *exactly* the entries the paper's positional round-robin
//! loop would, in the same interleaved order, so measured
//! [`AccessStats`](crate::cost::AccessStats) are identical entry-for-entry
//! to the seed positional implementations (property-tested in
//! `tests/engine_equivalence.rs`). The trick is a pair of lower bounds on
//! the stop depth `T` of the "wait until k matches" phase, which let the
//! engine pull large batches without overshooting:
//!
//! * the matched set at depth `T` is contained in every prefix `X^i_T`, so
//!   `T ≥ k` always;
//! * one depth step reveals `m` new `(list, object)` pairs and an object
//!   matches only when its *last* pair arrives, so at most `m` objects can
//!   match per step: from a state with `c` matches at depth `d`,
//!   `T ≥ d + ⌈(k − c)/m⌉`.
//!
//! Within the region these bounds cover, batches are as large as the bound
//! allows; past it the engine degrades gracefully to single-level rounds,
//! never reading an entry the positional algorithm would not. The
//! random-access phase likewise bills one access per `(object, list)` pair
//! whether completed one by one or via [`GradedSource::try_random_batch`].
//!
//! # Sessions
//!
//! [`EngineSession`] keeps an engine alive between top-k requests: asking
//! for the next `k` answers resumes the sorted phase at the stored depth
//! ("continue where we left off", Section 4), so paging through a ranked
//! result set costs the same sorted accesses as one evaluation at the
//! cumulative `k` — and "the top k" is simply the first page: there is no
//! separate one-shot implementation to agree with. One session type runs
//! four strategies, which differ only in where the sorted phase stops
//! and which objects a page grades: A₀ ([`EngineSession::new`]: every
//! object seen), A₀′ ([`EngineSession::min`]: the pivot list's prefix at
//! or above `g₀`, Proposition 4.3 — the rest wait in the slab, and since
//! `g₀` only falls as the cumulative `k` grows a later page picks up what
//! it needs), the naive scan ([`EngineSession::scan`]: everything, by
//! sorted access alone) and B₀ ([`EngineSession::max`]: the sorted phase
//! stops at depth = cumulative `k`, nothing is probed, and an object
//! scores the best grade any list has shown for it — `m·k` cumulative
//! cost). Each page completes — and scores, once, through
//! the zero-alloc [`Aggregation::combine_reusing`] path — only its
//! candidates that no earlier page graded (completed grade vectors stay
//! complete, so cached scores stay valid); where each slot stands is one
//! slot-indexed byte. Per-page work beyond the fresh
//! slots is therefore one bounded-heap selection over the cached score
//! array (unreturned candidates must re-compete every page; the
//! aggregation itself is never re-run — only B₀'s best-grade-so-far can
//! still rise on a deeper page, so it alone is re-read until returned).
//!
//! A session exposes its **k-th score frontier**
//! ([`EngineSession::frontier`]) — the overall
//! grade of the worst answer handed out so far. It is the natural
//! advisory stop-threshold hint for auxiliary scans over block-backed
//! sources ([`SortedCursor::set_bound`](crate::access::SortedCursor)):
//! v2 segments use the bound to skip whole data blocks whose fence says
//! every entry is already below the frontier. The hint is strictly an
//! access-plan optimisation — a stale or wrong frontier can only make a
//! bounded scan stop later or earlier than optimal, never change which
//! entries a consumer that honours the bound contract observes.

use garlic_agg::{Aggregation, Grade};

use crate::access::GradedSource;
use crate::fx::FxHashMap;
use crate::graded_set::GradedEntry;
use crate::object::ObjectId;
use crate::topk::{validate_inputs, TopK, TopKError};

/// Upper bound on levels fetched per batched round, to bound scratch-buffer
/// memory (`m · CHUNK` entries) on full-database streams.
const CHUNK: usize = 4096;

/// Flat, slot-addressed candidate bookkeeping — see the module docs.
#[derive(Debug, Default)]
struct Slab {
    /// Number of lists `m` (the stride of `grades`/`ranks`).
    m: usize,
    /// `u64` mask words per slot: `⌈m / 64⌉`.
    words: usize,
    /// Bit pattern of the *last* mask word when every list is present.
    last_full: u64,
    /// `ObjectId → slot` resolution (FxHash — no SipHash per observation).
    slots: FxHashMap<ObjectId, u32>,
    /// `slot → ObjectId`, in first-seen order.
    ids: Vec<ObjectId>,
    /// m-strided grades; validity is governed by `grade_mask`.
    grades: Vec<Grade>,
    /// m-strided sorted ranks; validity is governed by `rank_mask`.
    ranks: Vec<u32>,
    /// Per-slot bitmask of lists whose grade is known (either access kind).
    grade_mask: Vec<u64>,
    /// Per-slot bitmask of lists that showed the object under *sorted*
    /// access (subset of `grade_mask`).
    rank_mask: Vec<u64>,
}

impl Slab {
    fn new(m: usize) -> Self {
        let words = m.div_ceil(64).max(1);
        let tail = m % 64;
        Slab {
            m,
            words,
            last_full: if m == 0 || tail == 0 {
                u64::MAX
            } else {
                (1u64 << tail) - 1
            },
            ..Slab::default()
        }
    }

    /// Number of slots (distinct objects seen via either access kind).
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Resolves an object to its slot, allocating a fresh one on first
    /// sight. The only hash lookup on the observation path.
    fn slot(&mut self, id: ObjectId) -> u32 {
        match self.slots.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let slot = self.ids.len() as u32;
                e.insert(slot);
                self.ids.push(id);
                self.grades.resize(self.grades.len() + self.m, Grade::ZERO);
                self.ranks.resize(self.ranks.len() + self.m, 0);
                self.grade_mask
                    .resize(self.grade_mask.len() + self.words, 0);
                self.rank_mask.resize(self.rank_mask.len() + self.words, 0);
                slot
            }
        }
    }

    /// The slot of an already-seen object, if any.
    fn slot_of(&self, id: ObjectId) -> Option<u32> {
        self.slots.get(&id).copied()
    }

    fn id(&self, slot: u32) -> ObjectId {
        self.ids[slot as usize]
    }

    #[inline]
    fn word_bit(&self, slot: u32, list: usize) -> (usize, u64) {
        (slot as usize * self.words + list / 64, 1u64 << (list % 64))
    }

    /// Whether list `list` has revealed this slot's grade (either kind).
    #[inline]
    fn has_grade(&self, slot: u32, list: usize) -> bool {
        let (w, b) = self.word_bit(slot, list);
        self.grade_mask[w] & b != 0
    }

    /// Whether list `list` has shown this slot under sorted access.
    #[inline]
    fn has_rank(&self, slot: u32, list: usize) -> bool {
        let (w, b) = self.word_bit(slot, list);
        self.rank_mask[w] & b != 0
    }

    /// The grade list `list` revealed, if any.
    #[inline]
    fn grade(&self, slot: u32, list: usize) -> Option<Grade> {
        self.has_grade(slot, list)
            .then(|| self.grades[slot as usize * self.m + list])
    }

    /// The sorted rank list `list` showed the slot at, if any.
    #[inline]
    fn rank(&self, slot: u32, list: usize) -> Option<usize> {
        self.has_rank(slot, list)
            .then(|| self.ranks[slot as usize * self.m + list] as usize)
    }

    /// Records a grade learned by random access.
    #[inline]
    fn set_grade(&mut self, slot: u32, list: usize, grade: Grade) {
        let (w, b) = self.word_bit(slot, list);
        self.grades[slot as usize * self.m + list] = grade;
        self.grade_mask[w] |= b;
    }

    /// All `m` grades known — O(1) for `m ≤ 64` (one masked word compare).
    #[inline]
    fn complete(&self, slot: u32) -> bool {
        Self::mask_full(&self.grade_mask, slot, self.words, self.last_full)
    }

    #[inline]
    fn mask_full(mask: &[u64], slot: u32, words: usize, last_full: u64) -> bool {
        let base = slot as usize * words;
        mask[base + words - 1] == last_full
            && mask[base..base + words - 1].iter().all(|&w| w == u64::MAX)
    }

    /// The complete grade vector as a borrowed slice (the zero-copy scoring
    /// path); `None` while any grade is missing.
    #[inline]
    fn grade_slice(&self, slot: u32) -> Option<&[Grade]> {
        self.complete(slot)
            .then(|| &self.grades[slot as usize * self.m..][..self.m])
    }

    /// Folds one sorted observation in; returns `true` when this was the
    /// slot's last list, i.e. the object just *matched*.
    #[inline]
    fn observe(&mut self, slot: u32, list: usize, rank: usize, grade: Grade) -> bool {
        let (w, b) = self.word_bit(slot, list);
        debug_assert!(
            self.rank_mask[w] & b == 0,
            "object {} shown twice by list {list}",
            self.id(slot)
        );
        let base = slot as usize * self.m + list;
        self.grades[base] = grade;
        self.ranks[base] = rank as u32;
        self.grade_mask[w] |= b;
        self.rank_mask[w] |= b;
        Self::mask_full(&self.rank_mask, slot, self.words, self.last_full)
    }

    /// The best grade any list has shown for the slot (B₀'s scoring rule).
    fn best_grade(&self, slot: u32) -> Grade {
        let mut best: Option<Grade> = None;
        for list in 0..self.m {
            if let Some(g) = self.grade(slot, list) {
                best = Some(best.map_or(g, |b| b.max(g)));
            }
        }
        best.expect("seen objects have at least one grade")
    }
}

/// A borrowed read-only view of one candidate's bookkeeping — what the
/// `fa` shell inspects to pick its candidates.
pub(crate) struct PartialView<'a> {
    slab: &'a Slab,
    slot: u32,
}

impl<'a> PartialView<'a> {
    /// The object this view describes.
    pub fn id(&self) -> ObjectId {
        self.slab.id(self.slot)
    }

    /// The sorted rank list `list` showed the object at, if any.
    pub fn rank(&self, list: usize) -> Option<usize> {
        self.slab.rank(self.slot, list)
    }
}

/// An always-on, allocation-free profile of one engine's work, split into
/// the paper's two phases. Timings are taken once per `advance_*` /
/// completion call (never per entry, never per batch), so keeping the
/// profile costs a handful of `Instant` reads per *page* plus plain
/// integer adds on the batch paths — cheap enough to leave on
/// unconditionally, which is what lets `EXPLAIN` report phase timings
/// without a registry attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Wall-clock nanoseconds inside the sorted phase (`advance_*`).
    pub sorted_ns: u64,
    /// Wall-clock nanoseconds inside random-access completion.
    pub random_ns: u64,
    /// Batched cursor reads issued by the sorted phase (one per list per
    /// fetch round).
    pub sorted_batches: u64,
    /// Entries folded in by the sorted phase across all lists.
    pub sorted_entries: u64,
    /// `random_batch` calls issued by completion (one per list that was
    /// missing grades, per completion round).
    pub random_batches: u64,
    /// Object probes carried by those calls (= random accesses billed by
    /// the completion path).
    pub random_probes: u64,
}

/// The cooperative cancellation check every batch round starts with.
#[inline]
pub(crate) fn check_deadline(deadline: Option<std::time::Instant>) -> Result<(), TopKError> {
    match deadline {
        Some(deadline) if std::time::Instant::now() >= deadline => Err(TopKError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// Nanoseconds elapsed since `start`, saturating.
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The unified execution engine: owned sources, batched round-robin sorted
/// streaming at a uniform depth (the paper's `T`), slab candidate
/// bookkeeping, and batched random-access completion. See the module docs.
#[derive(Debug)]
pub struct Engine<S> {
    sources: Vec<S>,
    n: usize,
    slab: Slab,
    matched: Vec<ObjectId>,
    depth: usize,
    /// One reusable fetch buffer per list (scratch reuse across rounds).
    scratch: Vec<Vec<GradedEntry>>,
    /// Reusable completion scratch: slots pending completion.
    pending: Vec<u32>,
    /// Reusable completion scratch: slots probed for the current list.
    probe_slots: Vec<u32>,
    /// Reusable completion scratch: the probe ids sent to `random_batch`.
    probes: Vec<ObjectId>,
    /// Reusable completion scratch: the grades `random_batch` answered.
    probe_grades: Vec<Option<Grade>>,
    /// Cooperative cancellation: checked between batch rounds (see
    /// [`Engine::set_deadline`]).
    deadline: Option<std::time::Instant>,
    /// Phase timings and batch counts (see [`EngineProfile`]).
    profile: EngineProfile,
}

impl<S: GradedSource> Engine<S> {
    /// Opens an engine over the given sources (each conceptually holding a
    /// sorted cursor at rank 0). Fails if there are no sources or they
    /// disagree on the database size.
    ///
    /// # Panics
    /// Panics if the database size exceeds `u32::MAX` ranks (the slab
    /// stores ranks as `u32`; at 16 bytes per entry that bound is only
    /// reachable past 64 GiB per list).
    pub fn open(sources: Vec<S>) -> Result<Self, TopKError> {
        if sources.is_empty() {
            return Err(TopKError::NoSources);
        }
        let n = sources[0].len();
        if sources.iter().any(|s| s.len() != n) {
            return Err(TopKError::MismatchedSources {
                sizes: sources.iter().map(|s| s.len()).collect(),
            });
        }
        assert!(n <= u32::MAX as usize, "slab ranks are u32");
        let m = sources.len();
        Ok(Engine {
            sources,
            n,
            slab: Slab::new(m),
            matched: Vec::new(),
            depth: 0,
            scratch: vec![Vec::new(); m],
            pending: Vec::new(),
            probe_slots: Vec::new(),
            probes: Vec::new(),
            probe_grades: Vec::new(),
            deadline: None,
            profile: EngineProfile::default(),
        })
    }

    /// Sets (or clears) a cooperative deadline. The engine checks it once
    /// per batch round — between `pull_levels` rounds of the sorted phase
    /// and between per-list rounds of random-access completion — and
    /// returns [`TopKError::DeadlineExceeded`] when it has passed. The
    /// engine state stays consistent at every check point: clearing or
    /// extending the deadline and repeating the call resumes the identical
    /// stream with no access re-billed.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// The cooperative deadline currently in force, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    #[inline]
    fn check_deadline(&self) -> Result<(), TopKError> {
        check_deadline(self.deadline)
    }

    /// The sources the engine streams from.
    pub fn sources(&self) -> &[S] {
        &self.sources
    }

    /// Unwraps the engine, returning its sources.
    pub fn into_sources(self) -> Vec<S> {
        self.sources
    }

    /// Number of lists, `m`.
    pub fn m(&self) -> usize {
        self.sources.len()
    }

    /// Database size, `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Common depth already consumed from every list (the paper's `T` once
    /// the sorted phase stops).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Phase timings and batch counts accumulated so far (always on — see
    /// [`EngineProfile`] for the cost argument).
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Objects seen in *every* list under sorted access — the paper's
    /// matched set `L`, in match order.
    pub fn matched(&self) -> &[ObjectId] {
        &self.matched
    }

    /// Every candidate's bookkeeping, in first-seen order.
    pub(crate) fn views(&self) -> impl Iterator<Item = PartialView<'_>> {
        (0..self.slab.len() as u32).map(move |slot| PartialView {
            slab: &self.slab,
            slot,
        })
    }

    /// One candidate's bookkeeping, if the object has been seen.
    pub(crate) fn view(&self, object: ObjectId) -> Option<PartialView<'_>> {
        self.slab.slot_of(object).map(|slot| PartialView {
            slab: &self.slab,
            slot,
        })
    }

    /// Every object seen so far, via either access kind, in first-seen
    /// order.
    pub fn seen(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slab.ids.iter().copied()
    }

    /// Runs the sorted phase round-robin until at least `k` objects have
    /// been seen in every list ("wait until there are at least k matches"),
    /// or the lists are exhausted. Idempotent for already-achieved targets,
    /// so sessions can call it repeatedly with a growing `k`.
    ///
    /// Streaming is batched (see the module docs for why the batch sizes
    /// cannot overshoot the positional stop depth).
    /// Errors leave the already-folded prefix intact: a transient
    /// [`TopKError::SourceFailed`] or [`TopKError::DeadlineExceeded`] can
    /// be retried by calling again with the same target, and no consumed
    /// entry is re-read or re-billed.
    pub fn advance_until_matched(&mut self, k: usize) -> Result<(), TopKError> {
        let start = std::time::Instant::now();
        let mut result = Ok(());
        while self.matched.len() < k && self.depth < self.n {
            if let Err(e) = self.check_deadline() {
                result = Err(e);
                break;
            }
            // T >= k, and at most m objects can complete per level.
            let by_depth = k.saturating_sub(self.depth);
            let by_matches = (k - self.matched.len()).div_ceil(self.m());
            let step = by_depth
                .max(by_matches)
                .max(1)
                .min(self.n - self.depth)
                .min(CHUNK);
            if let Err(e) = self.pull_levels(step) {
                result = Err(e);
                break;
            }
        }
        self.profile.sorted_ns += elapsed_ns(start);
        result
    }

    /// Streams every list down to `target` (clamped to `N`) regardless of
    /// matches — the full-scan primitive behind B₀ (`target = k`) and the
    /// naive baseline (`target = N`). Errors are resumable exactly as on
    /// [`Engine::advance_until_matched`].
    pub fn advance_to_depth(&mut self, target: usize) -> Result<(), TopKError> {
        let start = std::time::Instant::now();
        let target = target.min(self.n);
        let mut result = Ok(());
        while self.depth < target {
            if let Err(e) = self.check_deadline() {
                result = Err(e);
                break;
            }
            let step = (target - self.depth).min(CHUNK);
            if let Err(e) = self.pull_levels(step) {
                result = Err(e);
                break;
            }
        }
        self.profile.sorted_ns += elapsed_ns(start);
        result
    }

    /// Fetches `levels` more entries from every list (one batched cursor
    /// read per list) and folds them into the bookkeeping in the exact
    /// interleaved order of the positional round-robin loop, so match order
    /// — and therefore every downstream tie-break — is preserved.
    ///
    /// All `m` fetches complete **before** any entry is folded in, so a
    /// failed fetch leaves the bookkeeping untouched at the pre-round depth:
    /// retrying the round re-reads only this round's entries and never
    /// observes an entry twice.
    fn pull_levels(&mut self, levels: usize) -> Result<(), TopKError> {
        debug_assert!(self.depth + levels <= self.n);
        let m = self.sources.len();
        self.profile.sorted_batches += m as u64;
        self.profile.sorted_entries += (levels * m) as u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        let depth = self.depth;
        let mut failed: Option<crate::access::SourceError> = None;
        for (buf, source) in scratch.iter_mut().zip(&self.sources) {
            buf.clear();
            match source.try_sorted_batch(depth, levels, buf) {
                Ok(got) => {
                    debug_assert_eq!(got, levels, "depth + levels <= N implies full batches")
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failed {
            self.scratch = scratch;
            return Err(TopKError::SourceFailed(e));
        }
        for level in 0..levels {
            for (i, buf) in scratch.iter().enumerate() {
                let entry = buf[level];
                let slot = self.slab.slot(entry.object);
                if self.slab.observe(slot, i, self.depth + level, entry.grade) {
                    self.matched.push(entry.object);
                }
            }
        }
        self.depth += levels;
        self.scratch = scratch;
        Ok(())
    }

    /// Completes the grade vectors of the given objects by random access
    /// ("if x ∈ X^j_T then μ_Aj(x) has already been determined, so random
    /// access is not needed"). Objects never seen before get fresh entries.
    ///
    /// Completion is batched per list through
    /// [`GradedSource::try_random_batch`]: one call per list carrying every
    /// object that list is missing, so block-backed sources decode each
    /// block once. Exactly one random access per missing `(object, list)`
    /// pair is billed — the same count the per-object loop would produce.
    pub fn complete_grades(
        &mut self,
        objects: impl IntoIterator<Item = ObjectId>,
    ) -> Result<(), TopKError> {
        self.pending.clear();
        for object in objects {
            let slot = self.slab.slot(object);
            if !self.slab.complete(slot) {
                self.pending.push(slot);
            }
        }
        // Dedupe repeated inputs: the per-object loop would skip a repeat
        // (its grades are already present); billing must match.
        self.pending.sort_unstable();
        self.pending.dedup();
        self.complete_pending()
    }

    /// The random-access phase proper, timed into the profile.
    fn complete_pending(&mut self) -> Result<(), TopKError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let result = self.probe_pending();
        self.profile.random_ns += elapsed_ns(start);
        result
    }

    /// Batched completion of `self.pending` (distinct, incomplete slots):
    /// one `random_batch` per list over the objects that list is missing.
    ///
    /// An error (or an expired deadline, checked between per-list rounds)
    /// leaves every already-answered grade in place: retrying re-probes
    /// only the still-missing `(object, list)` pairs, so nothing is billed
    /// twice on resume.
    fn probe_pending(&mut self) -> Result<(), TopKError> {
        for i in 0..self.sources.len() {
            self.check_deadline()?;
            let Engine {
                sources,
                slab,
                pending,
                probe_slots,
                probes,
                probe_grades,
                profile,
                ..
            } = self;
            let source = &sources[i];
            probe_slots.clear();
            probes.clear();
            for &slot in pending.iter() {
                if !slab.has_grade(slot, i) {
                    probe_slots.push(slot);
                    probes.push(slab.id(slot));
                }
            }
            if probes.is_empty() {
                continue;
            }
            profile.random_batches += 1;
            profile.random_probes += probes.len() as u64;
            probe_grades.clear();
            source
                .try_random_batch(probes, probe_grades)
                .map_err(TopKError::SourceFailed)?;
            debug_assert_eq!(probe_grades.len(), probes.len());
            for (&slot, grade) in probe_slots.iter().zip(probe_grades.iter()) {
                // The paper's model grades every object in every list
                // (possibly zero); a miss — e.g. a degraded sharded source
                // that lost the object's shard — is graded zero rather than
                // poisoning the whole query.
                let grade = grade.unwrap_or(Grade::ZERO);
                slab.set_grade(slot, i, grade);
            }
        }
        Ok(())
    }

    /// The complete grade vector of an object as a borrowed slice — the
    /// zero-copy scoring path. `None` until every grade is known.
    pub fn grade_slice(&self, object: ObjectId) -> Option<&[Grade]> {
        self.slab
            .slot_of(object)
            .and_then(|slot| self.slab.grade_slice(slot))
    }

    /// The full grade vector of an object, if complete. Allocates; prefer
    /// [`Engine::grade_slice`] on hot paths.
    pub fn grade_vector(&self, object: ObjectId) -> Option<Vec<Grade>> {
        self.grade_slice(object).map(<[Grade]>::to_vec)
    }

    /// The overall grade of an object under `agg`, if its vector is
    /// complete. Scores straight from the slab slice — no clone.
    pub fn overall<A: Aggregation>(&self, object: ObjectId, agg: &A) -> Option<Grade> {
        self.grade_slice(object).map(|grades| agg.combine(grades))
    }
}

/// Where a slot of an [`EngineSession`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Seen, but no page has graded it in full yet.
    Waiting,
    /// Graded in full and scored; competes for every page until chosen.
    Graded,
    /// Handed out.
    Returned,
}

/// The strategy a session runs: where its sorted phase stops and which
/// objects its random phase grades. Fixed by the constructor.
enum Rule<A> {
    /// Algorithm A₀ (Theorem 4.2), any monotone aggregation: sorted access
    /// until the cumulative `k` objects have matched, then every object
    /// seen is graded in full.
    Monotone(A),
    /// Algorithm A₀′ (Proposition 4.3), `t = min`: A₀'s sorted phase, but
    /// only the pivot list's prefix at or above `g₀` is graded.
    Min {
        /// `(g₀, i₀)`: the least grade any list has shown for a matched
        /// object, and the first list (in match order) that showed it.
        pivot: Option<(Grade, usize)>,
        /// How many of [`Engine::matched`] are folded into `pivot`.
        folded: usize,
    },
    /// The naive algorithm (Section 4), any aggregation: the first page
    /// reads every list to the end, which grades every object.
    Scan(A),
    /// Algorithm B₀ (Theorem 4.5), `t = max`: sorted access to depth =
    /// cumulative `k` in every list, no random access; an object scores
    /// the best grade any list has shown for it so far.
    Max,
}

impl<A> Rule<A> {
    /// Whether a page grades this (seen) slot in full.
    fn grades(&self, slab: &Slab, slot: u32) -> bool {
        match *self {
            Rule::Monotone(_) | Rule::Scan(_) => true,
            Rule::Min {
                pivot: Some((g0, i0)),
                ..
            } => slab.has_rank(slot, i0) && slab.grades[slot as usize * slab.m + i0] >= g0,
            Rule::Min { pivot: None, .. } | Rule::Max => false,
        }
    }
}

/// A resumable top-k session over the engine: algorithm A₀
/// ([`EngineSession::new`]), A₀′ ([`EngineSession::min`]), the naive scan
/// ([`EngineSession::scan`]) or B₀ ([`EngineSession::max`]) kept alive
/// between pages, implementing
/// Section 4's "continue where we left off". Grades already fetched (by
/// either access kind) are never re-fetched, so the cumulative *sorted*
/// cost of paging equals one evaluation at the cumulative `k` — and a
/// single page is exactly that evaluation.
pub struct EngineSession<S, A> {
    engine: Engine<S>,
    rule: Rule<A>,
    /// Where each slot stands. Under A₀′ the `Waiting` ones stay in the
    /// slab: `g₀` only falls as the cumulative `k` grows, so a later
    /// page's candidate set can only take more of them.
    status: Vec<Status>,
    /// `scores[slot]` = the overall grade, computed exactly once when the
    /// slot was graded (complete grade vectors never change, so neither
    /// can the score). Meaningful once a slot is no longer `Waiting`.
    scores: Vec<Grade>,
    /// Working buffer lent to [`Aggregation::combine_reusing`].
    scratch: Vec<Grade>,
    cumulative: usize,
    /// The overall grade of the worst answer handed out so far (the k-th
    /// score frontier at the cumulative `k`), once a non-empty page exists.
    frontier: Option<Grade>,
    /// `(cumulative k, frontier)` after each non-empty page — the
    /// frontier's progression, one entry per page, for EXPLAIN output.
    frontier_history: Vec<(usize, Grade)>,
}

impl<S, A> EngineSession<S, A>
where
    S: GradedSource,
    A: Aggregation,
{
    /// Opens an A₀ session over the given sources and monotone aggregation.
    pub fn new(sources: Vec<S>, agg: A) -> Result<Self, TopKError> {
        Self::open(sources, Rule::Monotone(agg))
    }

    /// Opens an A₀′ session for the standard fuzzy conjunction
    /// `A₁ ∧ ... ∧ A_m` (aggregation fixed to min, whatever `A` is).
    ///
    /// Each page grades only the not-yet-graded candidates
    /// `{x ∈ X^{i₀}_T : μ_{i₀}(x) ≥ g₀}` of the *current* pivot list and
    /// selects among everything graded so far. Every object outside that
    /// set scores at most `g₀` and the matched set — at least the
    /// cumulative `k` objects scoring at least `g₀` — lies inside it, so
    /// each prefix of the concatenated pages is a valid top-k. The pivot
    /// may move between pages, so the cumulative random cost is bounded by
    /// A₀'s, not by one A₀′ run at the cumulative `k`.
    pub fn min(sources: Vec<S>) -> Result<Self, TopKError> {
        Self::open(
            sources,
            Rule::Min {
                pivot: None,
                folded: 0,
            },
        )
    }

    /// Opens a naive-scan session: correct for *any* aggregation, at a
    /// cost of `m·N` sorted accesses paid by the first page.
    pub fn scan(sources: Vec<S>, agg: A) -> Result<Self, TopKError> {
        Self::open(sources, Rule::Scan(agg))
    }

    /// Opens a B₀ session for the standard fuzzy disjunction
    /// `A₁ ∨ ... ∨ A_m` (aggregation fixed to max, whatever `A` is):
    /// paging deepens the per-list prefixes to the cumulative `k`, so the
    /// total cost of paging is exactly `m · Σkᵢ` sorted accesses —
    /// identical to one B₀ run at the cumulative `k` — with no random
    /// access at all.
    pub fn max(sources: Vec<S>) -> Result<Self, TopKError> {
        Self::open(sources, Rule::Max)
    }

    fn open(sources: Vec<S>, rule: Rule<A>) -> Result<Self, TopKError> {
        validate_inputs(&sources, 1)?;
        Ok(EngineSession {
            engine: Engine::open(sources)?,
            rule,
            status: Vec::new(),
            scores: Vec::new(),
            scratch: Vec::new(),
            cumulative: 0,
            frontier: None,
            frontier_history: Vec::new(),
        })
    }

    /// How many answers have been handed out so far.
    pub fn returned(&self) -> usize {
        self.cumulative
    }

    /// How many objects the session has graded in full so far — the size
    /// of its cumulative random-access candidate set.
    pub fn graded(&self) -> usize {
        let waiting = |s: &&Status| **s == Status::Waiting;
        self.status.len() - self.status.iter().filter(waiting).count()
    }

    /// Proposition 4.3's `(g₀, i₀)` as of the last page — the threshold
    /// grade and the pivot list whose prefix holds every possible winner.
    /// `None` before the first page and for sessions not opened with
    /// [`EngineSession::min`].
    pub fn pivot(&self) -> Option<(Grade, usize)> {
        match self.rule {
            Rule::Min { pivot, .. } => pivot,
            _ => None,
        }
    }

    /// The session's current **k-th score frontier**: the overall grade of
    /// the worst answer handed out so far, or `None` before the first
    /// non-empty page. Pages are selected best-first, so this value only
    /// falls as the session advances.
    ///
    /// Use it as the advisory stop-threshold hint for auxiliary bounded
    /// scans ([`SortedCursor::set_bound`](crate::access::SortedCursor)):
    /// under a monotone aggregation no unseen object scoring above the
    /// frontier can lie entirely below it in any list, so a source is free
    /// to stop streaming — and a v2 segment to skip whole blocks — once
    /// its grades fall under this value. Correctness never depends on the
    /// hint: it is permission to stop early, not a filter.
    pub fn frontier(&self) -> Option<Grade> {
        self.frontier
    }

    /// The frontier's progression: `(cumulative k, k-th score)` after each
    /// non-empty page, oldest first. One entry per page — kept for EXPLAIN.
    pub fn frontier_history(&self) -> &[(usize, Grade)] {
        &self.frontier_history
    }

    /// The underlying engine (e.g. for reading metered sources).
    pub fn engine(&self) -> &Engine<S> {
        &self.engine
    }

    /// The session's sources.
    pub fn sources(&self) -> &[S] {
        self.engine.sources()
    }

    /// Sets (or clears) a cooperative deadline on the underlying engine —
    /// see [`Engine::set_deadline`]. A page that fails with
    /// [`TopKError::DeadlineExceeded`] leaves the session resumable:
    /// extend (or clear) the deadline and call
    /// [`next_batch`](EngineSession::next_batch) again to get the identical
    /// page with no access re-billed.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.engine.set_deadline(deadline);
    }

    /// Returns the next `k` best answers (fewer if the database is
    /// exhausted), continuing where the previous batch left off.
    pub fn next_batch(&mut self, k: usize) -> Result<TopK, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let n = self.engine.n();
        let target = (self.cumulative + k).min(n);
        if target == self.cumulative {
            return Ok(TopK::from_entries(Vec::new()));
        }

        // Sorted phase, resumed at the stored depth: until the *cumulative*
        // target has matched — all `N` objects for the naive scan — or,
        // for B₀, to the cumulative target's depth whatever has matched.
        match self.rule {
            Rule::Scan(_) => self.engine.advance_until_matched(n)?,
            Rule::Max => self.engine.advance_to_depth(target)?,
            _ => self.engine.advance_until_matched(target)?,
        }

        // x₀ ∈ L with the least overall grade; sorted access has shown
        // every grade of a matched object.
        let slab = &self.engine.slab;
        if let Rule::Min { pivot, folded } = &mut self.rule {
            for id in &self.engine.matched[*folded..] {
                let slot = slab.slot_of(*id).expect("matched objects are seen");
                let grades = slab.grade_slice(slot).expect("matched in every list");
                for (i, &grade) in grades.iter().enumerate() {
                    if pivot.is_none_or(|(g0, _)| grade < g0) {
                        *pivot = Some((grade, i));
                    }
                }
            }
            *folded = self.engine.matched.len();
        }

        // Random phase: complete this page's candidates that no earlier
        // page graded. A failed completion marks nothing graded, so a
        // retry finds the same candidates and re-probes only what is
        // still missing.
        self.status.resize(slab.len(), Status::Waiting);
        let (rule, status) = (&self.rule, &self.status);
        let Engine { slab, pending, .. } = &mut self.engine;
        pending.clear();
        pending.extend((0..slab.len() as u32).filter(|&slot| {
            status[slot as usize] == Status::Waiting
                && rule.grades(slab, slot)
                && !slab.complete(slot)
        }));
        self.engine.complete_pending()?;

        // Computation phase, one pass: score those candidates — once,
        // straight off the slab's grade slices — and select the next
        // `target - cumulative` best among graded objects not yet returned.
        // (Filtering *before* selection keeps the batch size exact even
        // when fresh objects tie an already-returned one at the cut grade
        // — selecting top-`target` first and subtracting could let a tie
        // displace a returned object and hand out extra entries.)
        let slab = &self.engine.slab;
        self.scores.resize(slab.len(), Grade::ZERO);
        let (rule, status, scores, scratch) = (
            &self.rule,
            &mut self.status,
            &mut self.scores,
            &mut self.scratch,
        );
        let graded = (0..slab.len()).filter_map(|at| {
            let slot = at as u32;
            if let Rule::Max = rule {
                // A deeper page can show the object higher in another
                // list, so B₀'s score is read afresh until it is returned.
                return (status[at] != Status::Returned)
                    .then(|| (slab.id(slot), slab.best_grade(slot)));
            }
            if status[at] == Status::Waiting && rule.grades(slab, slot) {
                let grades = slab.grade_slice(slot).expect("grades completed above");
                scores[at] = match rule {
                    Rule::Monotone(agg) | Rule::Scan(agg) => agg.combine_reusing(grades, scratch),
                    Rule::Min { .. } => grades.iter().min().copied().expect("m >= 1"),
                    Rule::Max => unreachable!("B₀ grades nothing in full"),
                };
                status[at] = Status::Graded;
            }
            (status[at] == Status::Graded).then(|| (slab.id(slot), scores[at]))
        });
        let page = TopK::select(graded, target - self.cumulative);
        for e in page.entries() {
            let slot = slab.slot_of(e.object).expect("selected objects are seen");
            self.status[slot as usize] = Status::Returned;
        }
        if let Some(last) = page.entries().last() {
            // Pages are handed out best-first, so the latest page's worst
            // grade is the cumulative k-th score.
            self.frontier = Some(last.grade);
            self.frontier_history.push((target, last.grade));
        }
        self.cumulative = target;
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, total_stats, MemorySource};
    use garlic_agg::iterated::{min_agg, IteratedTNorm};
    use std::collections::HashSet;

    type MinAgg = IteratedTNorm<garlic_agg::tnorms::Minimum>;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    /// Two 4-object lists with opposite orders.
    fn sources() -> Vec<MemorySource> {
        vec![
            MemorySource::from_grades(&[g(1.0), g(0.8), g(0.6), g(0.4)]),
            MemorySource::from_grades(&[g(0.3), g(0.5), g(0.7), g(0.9)]),
        ]
    }

    #[test]
    fn advance_finds_first_match() {
        let mut engine = Engine::open(sources()).unwrap();
        engine.advance_until_matched(1).unwrap();
        // List 0 order: 0,1,2,3. List 1 order: 3,2,1,0.
        // Depth 1: {0},{3}. Depth 2: {0,1},{3,2}: no match yet.
        // Depth 3: {0,1,2},{3,2,1}: objects 1 and 2 match.
        assert_eq!(engine.depth(), 3);
        assert_eq!(engine.matched().len(), 2);
    }

    #[test]
    fn advance_is_idempotent_and_resumable() {
        let mut engine = Engine::open(sources()).unwrap();
        engine.advance_until_matched(1).unwrap();
        let depth = engine.depth();
        engine.advance_until_matched(1).unwrap();
        assert_eq!(engine.depth(), depth); // no extra work
        engine.advance_until_matched(4).unwrap();
        assert_eq!(engine.depth(), 4);
        assert_eq!(engine.matched().len(), 4);
    }

    #[test]
    fn batched_streaming_reads_no_more_than_positional_round_robin() {
        // The positional loop stops at the first depth T with >= k matches;
        // the engine's batched loop must bill the same m*T entries.
        let cs = counted(sources());
        let mut engine = Engine::open(cs).unwrap();
        engine.advance_until_matched(1).unwrap();
        let stats = total_stats(engine.sources());
        assert_eq!(stats.sorted, 2 * 3); // T = 3 from the hand example
        assert_eq!(stats.random, 0);
    }

    #[test]
    fn complete_grades_fills_missing_slots() {
        let mut engine = Engine::open(sources()).unwrap();
        engine.advance_until_matched(1).unwrap();
        // Object 0 was seen only in list 0 (rank 0); complete it.
        assert!(engine.grade_vector(ObjectId(0)).is_none());
        engine.complete_grades([ObjectId(0)]).unwrap();
        assert_eq!(
            engine.overall(ObjectId(0), &min_agg()),
            Some(g(0.3)) // min(1.0, 0.3)
        );
        assert_eq!(engine.grade_slice(ObjectId(0)), Some(&[g(1.0), g(0.3)][..]));
    }

    #[test]
    fn duplicate_completion_requests_bill_once() {
        let cs = counted(sources());
        let mut engine = Engine::open(cs).unwrap();
        engine.advance_until_matched(1).unwrap();
        // Object 0: seen in list 0 only, so completion needs 1 random
        // access — and repeating it in one call (or across calls) adds none.
        engine
            .complete_grades([ObjectId(0), ObjectId(0), ObjectId(0)])
            .unwrap();
        engine.complete_grades([ObjectId(0)]).unwrap();
        assert_eq!(total_stats(engine.sources()).random, 1);
    }

    #[test]
    fn overall_is_none_until_complete() {
        let mut engine = Engine::open(sources()).unwrap();
        engine.advance_until_matched(1).unwrap();
        assert_eq!(engine.overall(ObjectId(0), &min_agg()), None);
        assert_eq!(engine.overall(ObjectId(99), &min_agg()), None);
    }

    #[test]
    fn advance_to_depth_streams_prefixes() {
        let cs = counted(sources());
        let mut engine = Engine::open(cs).unwrap();
        engine.advance_to_depth(2).unwrap();
        assert_eq!(total_stats(engine.sources()).sorted, 2 * 2);
        assert_eq!(engine.seen().count(), 4);
        // Clamped at N, idempotent past it.
        engine.advance_to_depth(99).unwrap();
        assert_eq!(engine.depth(), 4);
        assert_eq!(total_stats(engine.sources()).sorted, 2 * 4);
    }

    #[test]
    fn open_rejects_bad_sources() {
        assert!(matches!(
            Engine::<MemorySource>::open(vec![]),
            Err(TopKError::NoSources)
        ));
        let mismatched = vec![
            MemorySource::from_grades(&[g(0.1), g(0.2)]),
            MemorySource::from_grades(&[g(0.1)]),
        ];
        assert!(matches!(
            Engine::open(mismatched),
            Err(TopKError::MismatchedSources { .. })
        ));
    }

    #[test]
    fn slab_masks_work_past_one_word() {
        // 67 lists forces a 2-word mask per slot; the complete()/matched
        // logic must handle the partial last word.
        let m = 67;
        let lists: Vec<MemorySource> = (0..m)
            .map(|i| {
                MemorySource::from_grades(&[
                    Grade::clamped(0.1 + (i as f64 % 7.0) / 10.0),
                    Grade::clamped(0.9 - (i as f64 % 5.0) / 10.0),
                ])
            })
            .collect();
        let mut engine = Engine::open(lists).unwrap();
        engine.advance_until_matched(1).unwrap();
        assert!(!engine.matched().is_empty());
        let id = engine.matched()[0];
        let slice = engine.grade_slice(id).expect("matched objects complete");
        assert_eq!(slice.len(), m);
        engine.advance_to_depth(2).unwrap();
        assert_eq!(engine.matched().len(), 2);
    }

    #[test]
    fn session_pages_without_repeating_objects() {
        let agg = min_agg();
        let mut session = EngineSession::new(sources(), &agg).unwrap();
        let a = session.next_batch(2).unwrap();
        let b = session.next_batch(2).unwrap();
        assert_eq!(session.returned(), 4);
        let mut ids = a.objects();
        ids.extend(b.objects());
        let distinct: HashSet<_> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
        assert!(session.next_batch(1).unwrap().is_empty());
        assert!(session.next_batch(0).is_err());
    }

    #[test]
    fn every_session_yields_a_short_page_at_exhaustion_then_empty_ones() {
        let agg = min_agg();
        let mut sessions = [
            EngineSession::new(sources(), &agg).unwrap(),
            EngineSession::min(sources()).unwrap(),
            EngineSession::scan(sources(), &agg).unwrap(),
            EngineSession::max(sources()).unwrap(),
        ];
        for session in &mut sessions {
            assert_eq!(session.next_batch(3).unwrap().len(), 3);
            assert_eq!(session.next_batch(3).unwrap().len(), 1);
            assert!(session.next_batch(3).unwrap().is_empty());
            assert_eq!(session.returned(), 4);
        }
    }

    /// Six objects a..f = 0..5, built so that Proposition 4.3's pivot is
    /// list 0 at k = 1 and list 1 at k = 2.
    fn pivot_moving_sources() -> Vec<MemorySource> {
        vec![
            MemorySource::from_grades(&[g(1.0), g(0.9), g(0.8), g(0.3), g(0.2), g(0.1)]),
            MemorySource::from_grades(&[g(0.85), g(0.95), g(0.5), g(0.4), g(0.9), g(0.05)]),
        ]
    }

    #[test]
    fn min_session_defers_non_candidates_and_follows_a_moving_pivot() {
        let (a, b) = (ObjectId(0), ObjectId(1));
        let mut session = EngineSession::<_, MinAgg>::min(counted(pivot_moving_sources())).unwrap();
        assert_eq!(session.pivot(), None);

        // Page 1: T = 2, L = {b}, x₀ = b at .9 in list 0. Candidates are
        // list 0's prefix at or above .9 — {a, b}; e (seen in list 1 only)
        // is deferred, where plain A₀ would have probed it.
        let first = session.next_batch(1).unwrap();
        assert_eq!(first.entries(), &[GradedEntry::new(b, g(0.9))]);
        assert_eq!(session.pivot(), Some((g(0.9), 0)));
        assert_eq!(session.graded(), 2);
        assert_eq!(
            total_stats(session.sources()),
            crate::AccessStats::new(4, 1)
        );

        // Page 2: T = 3, a matches at .85 in list 1 — the pivot moves.
        // List 1's prefix at or above .85 is {b, e, a}: e is completed
        // now, c (seen in list 0 only) stays deferred.
        let second = session.next_batch(1).unwrap();
        assert_eq!(second.entries(), &[GradedEntry::new(a, g(0.85))]);
        assert_eq!(session.pivot(), Some((g(0.85), 1)));
        assert_eq!(session.graded(), 3);
        assert_eq!(
            total_stats(session.sources()),
            crate::AccessStats::new(6, 2)
        );

        // The rest: both lists run out, sorted access alone grades c, d, f.
        let rest = session.next_batch(9).unwrap();
        assert_eq!(rest.grades(), vec![g(0.5), g(0.3), g(0.2), g(0.05)]);
        assert_eq!(
            total_stats(session.sources()),
            crate::AccessStats::new(12, 2)
        );

        // Plain A₀ over the same pages pays for e and c as soon as it
        // sees them.
        let mut a0 = EngineSession::new(counted(pivot_moving_sources()), min_agg()).unwrap();
        for k in [1, 1, 9] {
            a0.next_batch(k).unwrap();
        }
        assert_eq!(total_stats(a0.sources()), crate::AccessStats::new(12, 3));
    }

    #[test]
    fn scan_session_pays_m_times_n_on_the_first_page_and_nothing_after() {
        // A non-monotone aggregation: only the scan may run it.
        struct DistanceFromHalf;
        impl Aggregation for DistanceFromHalf {
            fn name(&self) -> String {
                "1 - 2|x1 - 1/2|".into()
            }
            fn combine(&self, grades: &[Grade]) -> Grade {
                Grade::clamped(1.0 - 2.0 * (grades[0].value() - 0.5).abs())
            }
            fn is_monotone(&self) -> bool {
                false
            }
            fn is_strict(&self, _arity: usize) -> bool {
                false
            }
        }
        let mut session = EngineSession::scan(counted(sources()), DistanceFromHalf).unwrap();
        let first = session.next_batch(1).unwrap();
        // List 0 grades 1.0, .8, .6, .4: objects 2 and 3 are nearest 1/2.
        assert_eq!(first.objects(), vec![ObjectId(2)]);
        assert_eq!(
            total_stats(session.sources()),
            crate::AccessStats::new(8, 0)
        );
        assert_eq!(
            session.next_batch(2).unwrap().objects(),
            vec![ObjectId(3), ObjectId(1)]
        );
        assert_eq!(
            total_stats(session.sources()),
            crate::AccessStats::new(8, 0)
        );
    }

    #[test]
    fn session_frontier_is_the_cumulative_kth_score() {
        let agg = min_agg();
        let mut session = EngineSession::new(sources(), &agg).unwrap();
        assert_eq!(session.frontier(), None);
        let first = session.next_batch(2).unwrap();
        assert_eq!(session.frontier(), first.entries().last().map(|e| e.grade));
        let second = session.next_batch(2).unwrap();
        let cut = second.entries().last().map(|e| e.grade);
        assert_eq!(session.frontier(), cut);
        assert!(session.frontier() <= first.entries().last().map(|e| e.grade));
        // Exhausted pages are empty and leave the frontier in place.
        assert!(session.next_batch(1).unwrap().is_empty());
        assert_eq!(session.frontier(), cut);

        // The frontier is a valid advisory cursor bound: a bounded scan
        // emits an exact prefix of the unbounded stream and only withholds
        // entries strictly below the bound.
        let source = &session.sources()[0];
        let bound = session.frontier().unwrap();
        let full: Vec<GradedEntry> = source.open_sorted().collect();
        let hinted: Vec<GradedEntry> = source.open_sorted().with_bound(bound).collect();
        assert_eq!(full[..hinted.len()], hinted[..]);
        assert!(full[hinted.len()..].iter().all(|e| e.grade < bound));
    }

    #[test]
    fn b0_session_frontier_tracks_the_worst_returned_grade() {
        let mut session = EngineSession::<_, MinAgg>::max(sources()).unwrap();
        assert_eq!(session.frontier(), None);
        let first = session.next_batch(1).unwrap();
        assert_eq!(session.frontier(), first.entries().last().map(|e| e.grade));
        let second = session.next_batch(2).unwrap();
        assert_eq!(session.frontier(), second.entries().last().map(|e| e.grade));
    }

    #[test]
    fn session_high_water_mark_never_repeats_random_accesses() {
        // Page through everything one answer at a time: every (object,
        // list) pair must be fetched at most once per access kind, so the
        // total is bounded by 2·m·N even with N pages.
        let cs = counted(sources());
        let mut session = EngineSession::new(cs, min_agg()).unwrap();
        for _ in 0..4 {
            session.next_batch(1).unwrap();
        }
        let stats = total_stats(session.sources());
        assert!(stats.unweighted() <= 2 * 2 * 4, "stats {stats:?}");
        assert_eq!(stats.sorted, 2 * 4);
    }

    #[test]
    fn b0_session_paging_costs_m_times_cumulative_k() {
        let paged = counted(sources());
        let mut session = EngineSession::<_, MinAgg>::max(paged).unwrap();
        let first = session.next_batch(1).unwrap();
        let second = session.next_batch(2).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 2);
        let stats = total_stats(session.sources());
        assert_eq!(stats.sorted, 2 * 3);
        assert_eq!(stats.random, 0);

        // Grade-equivalent to one B0 run at the cumulative k.
        let oneshot = super::super::b0_max::b0_max_topk(&sources(), 3).unwrap();
        let mut paged_grades = first.grades();
        paged_grades.extend(second.grades());
        assert_eq!(paged_grades, oneshot.grades());
    }
}
