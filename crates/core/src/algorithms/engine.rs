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
//! The crate-private `Engine` packages those parts once, on top of the
//! *batched* access core of [`crate::access`]: sorted streaming goes through
//! [`GradedSource::try_sorted_batch`] and grade completion through
//! [`GradedSource::try_random_batch`], so block-backed sources see a handful of
//! large requests instead of millions of virtual calls. Its one public face
//! is [`EngineSession`]; the algorithm modules (`fa`, `fa_min`, `b0_max`,
//! `naive`, `filtered`) are thin, paper-annotated shells over a session's
//! first page, and `order_stat` and `naive_random_topk` borrow only its
//! batched completion.
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
//!   *borrowable slice* so scoring never clones;
//! * per-slot `u64` **seen-bitmasks** (one word per 64 lists) for both
//!   access kinds, making "has list i shown this object?" a bit test and
//!   "is the grade vector complete?" an O(1) word compare for `m ≤ 64`.
//!
//! The naive scan ([`EngineSession::scan`]) opens the slab *id-addressed*:
//! it pre-sizes one row per id in `0..N`, and `ObjectId(x)` for `x < N` is
//! row `x`, so folding an entry in is an index, a grade write and its known
//! bit — no hash lookup, no rank and no matched list, since the scan reads
//! to depth `N` whatever has matched. Any other id (a live store with
//! tombstones streams ids up to its universe) gets an overflow row through
//! the slot map. A row no list showed is no object of the database: it is
//! never probed, graded or counted. Only the scan opens this layout,
//! because only it visits every object: pre-sizing `N` rows for an A₀
//! page, which touches a few thousand, would fault in most of the table's
//! pages.
//!
//! # Exact Section 5 cost preservation
//!
//! Batching is an access-plan optimisation, not a semantic change. It
//! separates two things the positional loop does at once:
//!
//! * **Fetch.** A list that holds fewer unfolded entries than a round
//!   folds reads, in one [`GradedSource::try_sorted_batch`] call, from the
//!   first rank it lacks to the end of the [`SORTED_WINDOW`]-rank window
//!   that holds the round's last folded rank (or to `N`). A window is one
//!   default 4 KiB segment block, so a fetch never loads a data block the
//!   fold does not reach.
//! * **Fold.** The round then folds *exactly* the entries the paper's
//!   positional round-robin loop would read, in the same interleaved
//!   order. What a fetch returned past them waits, unfolded, for the next
//!   rounds.
//!
//! The engine is also the meter, and it bills the fold, never the fetch:
//! it keeps one [`AccessStats`] per source and bills a sorted access for
//! each entry it folds into the bookkeeping, a random access for each
//! probe a source answers with a grade (a miss, an object the source does
//! not hold, bills nothing), and `|S|` sorted accesses on the crisp list
//! when the filtered rule takes its match set `S`.
//! [`EngineSession::per_source_stats`] and [`EngineSession::stats`] read
//! that bill. It is identical entry-for-entry to the seed positional
//! implementations (property-tested in `tests/engine_equivalence.rs`). An
//! independent [`CountingSource`](crate::access::CountingSource) around
//! each list counts the physical reads instead: exactly the bill plus
//! [`EngineSession::unfolded`], the entries fetched and not yet folded.
//!
//! The trick that keeps the folds large is a pair of lower bounds on the
//! stop depth `T` of the "wait until k matches" phase, which let the
//! engine fold many levels per round without overshooting:
//!
//! * the matched set at depth `T` is contained in every prefix `X^i_T`, so
//!   `T ≥ k` always;
//! * one depth step reveals `m` new `(list, object)` pairs and an object
//!   matches only when its *last* pair arrives, so at most `m` objects can
//!   match per step: from a state with `c` matches at depth `d`,
//!   `T ≥ d + ⌈(k − c)/m⌉`.
//!
//! Within the region these bounds cover, a round folds as many levels as
//! the bound allows; past it the engine folds one level per round, never
//! folding an entry the positional algorithm would not, and the window
//! keeps those rounds to one fetch per list per 256 ranks. The
//! random-access phase likewise bills one access per answered
//! `(object, list)` pair whether completed one by one or via
//! [`GradedSource::try_random_batch`].
//!
//! # Sessions
//!
//! [`EngineSession`] keeps an engine alive between top-k requests: asking
//! for the next `k` answers resumes the sorted phase at the stored depth
//! ("continue where we left off", Section 4), so paging through a ranked
//! result set costs the same sorted accesses as one evaluation at the
//! cumulative `k` — and "the top k" is simply the first page: there is no
//! separate one-shot implementation to agree with. One session type runs
//! seven rules, which differ only in where the sorted phase stops and
//! which objects a page grades:
//!
//! * A₀ ([`EngineSession::new`]): every object seen;
//! * A₀ with per-list depths ([`EngineSession::shrunk`], Section 4's
//!   refinement): only `∪ᵢ X^i_{Tᵢ}`, where the `Tᵢ ≤ T` are the deepest
//!   ranks the cumulative `k` matched objects of earliest worst rank need;
//! * A₀ with a threshold stop ([`EngineSession::threshold`]): the sorted
//!   phase may end before `T`, and only the objects that can still reach
//!   the `k`-th lower bound are graded (below);
//! * A₀′ ([`EngineSession::min`], Proposition 4.3): the pivot list's
//!   prefix at or above `g₀`;
//! * the naive scan ([`EngineSession::scan`]): everything, by sorted
//!   access alone;
//! * B₀ ([`EngineSession::max`]): the sorted phase stops at depth =
//!   cumulative `k`, nothing is probed, and an object scores the best
//!   grade any list has shown for it — `m·k` cumulative cost;
//! * the filtered strategy ([`EngineSession::filtered`], Section 4's
//!   opening): no sorted phase; the first page grades the crisp list's
//!   match set, and a short page is padded with the objects outside it at
//!   grade 0.
//!
//! Under the shrunk, threshold and A₀′ rules the objects a page does not
//! grade wait in the slab: the `Tᵢ` only rise, and `g₀` and the threshold
//! rule's cut only fall, as the cumulative `k` grows, so a later page
//! picks up what it needs. Each page
//! completes — and scores, once, through the zero-alloc
//! [`Aggregation::combine_reusing`] path — only its candidates that no
//! earlier page graded (completed grade vectors stay complete, so cached
//! scores stay valid); where each slot stands is one slot-indexed byte.
//! Per-page work beyond the fresh slots is therefore one bounded-heap
//! selection over the cached score array (unreturned candidates must
//! re-compete every page; the aggregation itself is never re-run — only
//! B₀'s best-grade-so-far can still rise on a deeper page, so it alone is
//! re-read until returned).
//!
//! # The threshold stop
//!
//! A₀ reads until `k` objects have *matched*, which for a compound
//! aggregation such as `min(a, max(b, c))` is far deeper than the answer
//! needs. The threshold rule keeps A₀'s batch schedule and makes no
//! random access before it stops. At each batch boundary, with depth `d`:
//!
//! * `τ = t(ℓ₁, …, ℓ_m)`, where `ℓᵢ` is the last grade list `i` showed,
//!   bounds every unseen object from above (monotonicity);
//! * `W(x) = t(known grades, 0 for the unknown)` bounds a seen object from
//!   below, `B(x) = t(known grades, ℓᵢ for an unknown list i)` from above.
//!
//! The sorted phase stops once the cumulative `k` objects have `W(x) > τ`
//! (strictly), or on A₀'s own "`k` matched" condition, or at the end of
//! the lists, so `d ≤ T`. τ only falls and every `W` only rises, so the
//! set `{x : W(x) > τ}` only grows; it is counted incrementally, through a
//! max-heap of the uncounted slots and one `W` refresh per distinct slot a
//! batch touched. At the stop, with `cut` the `k`-th largest `W`, a page
//! grades only the seen objects with `B(x) ≥ cut`.
//!
//! **Answers are A₀'s, entry for entry.** At least `k` graded objects score
//! `≥ cut`. An unseen object scores `≤ τ < cut` (a "matched" stop reads
//! exactly A₀'s prefixes, so A₀ grades no unseen object either), and a
//! seen object left waiting scores `≤ B(x) < cut`. Everything A₀ grades
//! that this rule does not therefore scores strictly below every object
//! `TopK::select`'s `(grade desc, id asc)` order can pick, and the pick is
//! the same.
//!
//! **One page bills no more than A₀.** The sorted bill is `S = m·d ≤ m·T`.
//! A pair `(x, i)` this rule probes is either probed by A₀ too, or `x`
//! appears in list `i` at a rank in `[d, T)`, an entry only A₀ reads by
//! sorted access; mapping each probe to that access is injective, so
//! `S + R ≤ S_A₀ + R_A₀`. `R` alone can exceed A₀'s.
//!
//! **Paging is a valid ranking, not A₀'s paged bill.** Every prefix of the
//! concatenated pages is A₀'s, and the cumulative sorted bill is at most
//! one A₀ evaluation at the cumulative `k`. But a pair probed on one page
//! can be read by sorted access on the next, so the paged `S + R` can
//! exceed A₀ paged alike.
//!
//! Both arguments need `t` monotone — the precondition A₀ already trusts.
//! Plain TA (Fagin–Lotem–Naor), which probes every object it sees as it
//! goes and stops once `k` *graded* objects reach `τ`, does not keep the
//! single-page bound: on min conjunctions it can bill more than A₀.
//!
//! # Failures
//!
//! A failed page leaves the session resumable. A sorted round folds
//! nothing until every list has answered, and keeps the entries the lists
//! that did answer returned, so the retry fetches only for the lists that
//! failed; a random round keeps every grade it learned, so the retry
//! probes only what is still missing. No entry is fetched twice and no
//! access is billed twice. A sorted read that appends other than the
//! count asked for (a list shorter than its `len`) is a
//! [`TopKError::SourceFailed`], not an index past the end: the list keeps
//! what it held before the read. Entries fetched and not folded — read
//! ahead, or kept from a failed round — are not billed: a retry with a
//! smaller `k` can end its page before folding them, and they are billed
//! by the round that folds them.

use std::collections::BinaryHeap;

use garlic_agg::{Aggregation, Grade};

use crate::access::{GradedSource, SetAccess, SourceError, SORTED_WINDOW};
use crate::cost::AccessStats;
use crate::fx::FxHashMap;
use crate::graded_set::GradedEntry;
use crate::object::ObjectId;
use crate::topk::{validate_inputs, TopK, TopKError};

/// Upper bound on levels folded per batched round, to bound scratch-buffer
/// memory (about `m · CHUNK` entries) on full-database streams.
const CHUNK: usize = 4096;

/// One list's fetch buffer: `buf[read..]` holds the entries from rank
/// `depth` on that a round fetched but did not fold in (see
/// `Engine::pull_levels`). Folding advances `read`; the folded front is
/// dropped only when the list fetches again, so a one-level round moves
/// no entry.
#[derive(Debug, Clone, Default)]
struct Fetched {
    buf: Vec<GradedEntry>,
    /// How many of `buf`'s entries are folded in.
    read: usize,
}

impl Fetched {
    /// Entries fetched and not yet folded in.
    fn unfolded(&self) -> usize {
        self.buf.len() - self.read
    }
}

/// Flat, slot-addressed candidate bookkeeping — see the module docs.
#[derive(Debug, Default)]
struct Slab {
    /// Number of lists `m` (the stride of `grades`/`ranks`).
    m: usize,
    /// `u64` mask words per slot: `⌈m / 64⌉`.
    words: usize,
    /// Bit pattern of the *last* mask word when every list is present.
    last_full: u64,
    /// Id-addressed rows: `ObjectId(x)` for `x < by_id` is slot `x`,
    /// pre-sized at open. Zero for the hashed slab, the only one that
    /// tracks ranks and matches.
    by_id: usize,
    /// `ObjectId → slot` resolution for every other id (FxHash — no
    /// SipHash per observation).
    slots: FxHashMap<ObjectId, u32>,
    /// `slot by_id + j → ObjectId`, in first-seen order.
    ids: Vec<ObjectId>,
    /// m-strided grades; validity is governed by `grade_mask`, and a grade
    /// no list has revealed reads as zero.
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

    /// The scan's slab: one pre-sized row per id in `0..n`, addressed by
    /// the id itself, and no ranks.
    fn by_id(m: usize, n: usize) -> Self {
        let mut slab = Slab::new(m);
        slab.by_id = n;
        slab.grades = vec![Grade::ZERO; n * m];
        slab.grade_mask = vec![0; n * slab.words];
        slab
    }

    /// Number of slots: the id-addressed rows, then one per other object
    /// seen via either access kind.
    fn len(&self) -> usize {
        self.by_id + self.ids.len()
    }

    /// Resolves an object to its slot, allocating a fresh one on first
    /// sight. The only hash lookup on the observation path, and none for
    /// an id-addressed row.
    fn slot(&mut self, id: ObjectId) -> u32 {
        if id.0 < self.by_id as u64 {
            return id.0 as u32;
        }
        match self.slots.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let slot = (self.by_id + self.ids.len()) as u32;
                e.insert(slot);
                self.ids.push(id);
                let rows = self.len();
                self.grades.resize(rows * self.m, Grade::ZERO);
                self.grade_mask.resize(rows * self.words, 0);
                if self.by_id == 0 {
                    self.ranks.resize(rows * self.m, 0);
                    self.rank_mask.resize(rows * self.words, 0);
                }
                slot
            }
        }
    }

    /// The slot of an object: its id-addressed row, or the slot it got
    /// when first seen.
    fn slot_of(&self, id: ObjectId) -> Option<u32> {
        if id.0 < self.by_id as u64 {
            return Some(id.0 as u32);
        }
        self.slots.get(&id).copied()
    }

    fn id(&self, slot: u32) -> ObjectId {
        match (slot as usize).checked_sub(self.by_id) {
            Some(j) => self.ids[j],
            None => ObjectId(u64::from(slot)),
        }
    }

    /// Whether any list has revealed a grade of the slot — false only for
    /// an id-addressed row no list showed.
    #[inline]
    fn shown(&self, slot: u32) -> bool {
        let known = &self.grade_mask[slot as usize * self.words..][..self.words];
        known.iter().any(|&w| w != 0)
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

    /// The lists `0..m` that `pick` selects, as a mask of the slab's
    /// per-slot word layout.
    fn list_mask(m: usize, mut pick: impl FnMut(usize) -> bool) -> Vec<u64> {
        let mut mask = vec![0u64; m.div_ceil(64).max(1)];
        for list in (0..m).filter(|&list| pick(list)) {
            mask[list / 64] |= 1u64 << (list % 64);
        }
        mask
    }

    /// Whether every list in `mask` (see [`Slab::list_mask`]) has revealed
    /// the slot's grade.
    #[inline]
    fn knows_all(&self, slot: u32, mask: &[u64]) -> bool {
        let known = &self.grade_mask[slot as usize * self.words..][..self.words];
        known.iter().zip(mask).all(|(&k, &need)| k & need == need)
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
        self.complete(slot).then(|| self.row(slot))
    }

    /// The slot's grades, the unknown ones at zero.
    #[inline]
    fn row(&self, slot: u32) -> &[Grade] {
        &self.grades[slot as usize * self.m..][..self.m]
    }

    /// Folds one sorted observation in; returns `true` when this was the
    /// slot's last list, i.e. the object just *matched*. The id-addressed
    /// slab writes only the grade and its known bit, and never matches.
    #[inline]
    fn observe(&mut self, slot: u32, list: usize, rank: usize, grade: Grade) -> bool {
        let (w, b) = self.word_bit(slot, list);
        let ranked = self.by_id == 0;
        let shown = if ranked {
            &self.rank_mask
        } else {
            &self.grade_mask
        };
        debug_assert!(
            shown[w] & b == 0,
            "object {} shown twice by list {list}",
            self.id(slot)
        );
        let base = slot as usize * self.m + list;
        self.grades[base] = grade;
        self.grade_mask[w] |= b;
        if !ranked {
            return false;
        }
        self.ranks[base] = rank as u32;
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
    /// Batched cursor reads issued by the sorted phase: one per list per
    /// round that folds past what the list already fetched, which reads to
    /// the end of that round's [`SORTED_WINDOW`]-rank window (a retried
    /// round re-issues only the reads that failed).
    pub sorted_batches: u64,
    /// Entries the sorted phase fetched and has not folded in yet, summed
    /// over the lists: read ahead to the end of a window, or kept by a
    /// failed round. They are not billed until a round folds them
    /// ([`EngineSession::unfolded`] splits them per list).
    pub sorted_read_ahead: u64,
    /// `random_batch` calls issued by completion (one per list that was
    /// missing grades, per completion round).
    pub random_batches: u64,
    /// Object probes carried by those calls, misses included (the
    /// random accesses billed are the hits among them).
    pub random_probes: u64,
}

/// Nanoseconds elapsed since `start`, saturating.
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The unified execution engine: owned sources, batched round-robin sorted
/// streaming at a uniform depth (the paper's `T`), slab candidate
/// bookkeeping, and batched random-access completion. See the module docs.
#[derive(Debug)]
pub(crate) struct Engine<S> {
    sources: Vec<S>,
    n: usize,
    slab: Slab,
    matched: Vec<ObjectId>,
    depth: usize,
    /// The grade at the deepest rank read so far, per list (the paper's
    /// `μ_Ai` at depth `T`; zero before the first round).
    last: Vec<Grade>,
    /// One reusable fetch buffer per list (see `pull_levels`).
    scratch: Vec<Fetched>,
    /// The slot of every entry folded in since the threshold rule last
    /// drained it; `None` (nothing recorded) under every other rule.
    touched: Option<Vec<u32>>,
    /// Reusable completion scratch: slots pending completion.
    pending: Vec<u32>,
    /// Reusable completion scratch: slots probed for the current list.
    probe_slots: Vec<u32>,
    /// Reusable completion scratch: the probe ids sent to `random_batch`.
    probes: Vec<ObjectId>,
    /// Reusable completion scratch: the grades `random_batch` answered.
    probe_grades: Vec<Option<Grade>>,
    /// Cooperative cancellation, checked once per batch round — between
    /// `pull_levels` rounds of the sorted phase and between per-list rounds
    /// of random-access completion. The engine state is consistent at
    /// every check, so repeating the call after a clear or extension
    /// resumes the identical stream with no access re-billed.
    deadline: Option<std::time::Instant>,
    /// Phase timings and batch counts (see [`EngineProfile`]).
    profile: EngineProfile,
    /// The Section 5 bill per source: entries folded, probes answered
    /// with a grade, and the filtered rule's match set (see the module
    /// docs).
    bills: Vec<AccessStats>,
}

impl<S: GradedSource> Engine<S> {
    /// Opens an engine over the given sources (each conceptually holding a
    /// sorted cursor at rank 0), which the caller has checked with
    /// `validate_inputs`: at least one, all of one database size.
    ///
    /// # Panics
    /// Panics if the database size exceeds `u32::MAX` ranks (the slab
    /// stores ranks as `u32`; at 16 bytes per entry that bound is only
    /// reachable past 64 GiB per list).
    pub(crate) fn open(sources: Vec<S>) -> Self {
        let n = sources.first().map_or(0, |s| s.len());
        assert!(n <= u32::MAX as usize, "slab ranks are u32");
        let m = sources.len();
        Engine {
            sources,
            n,
            slab: Slab::new(m),
            matched: Vec::new(),
            depth: 0,
            last: vec![Grade::ZERO; m],
            scratch: vec![Fetched::default(); m],
            touched: None,
            pending: Vec::new(),
            probe_slots: Vec::new(),
            probes: Vec::new(),
            probe_grades: Vec::new(),
            deadline: None,
            profile: EngineProfile::default(),
            bills: vec![AccessStats::ZERO; m],
        }
    }

    /// The cooperative cancellation check every batch round starts with.
    #[inline]
    fn check_deadline(&self) -> Result<(), TopKError> {
        match self.deadline {
            Some(deadline) if std::time::Instant::now() >= deadline => {
                Err(TopKError::DeadlineExceeded)
            }
            _ => Ok(()),
        }
    }

    /// The one sorted-phase driver. Streams every list round-robin down to
    /// depth `floor` (clamped to `N`) whatever has matched — B₀ passes
    /// `floor = k` and the naive scan `floor = N` — then on until at least
    /// `k` objects have been seen in every list ("wait until there are at
    /// least k matches"), the lists are exhausted, or `stop` — asked once
    /// the floor is reached, before the first round past it and after
    /// every round — says the phase may end early. The A₀ family and the
    /// threshold rule pass `floor = 0`. Idempotent for already-achieved
    /// targets, so sessions can call it repeatedly with a growing `k`.
    ///
    /// Streaming is batched (see the module docs for why the round sizes
    /// cannot overshoot the positional stop depth): a round folds
    /// `max(max(floor, k) − depth, ⌈(k − matched)/m⌉, 1)` levels, capped by
    /// the levels left and by `CHUNK`, and `pull_levels` fetches each list
    /// to the end of that round's [`SORTED_WINDOW`]-rank window.
    /// Errors leave the already-folded prefix and every fetched entry
    /// intact: a transient [`TopKError::SourceFailed`] or
    /// [`TopKError::DeadlineExceeded`] can be retried by calling again with
    /// the same targets, and no entry is re-read or re-billed.
    fn advance_until_matched(
        &mut self,
        floor: usize,
        k: usize,
        mut stop: impl FnMut(&mut Self) -> bool,
    ) -> Result<(), TopKError> {
        let start = std::time::Instant::now();
        let floor = floor.min(self.n);
        let mut result = Ok(());
        while self.depth < floor || (!stop(self) && self.matched.len() < k && self.depth < self.n) {
            if let Err(e) = self.check_deadline() {
                result = Err(e);
                break;
            }
            // T >= k, and at most m objects can complete per level.
            let by_depth = floor.max(k).saturating_sub(self.depth);
            let by_matches = k
                .saturating_sub(self.matched.len())
                .div_ceil(self.sources.len());
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

    /// Folds `levels` more entries of every list into the bookkeeping in the
    /// exact interleaved order of the positional round-robin loop, so match
    /// order — and therefore every downstream tie-break — is preserved.
    ///
    /// A list that holds fewer than `levels` unfolded entries fetches, in
    /// one batched sorted read, from the first rank it lacks to the end of
    /// the [`SORTED_WINDOW`]-rank window holding the round's last folded
    /// rank, `depth + levels − 1` (or to `N`). The entries past `levels`
    /// wait unfolded for the next rounds, so a run of one-level rounds
    /// makes one read per list per window. Each list is billed the
    /// `levels` entries it folds, never what it fetched.
    ///
    /// All `m` fetches complete **before** any entry is folded in, so a
    /// failed fetch leaves the bookkeeping untouched at the pre-round depth.
    /// The lists that did answer keep their entries, and the retry reads
    /// only what a list is still missing: no entry is fetched or billed
    /// twice. A read that appends other than the count asked for is a
    /// [`TopKError::SourceFailed`] and leaves the list as it was.
    fn pull_levels(&mut self, levels: usize) -> Result<(), TopKError> {
        debug_assert!(self.depth + levels <= self.n);
        let mut scratch = std::mem::take(&mut self.scratch);
        let depth = self.depth;
        let end = (depth + levels).next_multiple_of(SORTED_WINDOW).min(self.n);
        let mut failed = None;
        for (i, (list, source)) in scratch.iter_mut().zip(&self.sources).enumerate() {
            let have = list.unfolded();
            if have >= levels {
                continue;
            }
            list.buf.drain(..list.read);
            list.read = 0;
            self.profile.sorted_batches += 1;
            let (start, count) = (depth + have, end - depth - have);
            if let Err(e) = source.try_sorted_batch(start, count, &mut list.buf) {
                failed = Some(e);
                break;
            }
            let got = list.buf.len() - have;
            if got != count {
                list.buf.truncate(have);
                failed = Some(SourceError {
                    source: format!("list {i}"),
                    detail: format!(
                        "sorted read from rank {start} appended {got} of {count} entries \
                         inside a list of {}",
                        self.n
                    ),
                    quarantined: false,
                });
                break;
            }
        }
        if let Some(e) = failed {
            self.scratch = scratch;
            return Err(TopKError::SourceFailed(e));
        }
        for level in 0..levels {
            for (i, list) in scratch.iter().enumerate() {
                let entry = list.buf[list.read + level];
                let slot = self.slab.slot(entry.object);
                if self.slab.observe(slot, i, self.depth + level, entry.grade) {
                    self.matched.push(entry.object);
                }
                if let Some(touched) = &mut self.touched {
                    touched.push(slot);
                }
            }
        }
        for ((last, list), bill) in self.last.iter_mut().zip(&mut scratch).zip(&mut self.bills) {
            list.read += levels;
            *last = list.buf[list.read - 1].grade;
            bill.sorted += levels as u64;
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
    /// block once. One random access per missing `(object, list)` pair the
    /// source grades is billed — the same count the per-object loop would
    /// produce.
    pub(crate) fn complete_grades(
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
                bills,
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
                // that lost the object's shard — bills nothing and is graded
                // zero rather than poisoning the whole query.
                bills[i].random += u64::from(grade.is_some());
                slab.set_grade(slot, i, grade.unwrap_or(Grade::ZERO));
            }
        }
        Ok(())
    }

    /// The Section 5 bill so far, summed over the sources.
    pub(crate) fn stats(&self) -> AccessStats {
        self.bills.iter().copied().sum()
    }

    /// The complete grade vector of an object as a borrowed slice — the
    /// zero-copy scoring path. `None` until every grade is known.
    pub(crate) fn grade_slice(&self, object: ObjectId) -> Option<&[Grade]> {
        self.slab
            .slot_of(object)
            .and_then(|slot| self.slab.grade_slice(slot))
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

/// [`SetAccess::try_matching_set`] of the filtered rule's crisp list.
type MatchingSet<S> = fn(&S) -> Result<Vec<ObjectId>, SourceError>;

/// The strategy a session runs: where its sorted phase stops and which
/// objects its random phase grades. Fixed by the constructor.
enum Rule<S, A> {
    /// Algorithm A₀ (Theorem 4.2), any monotone aggregation: sorted access
    /// until the cumulative `k` objects have matched, then every object
    /// seen is graded in full.
    Monotone(A),
    /// A₀ with Section 4's per-list depths, any monotone aggregation: A₀'s
    /// sorted phase, but only `∪ᵢ X^i_{Tᵢ}` is graded.
    Shrunk {
        agg: A,
        /// The `Tᵢ ≤ T`: the deepest rank list `i` shows any of the
        /// cumulative `k` matched objects of earliest worst rank (ties by
        /// id) at, plus one — so `∩ᵢ X^i_{Tᵢ}` still holds `k` objects.
        depths: Vec<usize>,
    },
    /// A₀ with a threshold stop, any monotone aggregation: the sorted phase
    /// may end once `k` lower bounds beat `τ`, and only the objects whose
    /// upper bound reaches the `k`-th lower bound are graded.
    Threshold(Box<Bounds<A>>),
    /// Algorithm A₀′ (Proposition 4.3), `t = min`: A₀'s sorted phase, but
    /// only the pivot list's prefix at or above `g₀` is graded.
    Min {
        /// `(g₀, i₀)`: the least grade any list has shown for a matched
        /// object, and the first list (in match order) that showed it.
        pivot: Option<(Grade, usize)>,
        /// How many of the engine's matched objects are folded into `pivot`.
        folded: usize,
    },
    /// The naive algorithm (Section 4), any aggregation: the first page
    /// reads every list to the end, which grades every object.
    Scan(A),
    /// Algorithm B₀ (Theorem 4.5), `t = max`: sorted access to depth =
    /// cumulative `k` in every list, no random access; an object scores
    /// the best grade any list has shown for it so far.
    Max,
    /// The filtered strategy (Section 4's opening), any zero-annihilating
    /// aggregation: no sorted phase; the first page grades the crisp
    /// list's match set, and a short page pads with the objects outside
    /// it, at grade 0 and in id order.
    Filtered {
        agg: A,
        /// Where the crisp list sits among the sources.
        crisp: usize,
        /// `S::try_matching_set`, so only the constructor needs
        /// `S: SetAccess`; `None` once the match set is fetched.
        fetch: Option<MatchingSet<S>>,
        /// The next object id to consider as padding.
        pad_from: u64,
    },
}

/// Why a threshold session's sorted phase ended (see
/// [`EngineSession::threshold`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortedStop {
    /// The cumulative `k` seen objects' lower bounds beat `τ`.
    Threshold,
    /// A₀'s own stop: the cumulative `k` objects matched.
    Matched,
    /// Every list was read to the end.
    Exhausted,
}

impl std::fmt::Display for SortedStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SortedStop::Threshold => "threshold",
            SortedStop::Matched => "matched",
            SortedStop::Exhausted => "exhausted",
        })
    }
}

/// The threshold rule's bookkeeping: the per-slot lower bounds `W` and the
/// incremental count of `{x : W(x) > τ}` (see the module docs).
struct Bounds<A> {
    agg: A,
    /// `W(x)` per slot: `t` of the known grades with 0 for the unknown
    /// ones, refreshed whenever sorted access shows the slot; its exact
    /// score once graded. Only rises.
    lower: Vec<Grade>,
    /// Whether the slot is counted among those with `W(x) > τ` — a set
    /// that only grows, as τ only falls and `W` only rises.
    above: Vec<bool>,
    /// How many slots are counted.
    count: usize,
    /// Uncounted slots by `W`, largest first. An entry whose slot has
    /// since been counted is skipped when it surfaces.
    heap: BinaryHeap<(Grade, u32)>,
    /// Slots graded since the last refresh, whose exact scores go on the
    /// heap only if a later page asks.
    graded: Vec<u32>,
    /// The refresh each slot was last recomputed in, so a slot a batch
    /// shows in several lists is recomputed once.
    stamp: Vec<u32>,
    refreshes: u32,
    /// The lists whose unknown grade alone forces `t` to zero,
    /// `t(1, …, 0ᵢ, …, 1) = 0` (every list of a t-norm; the left operand of
    /// `min(a, max(b, c))`), as a list mask: a slot missing one of them has
    /// `W(x) = 0` exactly, so a refresh need not recompute it.
    zeroing: Vec<u64>,
    /// `τ` as of the last refresh.
    tau: Grade,
    /// Why the last page's sorted phase ended.
    stop: Option<SortedStop>,
    /// The grade vector a bound is taken over (no per-slot allocation,
    /// whatever `m` is).
    point: Vec<Grade>,
    /// Scratch for the `k`-th largest `W`.
    ranked: Vec<Grade>,
}

impl<A: Aggregation> Bounds<A> {
    fn new(agg: A, m: usize) -> Self {
        let mut point = Vec::new();
        let zeroing = Slab::list_mask(m, |i| {
            Self::capped(&agg, &mut point, m, i, Grade::ZERO) == Grade::ZERO
        });
        Bounds {
            agg,
            lower: Vec::new(),
            above: Vec::new(),
            count: 0,
            heap: BinaryHeap::new(),
            graded: Vec::new(),
            stamp: Vec::new(),
            refreshes: 0,
            zeroing,
            tau: Grade::ONE,
            stop: None,
            point,
            ranked: Vec::new(),
        }
    }

    /// `t(1, …, gᵢ, …, 1)`: the most a slot whose list-`i` grade is at most
    /// `g` can score.
    fn capped(agg: &A, point: &mut Vec<Grade>, m: usize, i: usize, g: Grade) -> Grade {
        point.clear();
        point.resize(m, Grade::ONE);
        point[i] = g;
        agg.combine(point)
    }

    /// `B(x)`: `t` of the slot's known grades, with the last grade list `i`
    /// showed standing in for an unknown grade of list `i`. (`W(x)` needs
    /// no copy: the slab's row holds the unknown grades at zero.)
    fn upper(&mut self, slab: &Slab, slot: u32, last: &[Grade], scratch: &mut Vec<Grade>) -> Grade {
        self.point.clear();
        self.point.extend_from_slice(slab.row(slot));
        for (i, grade) in self.point.iter_mut().enumerate() {
            if !slab.has_grade(slot, i) {
                *grade = last[i];
            }
        }
        self.agg.combine_reusing(&self.point, scratch)
    }

    /// Folds the slots sorted access showed since the last refresh into
    /// `W`, recomputes `τ`, and returns how many slots have `W(x) > τ`.
    fn refresh<S>(&mut self, engine: &mut Engine<S>, scratch: &mut Vec<Grade>) -> usize {
        let Engine {
            slab,
            last,
            touched,
            ..
        } = engine;
        let touched = touched
            .as_mut()
            .expect("the threshold rule records touched slots");
        self.refreshes += 1;
        self.lower.resize(slab.len(), Grade::ZERO);
        self.above.resize(slab.len(), false);
        self.stamp.resize(slab.len(), 0);
        for slot in self.graded.drain(..) {
            if !self.above[slot as usize] {
                self.heap.push((self.lower[slot as usize], slot));
            }
        }
        for slot in touched.drain(..) {
            let at = slot as usize;
            if !slab.knows_all(slot, &self.zeroing)
                || std::mem::replace(&mut self.stamp[at], self.refreshes) == self.refreshes
            {
                continue;
            }
            let w = self.agg.combine_reusing(slab.row(slot), scratch);
            self.settle(slot, w);
        }
        self.tau = self.agg.combine_reusing(last, scratch);
        while let Some(&(w, slot)) = self.heap.peek() {
            if w <= self.tau {
                break;
            }
            self.heap.pop();
            let above = &mut self.above[slot as usize];
            if !*above {
                *above = true;
                self.count += 1;
            }
        }
        self.count
    }

    /// Records the exact score of a slot just graded.
    fn grade(&mut self, slot: u32, score: Grade) {
        self.lower[slot as usize] = score;
        self.graded.push(slot);
    }

    /// Records a new lower bound for the slot; an uncounted slot whose
    /// bound rose goes back on the heap. (A bound of zero never beats τ, so
    /// a fresh slot at zero stays off.)
    fn settle(&mut self, slot: u32, w: Grade) {
        let at = slot as usize;
        if w > self.lower[at] {
            self.lower[at] = w;
            if !self.above[at] {
                self.heap.push((w, slot));
            }
        }
    }

    /// The waiting slots a page grades: those whose upper bound `B` reaches
    /// the `target`-th largest `W`.
    fn candidates(
        &mut self,
        slab: &Slab,
        last: &[Grade],
        waiting: impl Iterator<Item = u32>,
        target: usize,
        fresh: &mut Vec<u32>,
        scratch: &mut Vec<Grade>,
    ) {
        // Only positive bounds can rank above zero: when fewer than
        // `target` are positive, the cut is zero.
        self.ranked.clear();
        self.ranked
            .extend(self.lower.iter().copied().filter(|&w| w > Grade::ZERO));
        let cut = match self.ranked.len() {
            len if len < target => Grade::ZERO,
            _ => {
                *self
                    .ranked
                    .select_nth_unstable_by(target - 1, |a, b| b.cmp(a))
                    .1
            }
        };
        // Sorted access shows a grade no lower than its list's last one, so
        // B(x) ≥ τ: at a cut of τ or less every waiting slot is in.
        if cut <= self.tau {
            fresh.extend(waiting);
            return;
        }
        // A slot missing list i has B(x) ≤ t(1, …, ℓᵢ, …, 1): when that is
        // below the cut, the slot is out without computing B.
        let (agg, point) = (&self.agg, &mut self.point);
        let required = Slab::list_mask(slab.m, |i| {
            Self::capped(agg, point, slab.m, i, last[i]) < cut
        });
        for slot in waiting {
            if slab.knows_all(slot, &required) && self.upper(slab, slot, last, scratch) >= cut {
                fresh.push(slot);
            }
        }
    }
}

/// A resumable top-k session over the engine: algorithm A₀
/// ([`EngineSession::new`]), A₀ with per-list depths
/// ([`EngineSession::shrunk`]) or with a threshold stop
/// ([`EngineSession::threshold`]), A₀′ ([`EngineSession::min`]), the naive
/// scan ([`EngineSession::scan`]), B₀ ([`EngineSession::max`]) or the
/// filtered strategy ([`EngineSession::filtered`]) kept alive between
/// pages, implementing
/// Section 4's "continue where we left off". Grades already fetched (by
/// either access kind) are never re-fetched, so the cumulative *sorted*
/// cost of paging is at most one evaluation at the cumulative `k` (exactly
/// that, under every rule but the threshold stop) — and a single page is
/// exactly that evaluation.
pub struct EngineSession<S, A> {
    engine: Engine<S>,
    rule: Rule<S, A>,
    /// Where each slot stands. Under the shrunk, threshold and A₀′ rules
    /// the `Waiting` ones stay in the slab: a later page's candidate set
    /// can only take more of them.
    status: Vec<Status>,
    /// `scores[slot]` = the overall grade, computed exactly once when the
    /// slot was graded (complete grade vectors never change, so neither
    /// can the score). Meaningful once a slot is no longer `Waiting`.
    scores: Vec<Grade>,
    /// The slots the current page grades (scratch reuse across pages).
    fresh: Vec<u32>,
    /// Working buffer lent to [`Aggregation::combine_reusing`].
    scratch: Vec<Grade>,
    cumulative: usize,
    /// `(cumulative k, k-th score)` after each non-empty page — the
    /// score frontier's progression, one entry per page, for EXPLAIN.
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

    /// Opens an A₀ session with Section 4's per-list depths: "instead of
    /// using a uniform value of T, we might find Tᵢ ≤ T for each i such
    /// that `∩ᵢ X^i_{Tᵢ}` contains k members ... which could lead to fewer
    /// random accesses".
    ///
    /// Each page runs A₀'s sorted phase to the cumulative `k`, takes the
    /// cumulative `k` matched objects of earliest worst rank (ties by id),
    /// sets each `Tᵢ` to the deepest rank list `i` shows one of them at,
    /// and grades only the not-yet-graded objects of `∪ᵢ X^i_{Tᵢ}`. An
    /// object that matches on a later page has a worst rank at or past the
    /// old depth, so the chosen set only grows and no `Tᵢ` ever falls; by
    /// Proposition 4.1's upward closure every object outside the union
    /// scores at most the `k` chosen ones, so each prefix of the
    /// concatenated pages is a valid top-k. Sorted cost is A₀'s; random
    /// cost is at most A₀'s over the same pages.
    pub fn shrunk(sources: Vec<S>, agg: A) -> Result<Self, TopKError> {
        let depths = vec![0; sources.len()];
        Self::open(sources, Rule::Shrunk { agg, depths })
    }

    /// Opens an A₀ session with a threshold stop: each page's sorted phase
    /// ends once the cumulative `k` seen objects have lower bounds above
    /// `τ = t(last grades read)`, or on A₀'s own stop, and only the seen
    /// objects whose upper bound reaches the `k`-th lower bound are
    /// graded. The pages are A₀'s entry for entry, a single page never
    /// bills more than A₀'s `S + R`, and the cumulative sorted bill never
    /// exceeds one A₀ evaluation at the cumulative `k`; paged `S + R` is
    /// not bounded by A₀ paged alike. See the module docs for the
    /// arguments. The aggregation must be monotone.
    pub fn threshold(sources: Vec<S>, agg: A) -> Result<Self, TopKError> {
        let m = sources.len();
        let mut session = Self::open(sources, Rule::Threshold(Box::new(Bounds::new(agg, m))))?;
        session.engine.touched = Some(Vec::new());
        Ok(session)
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
    /// cost of `m·N` sorted accesses paid by the first page. Its slab is
    /// id-addressed (see the module docs).
    pub fn scan(sources: Vec<S>, agg: A) -> Result<Self, TopKError> {
        let mut session = Self::open(sources, Rule::Scan(agg))?;
        let engine = &mut session.engine;
        engine.slab = Slab::by_id(engine.sources.len(), engine.n);
        Ok(session)
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

    fn open(sources: Vec<S>, rule: Rule<S, A>) -> Result<Self, TopKError> {
        validate_inputs(&sources, 1)?;
        Ok(EngineSession {
            engine: Engine::open(sources),
            rule,
            status: Vec::new(),
            scores: Vec::new(),
            fresh: Vec::new(),
            scratch: Vec::new(),
            cumulative: 0,
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

    /// Why the last page's sorted phase ended, and `τ = t(last grades
    /// read)` there. `None` before the first page and for sessions not
    /// opened with [`EngineSession::threshold`].
    pub fn sorted_stop(&self) -> Option<(SortedStop, Grade)> {
        match &self.rule {
            Rule::Threshold(bounds) => bounds.stop.map(|stop| (stop, bounds.tau)),
            _ => None,
        }
    }

    /// The score frontier's progression: `(cumulative k, k-th score)` after
    /// each non-empty page, oldest first — the overall grade of the worst
    /// answer handed out so far, which only falls as the session advances.
    /// One entry per page, kept for EXPLAIN.
    pub fn frontier_history(&self) -> &[(usize, Grade)] {
        &self.frontier_history
    }

    /// Common sorted depth consumed from every list so far (the paper's
    /// `T` at the cumulative `k`).
    pub fn depth(&self) -> usize {
        self.engine.depth
    }

    /// Phase timings and batch counts accumulated over every page (always
    /// on — see [`EngineProfile`] for the cost argument), and the entries
    /// read ahead as of now.
    pub fn profile(&self) -> EngineProfile {
        let ahead: usize = self.engine.scratch.iter().map(Fetched::unfolded).sum();
        EngineProfile {
            sorted_read_ahead: ahead as u64,
            ..self.engine.profile
        }
    }

    /// The Section 5 bill of every page so far, per source in source order:
    /// the entries the session folded, the probes answered with a grade,
    /// and the filtered rule's match set (see the module docs).
    pub fn per_source_stats(&self) -> &[AccessStats] {
        &self.engine.bills
    }

    /// The Section 5 bill of every page so far, summed over the sources.
    pub fn stats(&self) -> AccessStats {
        self.engine.stats()
    }

    /// Entries each source has handed the sorted phase that no round has
    /// folded in yet, in source order. A
    /// [`CountingSource`](crate::access::CountingSource) around a source
    /// therefore counts exactly its billed `sorted` plus this count, and
    /// its billed `random`.
    pub fn unfolded(&self) -> Vec<u64> {
        let lists = self.engine.scratch.iter();
        lists.map(|list| list.unfolded() as u64).collect()
    }

    /// The session's sources.
    pub fn sources(&self) -> &[S] {
        &self.engine.sources
    }

    /// Size of the matched set `L` so far.
    pub(crate) fn matched(&self) -> usize {
        self.engine.matched.len()
    }

    /// The per-list depths `Tᵢ` the last page graded down to: the shrunk
    /// rule's, or the uniform depth `T` in every list under the others.
    pub(crate) fn per_list_depths(&self) -> Vec<usize> {
        match &self.rule {
            Rule::Shrunk { depths, .. } => depths.clone(),
            _ => vec![self.engine.depth; self.engine.sources.len()],
        }
    }

    /// Sets (or clears) a cooperative deadline, checked once per batch
    /// round of either phase. A page that fails with
    /// [`TopKError::DeadlineExceeded`] leaves the session resumable:
    /// extend (or clear) the deadline and call
    /// [`next_batch`](EngineSession::next_batch) again to get the identical
    /// page with no access re-billed.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.engine.deadline = deadline;
    }

    /// Returns the next `k` best answers (fewer if the database is
    /// exhausted), continuing where the previous batch left off.
    pub fn next_batch(&mut self, k: usize) -> Result<TopK, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let n = self.engine.n;
        let target = (self.cumulative + k).min(n);
        if target == self.cumulative {
            return Ok(TopK::from_entries(Vec::new()));
        }

        // Sorted phase, resumed at the stored depth: until the *cumulative*
        // target has matched — or earlier once its lower bounds beat τ
        // under the threshold rule — or, for B₀, to the cumulative target's
        // depth whatever has matched, and for the naive scan to depth `N`.
        // The filtered rule has none: its first page fetches the match set
        // instead, once (a page retried after a failed completion does not
        // fetch it again), and knows each match's crisp grade without an
        // access.
        let engine = &mut self.engine;
        match &mut self.rule {
            Rule::Scan(_) => engine.advance_until_matched(n, 0, |_| false)?,
            Rule::Max => engine.advance_until_matched(target, 0, |_| false)?,
            Rule::Filtered { crisp, fetch, .. } => {
                if let Some(matching_set) = *fetch {
                    engine.check_deadline()?;
                    let matches =
                        matching_set(&engine.sources[*crisp]).map_err(TopKError::SourceFailed)?;
                    engine.bills[*crisp].sorted += matches.len() as u64;
                    for object in matches {
                        let slot = engine.slab.slot(object);
                        engine.slab.set_grade(slot, *crisp, Grade::ONE);
                    }
                    *fetch = None;
                }
            }
            Rule::Threshold(bounds) => {
                let scratch = &mut self.scratch;
                engine
                    .advance_until_matched(0, target, |e| bounds.refresh(e, scratch) >= target)?;
                bounds.stop = Some(if bounds.count >= target {
                    SortedStop::Threshold
                } else if engine.depth == n {
                    SortedStop::Exhausted
                } else {
                    SortedStop::Matched
                });
            }
            _ => engine.advance_until_matched(0, target, |_| false)?,
        }

        let (slab, matched) = (&self.engine.slab, &self.engine.matched);
        match &mut self.rule {
            // x₀ ∈ L with the least overall grade; sorted access has shown
            // every grade of a matched object.
            Rule::Min { pivot, folded } => {
                for id in &matched[*folded..] {
                    let slot = slab.slot_of(*id).expect("matched objects are seen");
                    let grades = slab.grade_slice(slot).expect("matched in every list");
                    for (i, &grade) in grades.iter().enumerate() {
                        if pivot.is_none_or(|(g0, _)| grade < g0) {
                            *pivot = Some((grade, i));
                        }
                    }
                }
                *folded = matched.len();
            }
            // The `target` matched objects of earliest worst rank, ties by
            // id, and the deepest rank each list shows one of them at.
            Rule::Shrunk { depths, .. } => {
                let rank = |slot, i| slab.rank(slot, i).expect("matched in every list");
                let mut by_worst: Vec<(usize, ObjectId, u32)> = matched
                    .iter()
                    .map(|&id| {
                        let slot = slab.slot_of(id).expect("matched objects are seen");
                        let worst = (0..slab.m).map(|i| rank(slot, i)).max();
                        (worst.expect("m >= 1"), id, slot)
                    })
                    .collect();
                by_worst.sort_unstable();
                for &(_, _, slot) in by_worst.iter().take(target) {
                    for (i, t) in depths.iter_mut().enumerate() {
                        *t = (*t).max(rank(slot, i) + 1);
                    }
                }
            }
            _ => {}
        }

        // Random phase: complete this page's candidates that no earlier
        // page graded. A failed completion marks nothing graded, so a
        // retry finds the same candidates (or, under the threshold rule,
        // a subset: the grades it did learn only tighten the bounds) and
        // re-probes only what is still missing.
        self.status.resize(slab.len(), Status::Waiting);
        let (status, fresh) = (&self.status, &mut self.fresh);
        fresh.clear();
        let waiting =
            (0..slab.len() as u32).filter(|&slot| status[slot as usize] == Status::Waiting);
        match &mut self.rule {
            Rule::Monotone(_) | Rule::Filtered { .. } => fresh.extend(waiting),
            // A row no list showed is no object of the database.
            Rule::Scan(_) => fresh.extend(waiting.filter(|&slot| slab.shown(slot))),
            Rule::Shrunk { depths, .. } => fresh.extend(waiting.filter(|&slot| {
                let shallow = |(i, &t)| slab.rank(slot, i).is_some_and(|r| r < t);
                depths.iter().enumerate().any(shallow)
            })),
            Rule::Threshold(bounds) => {
                let last = &self.engine.last;
                bounds.candidates(slab, last, waiting, target, fresh, &mut self.scratch);
            }
            &mut Rule::Min {
                pivot: Some((g0, i0)),
                ..
            } => fresh.extend(waiting.filter(|&slot| {
                slab.has_rank(slot, i0) && slab.grades[slot as usize * slab.m + i0] >= g0
            })),
            Rule::Min { pivot: None, .. } | Rule::Max => {}
        }
        let Engine { slab, pending, .. } = &mut self.engine;
        pending.clear();
        pending.extend(fresh.iter().copied().filter(|&slot| !slab.complete(slot)));
        self.engine.complete_pending()?;

        // Computation phase: score those candidates — once, straight off
        // the slab's grade slices — then select the next
        // `target - cumulative` best among graded objects not yet returned.
        // (Filtering *before* selection keeps the batch size exact even
        // when fresh objects tie an already-returned one at the cut grade
        // — selecting top-`target` first and subtracting could let a tie
        // displace a returned object and hand out extra entries.)
        let slab = &self.engine.slab;
        self.scores.resize(slab.len(), Grade::ZERO);
        for &slot in &self.fresh {
            let grades = slab.grade_slice(slot).expect("grades completed above");
            let at = slot as usize;
            self.scores[at] = match &mut self.rule {
                Rule::Monotone(agg)
                | Rule::Scan(agg)
                | Rule::Shrunk { agg, .. }
                | Rule::Filtered { agg, .. } => agg.combine_reusing(grades, &mut self.scratch),
                Rule::Threshold(bounds) => {
                    let score = bounds.agg.combine_reusing(grades, &mut self.scratch);
                    bounds.grade(slot, score);
                    score
                }
                Rule::Min { .. } => grades.iter().min().copied().expect("m >= 1"),
                Rule::Max => unreachable!("B₀ grades nothing in full"),
            };
            self.status[at] = Status::Graded;
        }
        let (rule, status, scores) = (&self.rule, &self.status, &self.scores);
        let graded = (0..slab.len()).filter_map(|at| {
            let slot = at as u32;
            if let Rule::Max = rule {
                // A deeper page can show the object higher in another
                // list, so B₀'s score is read afresh until it is returned.
                return (status[at] != Status::Returned)
                    .then(|| (slab.id(slot), slab.best_grade(slot)));
            }
            (status[at] == Status::Graded).then(|| (slab.id(slot), scores[at]))
        });
        let take = target - self.cumulative;
        let mut page = TopK::select(graded, take);
        for e in page.entries() {
            let slot = slab.slot_of(e.object).expect("selected objects are seen");
            self.status[slot as usize] = Status::Returned;
        }
        // Once the match set runs out, the filtered rule pads with objects
        // outside it — exactly those without a slot — whose overall grade
        // is known to be 0 without any access.
        if let Rule::Filtered { pad_from, .. } = &mut self.rule {
            if page.len() < take {
                let mut entries = page.into_entries();
                while entries.len() < take && *pad_from < n as u64 {
                    let object = ObjectId(*pad_from);
                    *pad_from += 1;
                    if slab.slot_of(object).is_none() {
                        entries.push(GradedEntry::new(object, Grade::ZERO));
                    }
                }
                page = TopK::from_entries(entries);
            }
        }
        if let Some(last) = page.entries().last() {
            // Pages are handed out best-first, so the latest page's worst
            // grade is the cumulative k-th score.
            self.frontier_history.push((target, last.grade));
        }
        self.cumulative = target;
        Ok(page)
    }
}

impl<S, A> EngineSession<S, A>
where
    S: SetAccess,
    A: Aggregation,
{
    /// Opens a filtered session ("Beatles", Section 4's opening) over
    /// `sources`, of which `sources[crisp]` is the crisp conjunct — every
    /// grade 0 or 1, with set access — and `agg` must be zero-annihilating
    /// (e.g. any t-norm), so an object outside the match set `S` scores 0.
    /// `crisp` is the conjunct's place in the aggregation's argument order.
    ///
    /// The first page fetches `S` (billed `|S|` sorted accesses), writes
    /// grade 1 into the crisp column for every match at no access, and
    /// grades the matches by random access to the other lists
    /// (`(m−1)·|S|`), under the deadline in force then. Every page takes
    /// the best of what is left of `S`; once `S` runs out it pads with
    /// non-matching objects at grade 0, in id order, at no access cost.
    pub fn filtered(sources: Vec<S>, crisp: usize, agg: A) -> Result<Self, TopKError> {
        let m = sources.len();
        if crisp >= m {
            return Err(TopKError::UnsupportedAggregation {
                reason: "crisp_position out of range",
            });
        }
        if !agg.zero_annihilates(m) {
            return Err(TopKError::UnsupportedAggregation {
                reason: "the filtered strategy requires a zero-annihilating aggregation \
                         (e.g. any t-norm); with a mean, non-matching objects can still \
                         have positive overall grades",
            });
        }
        let fetch = Some(S::try_matching_set as MatchingSet<S>);
        let rule = Rule::Filtered {
            agg,
            crisp,
            fetch,
            pad_from: 0,
        };
        Self::open(sources, rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, total_stats, CountingSource, MemorySource};
    use crate::AccessStats;
    use garlic_agg::iterated::{max_agg, min_agg, IteratedTNorm};
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
        let mut engine = Engine::open(sources());
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        // List 0 order: 0,1,2,3. List 1 order: 3,2,1,0.
        // Depth 1: {0},{3}. Depth 2: {0,1},{3,2}: no match yet.
        // Depth 3: {0,1,2},{3,2,1}: objects 1 and 2 match.
        assert_eq!(engine.depth, 3);
        assert_eq!(engine.matched.len(), 2);
    }

    #[test]
    fn advance_is_idempotent_and_resumable() {
        let mut engine = Engine::open(sources());
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        let depth = engine.depth;
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        assert_eq!(engine.depth, depth); // no extra work
        engine.advance_until_matched(0, 4, |_| false).unwrap();
        assert_eq!(engine.depth, 4);
        assert_eq!(engine.matched.len(), 4);
    }

    /// How many entries each list of `engine` fetched and has not folded.
    fn unfolded<S>(engine: &Engine<S>) -> Vec<usize> {
        engine.scratch.iter().map(Fetched::unfolded).collect()
    }

    #[test]
    fn batched_streaming_bills_positional_and_reads_to_window_end() {
        // The positional loop stops at the first depth T with >= k matches;
        // the engine bills the same m*T entries. Each list reads on to the
        // end of the window holding rank T - 1, here the whole 4-entry list.
        let mut engine = Engine::open(counted(sources()));
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        assert_eq!(engine.depth, 3); // T = 3 from the hand example
        assert_eq!(engine.bills, vec![AccessStats::new(3, 0); 2]);
        assert_eq!(total_stats(&engine.sources), AccessStats::new(2 * 4, 0));
        assert_eq!(unfolded(&engine), vec![1, 1]);

        // Two 600-entry lists in opposite orders: object x sits at rank x
        // and 599 - x, so T = 301, reached one level per round. Each list
        // makes one read per 256-rank window: to 256, then to 512.
        let n = 600;
        let grades: Vec<Grade> = (0..n).map(|x| g(1.0 - x as f64 / n as f64)).collect();
        let reversed: Vec<Grade> = grades.iter().rev().copied().collect();
        let lists = [grades, reversed].map(|list| MemorySource::from_grades(&list));
        let mut engine = Engine::open(counted(lists.to_vec()));
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        assert_eq!(engine.depth, 301);
        assert_eq!(engine.bills, vec![AccessStats::new(301, 0); 2]);
        assert_eq!(total_stats(&engine.sources), AccessStats::new(2 * 512, 0));
        assert_eq!(unfolded(&engine), vec![512 - 301; 2]);
        assert_eq!(engine.profile.sorted_batches, 2 * 2);
    }

    #[test]
    fn complete_grades_fills_missing_slots() {
        let mut engine = Engine::open(sources());
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        // Object 0 was seen only in list 0 (rank 0); complete it.
        assert!(engine.grade_slice(ObjectId(0)).is_none());
        engine.complete_grades([ObjectId(0)]).unwrap();
        assert_eq!(engine.grade_slice(ObjectId(0)), Some(&[g(1.0), g(0.3)][..]));
    }

    #[test]
    fn duplicate_completion_requests_bill_once() {
        let mut engine = Engine::open(sources());
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        // Object 0: seen in list 0 only, so completion needs 1 random
        // access — and repeating it in one call (or across calls) adds none.
        engine
            .complete_grades([ObjectId(0), ObjectId(0), ObjectId(0)])
            .unwrap();
        engine.complete_grades([ObjectId(0)]).unwrap();
        assert_eq!(engine.stats().random, 1);
    }

    #[test]
    fn overall_is_none_until_complete() {
        // Nothing can be scored from a partial grade vector: seen in one
        // list only, or never seen at all.
        let mut engine = Engine::open(sources());
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        assert_eq!(engine.grade_slice(ObjectId(0)), None);
        assert_eq!(engine.grade_slice(ObjectId(99)), None);
    }

    #[test]
    fn advance_to_depth_streams_prefixes() {
        let mut engine = Engine::open(sources());
        engine.advance_until_matched(2, 0, |_| false).unwrap();
        assert_eq!(engine.stats().sorted, 2 * 2);
        assert_eq!(engine.slab.len(), 4);
        // Clamped at N, idempotent past it.
        engine.advance_until_matched(99, 0, |_| false).unwrap();
        assert_eq!(engine.depth, 4);
        assert_eq!(engine.stats().sorted, 2 * 4);
    }

    #[test]
    fn open_rejects_bad_sources() {
        assert!(matches!(
            EngineSession::<MemorySource, _>::new(vec![], min_agg()),
            Err(TopKError::NoSources)
        ));
        let mismatched = vec![
            MemorySource::from_grades(&[g(0.1), g(0.2)]),
            MemorySource::from_grades(&[g(0.1)]),
        ];
        assert!(matches!(
            EngineSession::new(mismatched, min_agg()),
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
        let mut engine = Engine::open(lists);
        engine.advance_until_matched(0, 1, |_| false).unwrap();
        assert!(!engine.matched.is_empty());
        let id = engine.matched[0];
        let slice = engine.grade_slice(id).expect("matched objects complete");
        assert_eq!(slice.len(), m);
        engine.advance_until_matched(2, 0, |_| false).unwrap();
        assert_eq!(engine.matched.len(), 2);
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
            EngineSession::shrunk(sources(), &agg).unwrap(),
            EngineSession::threshold(sources(), &agg).unwrap(),
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
        let mut session = EngineSession::<_, MinAgg>::min(pivot_moving_sources()).unwrap();
        assert_eq!(session.pivot(), None);

        // Page 1: T = 2, L = {b}, x₀ = b at .9 in list 0. Candidates are
        // list 0's prefix at or above .9 — {a, b}; e (seen in list 1 only)
        // is deferred, where plain A₀ would have probed it.
        let first = session.next_batch(1).unwrap();
        assert_eq!(first.entries(), &[GradedEntry::new(b, g(0.9))]);
        assert_eq!(session.pivot(), Some((g(0.9), 0)));
        assert_eq!(session.graded(), 2);
        assert_eq!(session.stats(), AccessStats::new(4, 1));

        // Page 2: T = 3, a matches at .85 in list 1 — the pivot moves.
        // List 1's prefix at or above .85 is {b, e, a}: e is completed
        // now, c (seen in list 0 only) stays deferred.
        let second = session.next_batch(1).unwrap();
        assert_eq!(second.entries(), &[GradedEntry::new(a, g(0.85))]);
        assert_eq!(session.pivot(), Some((g(0.85), 1)));
        assert_eq!(session.graded(), 3);
        assert_eq!(session.stats(), AccessStats::new(6, 2));

        // The rest: both lists run out, sorted access alone grades c, d, f.
        let rest = session.next_batch(9).unwrap();
        assert_eq!(rest.grades(), vec![g(0.5), g(0.3), g(0.2), g(0.05)]);
        assert_eq!(session.stats(), AccessStats::new(12, 2));

        // Plain A₀ over the same pages pays for e and c as soon as it
        // sees them.
        let mut a0 = EngineSession::new(pivot_moving_sources(), min_agg()).unwrap();
        for k in [1, 1, 9] {
            a0.next_batch(k).unwrap();
        }
        assert_eq!(a0.stats(), AccessStats::new(12, 3));
    }

    #[test]
    fn shrunk_session_grades_the_shrunk_union_and_its_depths_only_rise() {
        let (a, b) = (ObjectId(0), ObjectId(1));
        let agg = min_agg();
        let mut session = EngineSession::shrunk(pivot_moving_sources(), &agg).unwrap();

        // Page 1: T = 2, L = {b} at ranks (1, 0), so T₀ = 2 and T₁ = 1.
        // The union {a, b} is graded; e (rank 1 of list 1 only) waits,
        // where plain A₀ would have probed it.
        let first = session.next_batch(1).unwrap();
        assert_eq!(first.entries(), &[GradedEntry::new(b, g(0.9))]);
        assert_eq!(session.per_list_depths(), vec![2, 1]);
        assert_eq!(session.graded(), 2);
        assert_eq!(session.stats(), AccessStats::new(4, 1));

        // Page 2: T = 3 and a matches with worst rank 2, so T₁ rises to 3
        // and e is graded now.
        let second = session.next_batch(1).unwrap();
        assert_eq!(second.entries(), &[GradedEntry::new(a, g(0.85))]);
        assert_eq!(session.per_list_depths(), vec![2, 3]);
        assert_eq!(session.graded(), 3);
        assert_eq!(session.stats(), AccessStats::new(6, 2));
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
        let mut session = EngineSession::scan(sources(), DistanceFromHalf).unwrap();
        let first = session.next_batch(1).unwrap();
        // List 0 grades 1.0, .8, .6, .4: objects 2 and 3 are nearest 1/2.
        assert_eq!(first.objects(), vec![ObjectId(2)]);
        assert_eq!(session.stats(), AccessStats::new(8, 0));
        assert_eq!(
            session.next_batch(2).unwrap().objects(),
            vec![ObjectId(3), ObjectId(1)]
        );
        assert_eq!(session.stats(), AccessStats::new(8, 0));
    }

    fn pairs(entries: &[(u64, f64)]) -> MemorySource {
        MemorySource::from_pairs(entries.iter().map(|&(id, v)| (ObjectId(id), g(v))))
    }

    #[test]
    fn scan_completes_a_row_one_list_did_not_show_with_one_probe() {
        // N = 3 over {0, 1, 2} and {0, 1, 3}: row 2 is id-addressed and
        // shown by list 0 only, id 3 gets an overflow row shown by list 1
        // only. Each is completed by one probe of the other list, which
        // misses (a miss bills nothing) and grades it zero. A page holds at
        // most N answers.
        let lists = vec![
            pairs(&[(0, 0.9), (1, 0.5), (2, 0.7)]),
            pairs(&[(0, 0.2), (1, 0.6), (3, 0.8)]),
        ];
        let agg = max_agg();
        let mut session = EngineSession::scan(lists, &agg).unwrap();
        let page = session.next_batch(9).unwrap();
        assert_eq!(
            page.entries(),
            &[
                GradedEntry::new(ObjectId(0), g(0.9)),
                GradedEntry::new(ObjectId(3), g(0.8)),
                GradedEntry::new(ObjectId(2), g(0.7)),
            ]
        );
        assert_eq!(session.stats(), AccessStats::new(6, 0));
        let profile = session.profile();
        assert_eq!((profile.random_batches, profile.random_probes), (2, 2));
        assert_eq!(session.graded(), 4);
    }

    #[test]
    fn scan_grades_only_the_rows_some_list_showed() {
        // N = 3 over ids {1, 4, 9}: rows 0 and 2 are id-addressed but no
        // list shows them, so they are never probed, graded or returned.
        let lists = vec![
            pairs(&[(1, 0.3), (4, 0.9), (9, 0.1)]),
            pairs(&[(1, 0.8), (4, 0.4), (9, 0.6)]),
        ];
        let agg = min_agg();
        let mut session = EngineSession::scan(lists, &agg).unwrap();
        let page = session.next_batch(3).unwrap();
        assert_eq!(page.objects(), vec![ObjectId(4), ObjectId(1), ObjectId(9)]);
        assert_eq!(session.graded(), 3);
        assert_eq!(session.profile().random_probes, 0);
        assert!(session.next_batch(3).unwrap().is_empty());
        assert_eq!(session.graded(), 3);
    }

    #[test]
    fn scan_profile_reads_every_list_in_full_batches_with_no_probe() {
        let (m, n) = (3usize, 10_000usize);
        let lists: Vec<MemorySource> = (0..m)
            .map(|i| {
                let grades: Vec<Grade> = (0..n)
                    .map(|x| Grade::clamped(((x * (2 * i + 1)) % 97) as f64 / 96.0))
                    .collect();
                MemorySource::from_grades(&grades)
            })
            .collect();
        let agg = min_agg();
        let mut session = EngineSession::scan(lists, &agg).unwrap();
        session.next_batch(10).unwrap();
        let profile = session.profile();
        // m·⌈N/4096⌉ batches of the one schedule, m·N entries.
        assert_eq!(profile.sorted_batches, 9);
        assert_eq!(session.stats(), AccessStats::new(30_000, 0));
        assert_eq!((profile.random_batches, profile.random_probes), (0, 0));
        assert_eq!((session.depth(), session.graded()), (n, n));
    }

    /// A list whose next sorted read fails while `fail` is set: with a
    /// typed error, or, when `short`, by appending one entry fewer than
    /// asked for and returning `Ok`.
    struct FailsOnce {
        inner: MemorySource,
        fail: std::sync::atomic::AtomicBool,
        short: bool,
    }

    fn fails_once(inner: MemorySource, fail: bool, short: bool) -> FailsOnce {
        let fail = fail.into();
        FailsOnce { inner, fail, short }
    }

    impl GradedSource for FailsOnce {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn try_sorted_batch(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<GradedEntry>,
        ) -> Result<usize, SourceError> {
            if !self.fail.swap(false, std::sync::atomic::Ordering::Relaxed) {
                return self.inner.try_sorted_batch(start, count, out);
            }
            if self.short {
                return self.inner.try_sorted_batch(start, count - 1, out);
            }
            Err(SourceError {
                source: "fails once".into(),
                detail: "injected".into(),
                quarantined: false,
            })
        }

        fn try_random_batch(
            &self,
            objects: &[ObjectId],
            out: &mut Vec<Option<Grade>>,
        ) -> Result<(), SourceError> {
            self.inner.try_random_batch(objects, out)
        }
    }

    #[test]
    fn a_retry_with_a_smaller_k_bills_what_it_folds_not_what_was_fetched() {
        // A page of k = 4 opens with a 4-level round, which fetches each
        // list to N = 4: list 0 answers and list 1 fails, so list 0's 4
        // entries wait unfolded and unbilled. The retry asks k = 1, whose
        // one-level rounds stop at depth 3 (the hand example); list 1
        // fetches its window once, and each list is left holding its
        // rank-3 entry unfolded. A meter around each list counts entries
        // as they are fetched, the session bills them on the page that
        // folds them, and the two differ by exactly the unfolded entries.
        let [first, second]: [MemorySource; 2] = sources().try_into().unwrap();
        let lists = counted(vec![
            fails_once(first, false, false),
            fails_once(second, true, false),
        ]);
        let mut session = EngineSession::new(lists, min_agg()).unwrap();
        let fetched = |session: &EngineSession<CountingSource<FailsOnce>, _>| {
            let stats = session.sources().iter().map(CountingSource::stats);
            stats.collect::<Vec<_>>()
        };
        let bill = |sorted: [u64; 2], random: [u64; 2]| {
            vec![
                AccessStats::new(sorted[0], random[0]),
                AccessStats::new(sorted[1], random[1]),
            ]
        };
        assert!(matches!(
            session.next_batch(4),
            Err(TopKError::SourceFailed(_))
        ));
        assert_eq!(session.stats(), AccessStats::ZERO);
        assert_eq!(session.unfolded(), vec![4, 0]);
        assert_eq!(fetched(&session), bill([4, 0], [0, 0]));

        // Depth 3 folded: 3 entries per list, and objects 0 and 3 each
        // completed by one probe of the list that had not shown them.
        session.next_batch(1).unwrap();
        assert_eq!(session.depth(), 3);
        assert_eq!(session.per_source_stats(), bill([3, 3], [1, 1]));
        assert_eq!(session.stats().sorted, 2 * session.depth() as u64);
        assert_eq!(session.unfolded(), vec![1, 1]);
        assert_eq!(fetched(&session), bill([4, 4], [1, 1]));

        // The next round folds the waiting entries, and the two agree
        // again. List 0 read once, list 1 twice (the failed read and its
        // retry).
        session.next_batch(2).unwrap();
        assert_eq!(session.depth(), 4);
        assert_eq!(session.unfolded(), vec![0, 0]);
        assert_eq!(session.per_source_stats(), fetched(&session));
        assert_eq!(session.profile().sorted_batches, 3);
    }

    #[test]
    fn a_short_sorted_read_is_a_typed_error_and_the_page_resumes() {
        // A page of k = 4 opens with a 4-level round, and list 1's read
        // appends one entry fewer than asked for and returns `Ok`: the
        // round fails with a typed error rather than index past what it
        // got, folds and bills nothing, and the retry pages exactly as a
        // session that never failed.
        let [first, second]: [MemorySource; 2] = sources().try_into().unwrap();
        let lists = vec![
            fails_once(first, false, false),
            fails_once(second, true, true),
        ];
        let mut session = EngineSession::new(lists, min_agg()).unwrap();
        let err = session.next_batch(4).unwrap_err();
        assert!(
            matches!(&err, TopKError::SourceFailed(e) if e.source == "list 1" && !e.quarantined),
            "{err:?}"
        );
        assert_eq!((session.depth(), session.stats()), (0, AccessStats::ZERO));
        assert_eq!(session.unfolded(), vec![4, 0]);
        let mut clean = EngineSession::new(sources(), min_agg()).unwrap();
        assert_eq!(session.next_batch(4).unwrap(), clean.next_batch(4).unwrap());
        assert_eq!(session.per_source_stats(), clean.per_source_stats());
        assert_eq!(session.unfolded(), clean.unfolded());
    }

    /// The cumulative k-th score as of the last non-empty page.
    fn frontier<S: GradedSource, A: Aggregation>(session: &EngineSession<S, A>) -> Option<Grade> {
        session.frontier_history().last().map(|&(_, grade)| grade)
    }

    #[test]
    fn session_frontier_is_the_cumulative_kth_score() {
        let agg = min_agg();
        let mut session = EngineSession::new(sources(), &agg).unwrap();
        assert_eq!(frontier(&session), None);
        let first = session.next_batch(2).unwrap();
        assert_eq!(frontier(&session), first.entries().last().map(|e| e.grade));
        let second = session.next_batch(2).unwrap();
        let cut = second.entries().last().map(|e| e.grade);
        assert_eq!(frontier(&session), cut);
        assert!(frontier(&session) <= first.entries().last().map(|e| e.grade));
        // Exhausted pages are empty and leave the frontier in place.
        assert!(session.next_batch(1).unwrap().is_empty());
        assert_eq!(frontier(&session), cut);
        assert_eq!(session.frontier_history().len(), 2);
    }

    #[test]
    fn b0_session_frontier_tracks_the_worst_returned_grade() {
        let mut session = EngineSession::<_, MinAgg>::max(sources()).unwrap();
        assert_eq!(frontier(&session), None);
        let first = session.next_batch(1).unwrap();
        assert_eq!(frontier(&session), first.entries().last().map(|e| e.grade));
        let second = session.next_batch(2).unwrap();
        assert_eq!(frontier(&session), second.entries().last().map(|e| e.grade));
    }

    #[test]
    fn session_high_water_mark_never_repeats_random_accesses() {
        // Page through everything one answer at a time: every (object,
        // list) pair must be fetched at most once per access kind, so the
        // total is bounded by 2·m·N even with N pages.
        let mut session = EngineSession::new(sources(), min_agg()).unwrap();
        for _ in 0..4 {
            session.next_batch(1).unwrap();
        }
        let stats = session.stats();
        assert!(stats.unweighted() <= 2 * 2 * 4, "stats {stats:?}");
        assert_eq!(stats.sorted, 2 * 4);
    }

    #[test]
    fn b0_session_paging_costs_m_times_cumulative_k() {
        let mut session = EngineSession::<_, MinAgg>::max(sources()).unwrap();
        let first = session.next_batch(1).unwrap();
        let second = session.next_batch(2).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 2);
        let stats = session.stats();
        assert_eq!(stats.sorted, 2 * 3);
        assert_eq!(stats.random, 0);

        // Grade-equivalent to one B0 run at the cumulative k.
        let oneshot = super::super::b0_max::b0_max_topk(&sources(), 3).unwrap();
        let mut paged_grades = first.grades();
        paged_grades.extend(second.grades());
        assert_eq!(paged_grades, oneshot.grades());
    }
}
