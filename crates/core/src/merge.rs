//! The one demand-driven k-way merge behind every composed sorted list.
//!
//! Section 4's sorted access is one stream per list: "the graded set
//! consisting of all objects, one by one, … in sorted order based on
//! grade". A list served by several sorted *runs* — the id-range shards
//! of a [`ShardedSource`], or a live store's overlay over its base
//! segment — builds that stream with a [`Merge`]:
//!
//! * **Pick.** Each run keeps a lookahead buffer; the next merged entry is
//!   the best buffered head by [`GradedEntry::skeleton_cmp`] (descending
//!   grade, ties by ascending object id). The runs must never grade the
//!   same object, so the key is unique and the merged stream is the one
//!   skeleton order of the union, bit for bit.
//! * **Grow-only prefix.** Positional sorted access is served out of the
//!   merged prefix, which only ever grows, so the stream is the same no
//!   matter how callers cut it into batches.
//! * **Demand-sized refill.** A run whose buffer runs dry is refilled with
//!   its share of what the merge still owes — `remaining / live + 1`
//!   entries over the `live` runs not yet exhausted, clamped to
//!   16..=4096 — so each run is read only as deep as the merged prefix
//!   needs (Section 5's threshold argument, across runs). A round reads
//!   its dry runs in run order on the calling thread. The chunk only
//!   shapes *when* entries are fetched, never *which* are emitted.
//! * **Dropping runs.** The read callback returns the *raw* count a run
//!   consumed, and may keep fewer entries than that — a live base segment
//!   drops the entries its overlay shadows. A short raw count means the
//!   run is exhausted; a refill that kept nothing is simply read again.
//! * **Known runs.** A run whose every entry is already in memory (a live
//!   overlay) enters filled and exhausted, and is never read.
//! * **Retry safety.** A run's buffer is cleared before its read and
//!   cleared again if the read fails, and its rank advances only on
//!   success. A failed call leaves the prefix and every cursor as if the
//!   failing read never happened, so retrying resumes exactly there; runs
//!   that succeeded in the same round keep their refills.
//!
//! [`ShardedSource`]: crate::ShardedSource

use crate::access::SourceError;
use crate::graded_set::GradedEntry;

/// Smallest refill chunk: a run's share of a nearly finished merge still
/// reads enough to learn its next few heads.
const MIN_CHUNK: usize = 16;

/// Largest refill chunk per run — bounds prefetch overshoot past the depth
/// the merge was asked for.
const MAX_CHUNK: usize = 4096;

/// One run's position in the merge.
#[derive(Debug, Default)]
struct Run {
    /// Buffered entries not yet merged (`buf[pos..]`).
    buf: Vec<GradedEntry>,
    pos: usize,
    /// The raw rank the next refill starts at.
    next_rank: usize,
    /// Whether the run returned a short raw batch (nothing remains).
    exhausted: bool,
}

impl Run {
    fn head(&self) -> Option<GradedEntry> {
        self.buf.get(self.pos).copied()
    }

    fn needs_refill(&self) -> bool {
        !self.exhausted && self.pos == self.buf.len()
    }
}

/// A demand-driven merge of skeleton-ordered runs into one list of `len`
/// entries (see the module docs). The owner keeps it behind its own lock
/// and hands every call the two callbacks that know its runs:
///
/// * `read(run, rank, count, out)` appends the kept entries of raw ranks
///   `rank..rank + count` of run `run` to `out` and returns the raw count
///   it consumed (short at the end of the run). On `Err` whatever it
///   appended is discarded.
/// * `on_failure(merge, run, err)` decides a failed read: `Err` fails the
///   call; `Ok` must first [`close_run`](Merge::close_run) the run.
#[derive(Debug)]
pub struct Merge {
    merged: Vec<GradedEntry>,
    runs: Vec<Run>,
    len: usize,
    /// Raw entries every successful read consumed, in total.
    consumed: u64,
}

impl Merge {
    /// A merge of `unread` runs, numbered from 0 and read through the
    /// callback, into a list of `len` entries.
    pub fn new(len: usize, unread: usize) -> Merge {
        Merge {
            merged: Vec::new(),
            runs: (0..unread).map(|_| Run::default()).collect(),
            len,
            consumed: 0,
        }
    }

    /// Adds a run whose every entry is already known (in skeleton order):
    /// it enters filled and exhausted, and is never read.
    pub fn with_known_run(mut self, entries: Vec<GradedEntry>) -> Merge {
        self.runs.push(Run {
            buf: entries,
            exhausted: true,
            ..Run::default()
        });
        self
    }

    /// The merged prefix computed so far.
    pub fn merged(&self) -> &[GradedEntry] {
        &self.merged
    }

    /// Raw entries the runs served so far, shadowed ones included.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The entries run `run` has buffered but the merge has not taken yet.
    pub fn pending(&self, run: usize) -> &[GradedEntry] {
        let run = &self.runs[run];
        &run.buf[run.pos..]
    }

    /// Ends run `run`: `rest` (skeleton-ordered) replaces its pending
    /// entries and the run is never read again.
    pub fn close_run(&mut self, run: usize, rest: Vec<GradedEntry>) {
        self.runs[run] = Run {
            buf: rest,
            exhausted: true,
            ..Run::default()
        };
    }

    /// Sorted access over the merged stream: appends ranks
    /// `start..start + count` (clipped to the list) to `out` and returns
    /// how many it appended, growing the prefix as far as that needs. On
    /// `Err`, `out` is unchanged and the merge resumes where it stopped.
    pub fn try_sorted_batch<R, F>(
        &mut self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
        read: R,
        mut on_failure: F,
    ) -> Result<usize, SourceError>
    where
        R: Fn(usize, usize, usize, &mut Vec<GradedEntry>) -> Result<usize, SourceError>,
        F: FnMut(&mut Merge, usize, SourceError) -> Result<(), SourceError>,
    {
        let end = start.saturating_add(count);
        let target = end.min(self.len);
        while self.merged.len() < target {
            // Every run not yet exhausted needs a head before the pick can
            // see the true next entry.
            while self.runs.iter().any(Run::needs_refill) {
                self.try_refill(target - self.merged.len(), &read, &mut on_failure)?;
            }
            let best = self
                .runs
                .iter()
                .enumerate()
                .filter_map(|(i, run)| run.head().map(|e| (i, e)))
                .min_by(|(_, a), (_, b)| a.skeleton_cmp(b));
            let Some((winner, entry)) = best else {
                break; // every run exhausted before `target`
            };
            self.runs[winner].pos += 1;
            if self.merged.len() == self.merged.capacity() {
                // Double, but never past the list: `push` alone would leave
                // a fully merged 100 000-entry list in 131 072 slots.
                let have = self.merged.len();
                self.merged
                    .reserve_exact(have.max(MIN_CHUNK).min(self.len - have));
            }
            self.merged.push(entry);
        }
        let from = start.min(self.merged.len());
        let to = end.min(self.merged.len());
        out.extend_from_slice(&self.merged[from..to]);
        Ok(to - from)
    }

    /// Refills every dry run with a chunk sized to its share of the
    /// `remaining` entries the merge owes; failures go to `on_failure` in
    /// run order once the round is over.
    fn try_refill<R, F>(
        &mut self,
        remaining: usize,
        read: &R,
        on_failure: &mut F,
    ) -> Result<(), SourceError>
    where
        R: Fn(usize, usize, usize, &mut Vec<GradedEntry>) -> Result<usize, SourceError>,
        F: FnMut(&mut Merge, usize, SourceError) -> Result<(), SourceError>,
    {
        let live = self.runs.iter().filter(|r| !r.exhausted).count().max(1);
        let chunk = (remaining / live + 1).clamp(MIN_CHUNK, MAX_CHUNK);
        let mut failures = Vec::new();
        for (index, run) in self.runs.iter_mut().enumerate() {
            if !run.needs_refill() {
                continue;
            }
            run.buf.clear();
            run.pos = 0;
            match read(index, run.next_rank, chunk, &mut run.buf) {
                Ok(got) => {
                    run.next_rank += got;
                    run.exhausted = got < chunk;
                    self.consumed += got as u64;
                }
                Err(err) => {
                    run.buf.clear();
                    failures.push((index, err));
                }
            }
        }
        for (index, err) in failures {
            on_failure(self, index, err)?;
            debug_assert!(
                self.runs[index].exhausted,
                "a forgiven failure closes its run"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
impl Merge {
    /// The merged prefix's allocation.
    pub(crate) fn capacity(&self) -> usize {
        self.merged.capacity()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use garlic_agg::Grade;
    use proptest::prelude::*;

    use super::*;
    use crate::object::ObjectId;

    /// Case count of the retry property: 64 locally; CI runs it once more
    /// by name with `PROPTEST_CASES` raised.
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// A deterministic stream of pseudo-random numbers below `bound`.
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut x = seed | 1;
        move |bound| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % bound.max(1)
        }
    }

    /// `n` objects, each in one of `unread` read runs or (with `known`) in
    /// one known run, graded on 11 levels so ties are common. Run 0 drops
    /// entries at refill, as a live base drops the objects its overlay
    /// shadows: in stretches of 1 to 200 ranks, each stretch dropped with
    /// probability `drop_pct`%, so whole refills can come back empty with
    /// kept entries behind them. Returns the raw runs (skeleton-ordered,
    /// with each entry's kept flag) and the known run.
    #[allow(clippy::type_complexity)]
    fn layout(
        n: usize,
        unread: usize,
        known: bool,
        drop_pct: u64,
        seed: u64,
    ) -> (Vec<Vec<(GradedEntry, bool)>>, Vec<GradedEntry>) {
        let mut rand = lcg(seed);
        let mut raw = vec![Vec::new(); unread];
        let mut known_run = Vec::new();
        for id in 0..n as u64 {
            let entry = GradedEntry {
                object: ObjectId(id),
                grade: Grade::clamped(rand(11) as f64 / 10.0),
            };
            match raw.get_mut(rand(unread as u64 + u64::from(known)) as usize) {
                Some(run) => run.push((entry, true)),
                None => known_run.push(entry),
            }
        }
        for run in &mut raw {
            run.sort_by(|a, b| a.0.skeleton_cmp(&b.0));
        }
        known_run.sort_by(GradedEntry::skeleton_cmp);
        let mut stretch = raw[0].as_mut_slice();
        while !stretch.is_empty() {
            let len = (rand(200) as usize + 1).min(stretch.len());
            let kept = rand(100) >= drop_pct;
            stretch[..len].iter_mut().for_each(|entry| entry.1 = kept);
            stretch = &mut stretch[len..];
        }
        (raw, known_run)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// However the reads are cut and wherever one read fails, a failed
        /// call leaves `out` unchanged, and the retried reads return the
        /// skeleton-ordered union of the kept entries: nothing skipped,
        /// nothing repeated, no raw rank of any run read twice.
        #[test]
        fn retried_reads_return_the_ordered_union_of_kept_entries(
            n in 0usize..3000,
            unread in 1usize..=4,
            known in 0u8..2,
            drop_pct in 0u64..100,
            seed in 0u64..1_000_000,
            fail_at in 1usize..24,
            reads in 1usize..12,
        ) {
            let (raw, known_run) = layout(n, unread, known == 1, drop_pct, seed);
            let mut want: Vec<GradedEntry> = raw
                .iter()
                .flatten()
                .filter(|(_, kept)| *kept)
                .map(|(entry, _)| *entry)
                .chain(known_run.iter().copied())
                .collect();
            want.sort_by(GradedEntry::skeleton_cmp);

            let calls = Cell::new(0);
            let served = RefCell::new(vec![Vec::new(); unread]);
            let read = |run: usize, rank: usize, count: usize, out: &mut Vec<GradedEntry>| {
                calls.set(calls.get() + 1);
                if calls.get() == fail_at {
                    // A partial append before the failure must not leak.
                    out.push(GradedEntry { object: ObjectId(u64::MAX), grade: Grade::ONE });
                    return Err(SourceError {
                        source: format!("run {run}"),
                        detail: "injected".into(),
                        quarantined: false,
                    });
                }
                let end = rank.saturating_add(count).min(raw[run].len());
                let taken = &raw[run][rank.min(end)..end];
                out.extend(taken.iter().filter(|(_, kept)| *kept).map(|(entry, _)| *entry));
                served.borrow_mut()[run].extend(rank..end);
                Ok(taken.len())
            };

            let mut merge = Merge::new(want.len(), unread).with_known_run(known_run);
            let mut rand = lcg(seed ^ 0xA5A5);
            let sentinel = GradedEntry { object: ObjectId(7), grade: Grade::ZERO };
            for read_no in 0..=reads {
                // The last read takes everything that is left.
                let (start, count) = if read_no == reads {
                    (0, n + 1)
                } else {
                    (rand(n as u64 + 8) as usize, rand(n as u64 / 2 + 40) as usize)
                };
                let mut out = vec![sentinel];
                let got = loop {
                    match merge.try_sorted_batch(start, count, &mut out, read, |_, _, e| Err(e)) {
                        Ok(got) => break got,
                        Err(_) => prop_assert_eq!(&out, &vec![sentinel], "a failed call changes nothing"),
                    }
                };
                let from = start.min(want.len());
                let to = start.saturating_add(count).min(want.len());
                prop_assert_eq!(got, to - from);
                prop_assert_eq!(&out[1..], &want[from..to], "read ({}, {})", start, count);
            }
            prop_assert_eq!(merge.merged(), &want[..]);
            for (run, ranks) in served.borrow().iter().enumerate() {
                let expect: Vec<usize> = (0..ranks.len()).collect();
                prop_assert_eq!(ranks, &expect, "run {} read each raw rank once, in order", run);
            }
        }
    }
}
