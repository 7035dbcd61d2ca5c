//! The filtered ("Beatles") strategy from the opening of Section 4.
//!
//! For `(Artist = "Beatles") ∧ (AlbumColor = "red")` — one crisp, selective
//! conjunct and one fuzzy conjunct — "a good way to evaluate this query
//! would be first to determine all objects that satisfy the first conjunct
//! (call this set of objects S), and then to obtain grades ... (using random
//! access) for the second conjunct for all objects in S."
//!
//! This is correct whenever a grade of 0 in any conjunct forces the overall
//! grade to 0 (`Aggregation::zero_annihilates`) — true for every t-norm,
//! false for means. The middleware cost is `|S| + (m-1)·|S|`, independent of
//! how the other lists rank the rest of the database; experiment E13 finds
//! the selectivity crossover against A₀.
//!
//! The grade-completion step (random access for every match) runs on the
//! shared [`engine`](crate::algorithms::engine) over the graded conjuncts,
//! so its bookkeeping and metering are the same code path as A₀'s phase 2.
//! Note the whole ranking over `S` costs the same regardless of `k` (the
//! padding objects need no access at all), which is why a
//! [`FilteredSession`] pays it once, on its first page, and cuts every
//! later page from the scored match set for free.

use garlic_agg::{Aggregation, Grade};

use crate::access::{GradedSource, SetAccess};
use crate::graded_set::GradedEntry;
use crate::object::ObjectId;
use crate::topk::{TopK, TopKError};

use super::engine::{check_deadline, Engine, EngineProfile};

/// The filtered strategy as a resumable session: the first page fetches
/// the crisp conjunct's match set `S` and grades it (`|S|·m` accesses,
/// under the deadline in force *then*); every page takes the best of what
/// is left of `S`, and once `S` runs out pads with non-matching objects at
/// grade 0, in id order, at no access cost.
pub struct FilteredSession<C, S, A> {
    crisp: C,
    /// Completion engine over the graded conjuncts — `None` for the
    /// degenerate single-conjunct query, which has none.
    engine: Option<Engine<S>>,
    crisp_position: usize,
    agg: A,
    n: usize,
    deadline: Option<std::time::Instant>,
    /// The match set, once fetched (kept for the padding's membership
    /// test, and so a page retried after an error never fetches it twice).
    matches: Option<Vec<ObjectId>>,
    /// The matches not yet handed out, with their overall grades — `None`
    /// until the first page has graded them.
    scored: Option<Vec<GradedEntry>>,
    /// The next object id to consider as padding.
    pad_from: u64,
    cumulative: usize,
}

impl<C, S, A> FilteredSession<C, S, A>
where
    C: SetAccess,
    S: GradedSource,
    A: Aggregation,
{
    /// Opens a session. No source is accessed until the first page.
    ///
    /// * `crisp` — the subsystem answering the crisp conjunct (grades all
    ///   0/1), with set access;
    /// * `graded` — the remaining `m - 1` conjuncts' sources;
    /// * `crisp_position` — where the crisp conjunct sits in the
    ///   aggregation's argument order (matters for non-commutative
    ///   aggregations such as weighted ones);
    /// * `agg` — the m-ary aggregation; must be zero-annihilating.
    pub fn new(crisp: C, graded: Vec<S>, crisp_position: usize, agg: A) -> Result<Self, TopKError> {
        let m = graded.len() + 1;
        if crisp_position >= m {
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
        let n = crisp.len();
        if graded.iter().any(|s| s.len() != n) {
            return Err(TopKError::MismatchedSources {
                sizes: std::iter::once(n)
                    .chain(graded.iter().map(|s| s.len()))
                    .collect(),
            });
        }
        Ok(FilteredSession {
            crisp,
            engine: if graded.is_empty() {
                None
            } else {
                Some(Engine::open(graded)?)
            },
            crisp_position,
            agg,
            n,
            deadline: None,
            matches: None,
            scored: None,
            pad_from: 0,
            cumulative: 0,
        })
    }

    /// How many answers have been handed out so far.
    pub fn returned(&self) -> usize {
        self.cumulative
    }

    /// The crisp conjunct's source.
    pub fn crisp(&self) -> &C {
        &self.crisp
    }

    /// The graded conjuncts' sources, in argument order.
    pub fn graded(&self) -> &[S] {
        self.engine.as_ref().map_or(&[], |e| e.sources())
    }

    /// Phase timings and batch counts of the completion engine.
    pub fn profile(&self) -> EngineProfile {
        self.engine
            .as_ref()
            .map(|e| e.profile())
            .unwrap_or_default()
    }

    /// Sets (or clears) a cooperative deadline, checked before the match
    /// set is fetched and between the completion engine's batch rounds.
    /// A page that fails with [`TopKError::DeadlineExceeded`] leaves the
    /// session resumable, exactly as on
    /// [`EngineSession::set_deadline`](super::engine::EngineSession::set_deadline).
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        if let Some(engine) = &mut self.engine {
            engine.set_deadline(deadline);
        }
    }

    /// Steps 1 and 2 of the strategy, once: the match set `S` of the crisp
    /// conjunct, then random access for every other conjunct, matches only
    /// — the engine's completion phase over the graded lists (no sorted
    /// phase). Resumable after an error at either step.
    fn grade_matches(&mut self) -> Result<(), TopKError> {
        if self.scored.is_some() {
            return Ok(());
        }
        if self.matches.is_none() {
            check_deadline(self.deadline)?;
            self.matches = Some(
                self.crisp
                    .try_matching_set()
                    .map_err(TopKError::SourceFailed)?,
            );
        }
        let matches = self.matches.as_deref().expect("fetched above");
        if let Some(engine) = &mut self.engine {
            // One batched random_batch per graded list covers every match,
            // so block-backed sources decode each block once.
            engine.complete_grades(matches.iter().copied())?;
        }
        // The degenerate single-conjunct query has no graded list: every
        // match grades `t(1)`.
        let (engine, at) = (self.engine.as_ref(), self.crisp_position);
        let mut grades: Vec<Grade> = Vec::new();
        let scored = matches
            .iter()
            .map(|&object| {
                let completed = engine.map_or(&[][..], |e| {
                    e.grade_slice(object).expect("matches were completed above")
                });
                grades.clear();
                grades.extend_from_slice(&completed[..at]);
                grades.push(Grade::ONE);
                grades.extend_from_slice(&completed[at..]);
                GradedEntry {
                    object,
                    grade: self.agg.combine(&grades),
                }
            })
            .collect();
        self.scored = Some(scored);
        Ok(())
    }

    /// Returns the next `k` best answers (fewer once all `N` objects have
    /// been handed out), never repeating an object.
    pub fn next_batch(&mut self, k: usize) -> Result<TopK, TopKError> {
        if k == 0 {
            return Err(TopKError::ZeroK);
        }
        let take = k.min(self.n - self.cumulative);
        if take == 0 {
            return Ok(TopK::from_entries(Vec::new()));
        }
        self.grade_matches()?;
        let scored = self.scored.as_mut().expect("graded above");

        // The best `take` of the matches left; what remains for later
        // pages is everything ranked after this page's worst.
        let mut page = TopK::select(scored.iter().map(|e| (e.object, e.grade)), take);
        match page.entries().last() {
            Some(&worst) if page.len() == take => scored.retain(|e| e.skeleton_cmp(&worst).is_gt()),
            _ => scored.clear(),
        }

        // Pad with non-matching objects at grade 0 once S is used up:
        // their overall grade is known to be 0 *without any access* —
        // that is the whole point of the strategy.
        if page.len() < take {
            let in_set: std::collections::HashSet<ObjectId> =
                self.matches.iter().flatten().copied().collect();
            let mut entries = page.into_entries();
            while entries.len() < take && self.pad_from < self.n as u64 {
                let object = ObjectId(self.pad_from);
                self.pad_from += 1;
                if !in_set.contains(&object) {
                    entries.push(GradedEntry {
                        object,
                        grade: Grade::ZERO,
                    });
                }
            }
            page = TopK::from_entries(entries);
        }
        self.cumulative += page.len();
        Ok(page)
    }
}

/// Evaluates a conjunction with one crisp conjunct via the filtered
/// strategy — the first page of a [`FilteredSession`] (see
/// [`FilteredSession::new`] for the arguments).
///
/// If fewer than `k` objects match the crisp conjunct, the answer is padded
/// with non-matching objects at grade 0.
pub fn filtered_topk<C, S, A>(
    crisp: &C,
    graded: &[S],
    crisp_position: usize,
    agg: &A,
    k: usize,
) -> Result<TopK, TopKError>
where
    C: SetAccess,
    S: GradedSource,
    A: Aggregation,
{
    let mut session = FilteredSession::new(crisp, graded.iter().collect(), crisp_position, agg)?;
    if k > session.n {
        return Err(TopKError::KTooLarge { k, n: session.n });
    }
    session.next_batch(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, CountingSource, MemorySource};
    use crate::algorithms::naive::naive_topk;
    use garlic_agg::iterated::min_agg;
    use garlic_agg::means::ArithmeticMean;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    /// 6 albums; artist matches objects 1, 3, 4; colour grades vary.
    fn crisp() -> MemorySource {
        MemorySource::from_grades(&[g(0.0), g(1.0), g(0.0), g(1.0), g(1.0), g(0.0)])
    }

    fn colour() -> MemorySource {
        MemorySource::from_grades(&[g(0.9), g(0.3), g(0.8), g(0.7), g(0.1), g(0.5)])
    }

    #[test]
    fn agrees_with_naive_min_conjunction() {
        let crisp_src = crisp();
        let colour_src = colour();
        let both = vec![crisp_src.clone(), colour_src.clone()];
        for k in 1..=6 {
            let fast = filtered_topk(&crisp_src, &[&colour_src], 0, &min_agg(), k).unwrap();
            let slow = naive_topk(&both, &min_agg(), k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }

    #[test]
    fn beatles_semantics() {
        // Top answers are Beatles albums ranked by colour; best is object 3
        // (match, colour .7), then 1 (.3), then 4 (.1).
        let top = filtered_topk(&crisp(), &[&colour()], 0, &min_agg(), 3).unwrap();
        assert_eq!(top.objects(), vec![ObjectId(3), ObjectId(1), ObjectId(4)]);
        assert_eq!(top.grades(), vec![g(0.7), g(0.3), g(0.1)]);
    }

    #[test]
    fn cost_proportional_to_selectivity_not_n() {
        let crisp_src = CountingSource::new(crisp());
        let colours = counted(vec![colour()]);
        filtered_topk(&crisp_src, &colours, 0, &min_agg(), 2).unwrap();
        // |S| = 3 set-access retrievals + 3 random accesses.
        assert_eq!(crisp_src.stats().sorted, 3);
        assert_eq!(colours[0].stats().random, 3);
        assert_eq!(colours[0].stats().sorted, 0);
    }

    #[test]
    fn pads_with_zero_grades_when_selective() {
        let top = filtered_topk(&crisp(), &[&colour()], 0, &min_agg(), 5).unwrap();
        assert_eq!(top.len(), 5);
        assert_eq!(top.grades()[3], Grade::ZERO);
        assert_eq!(top.grades()[4], Grade::ZERO);
    }

    #[test]
    fn session_pages_the_matches_then_pads_and_bills_once() {
        let mut session = FilteredSession::new(
            CountingSource::new(crisp()),
            counted(vec![colour()]),
            0,
            min_agg(),
        )
        .unwrap();
        fn bill<A: Aggregation>(
            s: &FilteredSession<CountingSource<MemorySource>, CountingSource<MemorySource>, A>,
        ) -> (crate::AccessStats, crate::AccessStats) {
            (s.crisp().stats(), s.graded()[0].stats())
        }
        assert_eq!(bill(&session), Default::default());

        let first = session.next_batch(2).unwrap();
        assert_eq!(first.objects(), vec![ObjectId(3), ObjectId(1)]);
        let paid = bill(&session);
        assert_eq!((paid.0.sorted, paid.1.random), (3, 3));

        // The last match, then padding in id order — one page, one order.
        let second = session.next_batch(2).unwrap();
        assert_eq!(second.objects(), vec![ObjectId(4), ObjectId(0)]);
        assert_eq!(second.grades(), vec![g(0.1), Grade::ZERO]);
        let third = session.next_batch(5).unwrap();
        assert_eq!(third.objects(), vec![ObjectId(2), ObjectId(5)]);
        assert!(session.next_batch(1).unwrap().is_empty());
        assert_eq!(session.returned(), 6);
        assert_eq!(bill(&session), paid);
    }

    #[test]
    fn session_checks_the_deadline_before_any_access_and_resumes() {
        let mut session = FilteredSession::new(
            CountingSource::new(crisp()),
            counted(vec![colour()]),
            0,
            min_agg(),
        )
        .unwrap();
        session.set_deadline(Some(std::time::Instant::now()));
        assert_eq!(session.next_batch(2), Err(TopKError::DeadlineExceeded));
        assert_eq!(session.crisp().stats().sorted, 0);
        session.set_deadline(None);
        assert_eq!(
            session.next_batch(2).unwrap(),
            filtered_topk(&crisp(), &[&colour()], 0, &min_agg(), 2).unwrap()
        );
    }

    #[test]
    fn rejects_non_annihilating_aggregation() {
        let err = filtered_topk(&crisp(), &[&colour()], 0, &ArithmeticMean, 1).unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedAggregation { .. }));
    }

    #[test]
    fn crisp_position_is_respected() {
        // With min the position cannot matter; check both positions agree.
        let a = filtered_topk(&crisp(), &[&colour()], 0, &min_agg(), 2).unwrap();
        let b = filtered_topk(&crisp(), &[&colour()], 1, &min_agg(), 2).unwrap();
        assert!(a.same_grades(&b, 0.0));
        assert!(filtered_topk(&crisp(), &[&colour()], 2, &min_agg(), 2).is_err());
    }
}
