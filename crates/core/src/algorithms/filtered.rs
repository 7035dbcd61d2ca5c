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
//! It is a rule of the one [`EngineSession`]
//! ([`EngineSession::filtered`]): the crisp list is one of the session's
//! `m` sources, its match set fills that list's column with grade 1 at no
//! access, and the random accesses for the matches are the engine's
//! batched completion — the same code path as A₀'s phase 2. The whole
//! ranking over `S` costs the same regardless of `k` (the padding objects
//! need no access at all), so a session pays it once, on its first page,
//! and cuts every later page from the graded match set for free. This
//! module is the first-page shell.

use garlic_agg::Aggregation;

use crate::access::SetAccess;
use crate::topk::{validate_inputs, TopK, TopKError};

use super::engine::EngineSession;

/// Evaluates a conjunction with one crisp conjunct, `sources[crisp]`, via
/// the filtered strategy — the first page of [`EngineSession::filtered`]
/// (see there for the arguments).
///
/// If fewer than `k` objects match the crisp conjunct, the answer is padded
/// with non-matching objects at grade 0.
pub fn filtered_topk<S, A>(
    sources: &[S],
    crisp: usize,
    agg: &A,
    k: usize,
) -> Result<TopK, TopKError>
where
    S: SetAccess,
    A: Aggregation,
{
    validate_inputs(sources, k)?;
    EngineSession::filtered(sources.iter().collect(), crisp, agg)?.next_batch(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, CountingSource, MemorySource};
    use crate::algorithms::naive::naive_topk;
    use crate::object::ObjectId;
    use garlic_agg::iterated::min_agg;
    use garlic_agg::means::ArithmeticMean;
    use garlic_agg::Grade;

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
        let both = vec![crisp(), colour()];
        for k in 1..=6 {
            let fast = filtered_topk(&both, 0, &min_agg(), k).unwrap();
            let slow = naive_topk(&both, &min_agg(), k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }

    #[test]
    fn beatles_semantics() {
        // Top answers are Beatles albums ranked by colour; best is object 3
        // (match, colour .7), then 1 (.3), then 4 (.1).
        let top = filtered_topk(&[crisp(), colour()], 0, &min_agg(), 3).unwrap();
        assert_eq!(top.objects(), vec![ObjectId(3), ObjectId(1), ObjectId(4)]);
        assert_eq!(top.grades(), vec![g(0.7), g(0.3), g(0.1)]);
    }

    #[test]
    fn cost_proportional_to_selectivity_not_n() {
        let sources = counted(vec![crisp(), colour()]);
        filtered_topk(&sources, 0, &min_agg(), 2).unwrap();
        // |S| = 3 set-access retrievals + 3 random accesses.
        assert_eq!(sources[0].stats().sorted, 3);
        assert_eq!(sources[1].stats().random, 3);
        assert_eq!(sources[1].stats().sorted, 0);
    }

    #[test]
    fn pads_with_zero_grades_when_selective() {
        let top = filtered_topk(&[crisp(), colour()], 0, &min_agg(), 5).unwrap();
        assert_eq!(top.len(), 5);
        assert_eq!(top.grades()[3], Grade::ZERO);
        assert_eq!(top.grades()[4], Grade::ZERO);
    }

    #[test]
    fn session_pages_the_matches_then_pads_and_bills_once() {
        let mut session =
            EngineSession::filtered(counted(vec![crisp(), colour()]), 0, min_agg()).unwrap();
        fn bill<A: Aggregation>(
            s: &EngineSession<CountingSource<MemorySource>, A>,
        ) -> (crate::AccessStats, crate::AccessStats) {
            (s.sources()[0].stats(), s.sources()[1].stats())
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
        let mut session =
            EngineSession::filtered(counted(vec![crisp(), colour()]), 0, min_agg()).unwrap();
        session.set_deadline(Some(std::time::Instant::now()));
        assert_eq!(session.next_batch(2), Err(TopKError::DeadlineExceeded));
        assert_eq!(session.sources()[0].stats().sorted, 0);
        session.set_deadline(None);
        assert_eq!(
            session.next_batch(2).unwrap(),
            filtered_topk(&[crisp(), colour()], 0, &min_agg(), 2).unwrap()
        );
    }

    #[test]
    fn rejects_non_annihilating_aggregation() {
        let err = filtered_topk(&[crisp(), colour()], 0, &ArithmeticMean, 1).unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedAggregation { .. }));
    }

    #[test]
    fn crisp_position_is_respected() {
        // With min the position cannot matter; check both positions agree.
        let a = filtered_topk(&[crisp(), colour()], 0, &min_agg(), 2).unwrap();
        let b = filtered_topk(&[colour(), crisp()], 1, &min_agg(), 2).unwrap();
        assert!(a.same_grades(&b, 0.0));
        assert!(filtered_topk(&[crisp(), colour()], 2, &min_agg(), 2).is_err());
    }
}
