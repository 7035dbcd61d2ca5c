//! Algorithm A₀ — **Fagin's Algorithm** (Section 4, Theorem 4.2).
//!
//! Returns the top-k answers for any *monotone* query `F_t(A_1, ..., A_m)`
//! in three phases:
//!
//! 1. **Sorted access** — stream every list in parallel (round-robin, so all
//!    lists sit at a common depth `T`) until at least `k` objects have been
//!    seen in *every* list (the matched set `L`).
//! 2. **Random access** — for every object seen anywhere, fetch its missing
//!    grades from the other lists.
//! 3. **Computation** — aggregate, and output the `k` best with their
//!    grades.
//!
//! Correctness rests on Proposition 4.1: the prefixes `X^i_T` are upwards
//! closed, so any object beating a member of `∩ᵢ X^i_T` lies in `∪ᵢ X^i_T`
//! and was therefore graded in phase 2. Under independence the middleware
//! cost is `O(N^((m-1)/m) · k^(1/m))` with arbitrarily high probability
//! (Theorem 5.3) — the headline result this repository reproduces
//! empirically in experiments E01–E03.
//!
//! The paper also sketches a refinement: "instead of using a uniform value
//! of T, we might find Tᵢ ≤ T for each i such that `∩ᵢ X^i_{Tᵢ}` contains k
//! members ... which could lead to fewer random accesses." That is
//! [`fagin_shrunk_run`].
//!
//! Both are the first page of an [`EngineSession`] — [`EngineSession::new`]
//! and [`EngineSession::shrunk`] — with the diagnostics the experiments
//! report read off the session. Paging further is the same session's next
//! page.

use garlic_agg::Aggregation;

use crate::access::GradedSource;
use crate::cost::AccessStats;
use crate::topk::{validate_inputs, TopK, TopKError};

use super::engine::EngineSession;

/// Diagnostics from one run of A₀, for the experiment harness.
#[derive(Debug, Clone)]
pub struct FaRun {
    /// The top-k answers.
    pub topk: TopK,
    /// The uniform sorted depth `T` at which the phase stopped.
    pub stop_depth: usize,
    /// Per-list depths `Tᵢ` actually used for the random-access phase
    /// (all equal to `stop_depth` except under [`fagin_shrunk_run`]).
    pub per_list_depths: Vec<usize>,
    /// Size of the matched set `L` when the sorted phase stopped.
    pub matched: usize,
    /// Number of distinct objects whose grade vectors were completed (the
    /// size of the random-access candidate set).
    pub candidates: usize,
    /// The run's Section 5 bill, as the session metered it
    /// ([`EngineSession::stats`]).
    pub stats: AccessStats,
}

/// Runs algorithm A₀ and returns only the answers.
///
/// The aggregation must be monotone (Theorem 4.2's hypothesis); this is
/// debug-asserted from the declared property.
pub fn fagin_topk<S, A>(sources: &[S], agg: &A, k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
    A: Aggregation,
{
    fagin_run(sources, agg, k).map(|run| run.topk)
}

/// Runs algorithm A₀, returning diagnostics alongside the answers.
pub fn fagin_run<S, A>(sources: &[S], agg: &A, k: usize) -> Result<FaRun, TopKError>
where
    S: GradedSource,
    A: Aggregation,
{
    first_page(sources, agg, k, EngineSession::new)
}

/// Runs A₀ with Section 4's per-list depths `Tᵢ ≤ T`: the same sorted
/// phase, then random access only for `∪ᵢ X^i_{Tᵢ}`, where the `Tᵢ` are
/// the deepest ranks the `k` matched objects of earliest worst rank (ties
/// by id) need. Never more random accesses than [`fagin_run`], at the same
/// sorted cost and with the same answer.
pub fn fagin_shrunk_run<S, A>(sources: &[S], agg: &A, k: usize) -> Result<FaRun, TopKError>
where
    S: GradedSource,
    A: Aggregation,
{
    first_page(sources, agg, k, EngineSession::shrunk)
}

/// An A₀ session constructor: [`EngineSession::new`] or
/// [`EngineSession::shrunk`].
type Open<'a, S, A> = fn(Vec<&'a S>, &'a A) -> Result<EngineSession<&'a S, &'a A>, TopKError>;

/// The session that `open` builds, one page of `k`, and the run's
/// diagnostics read off it.
fn first_page<'a, S, A>(
    sources: &'a [S],
    agg: &'a A,
    k: usize,
    open: Open<'a, S, A>,
) -> Result<FaRun, TopKError>
where
    S: GradedSource,
    A: Aggregation,
{
    validate_inputs(sources, k)?;
    debug_assert!(
        agg.is_monotone(),
        "A0 is only guaranteed correct for monotone aggregations (Theorem 4.2)"
    );
    let mut session = open(sources.iter().collect(), agg)?;
    let topk = session.next_batch(k)?;
    debug_assert!(session.matched() >= k);
    Ok(FaRun {
        topk,
        stop_depth: session.depth(),
        per_list_depths: session.per_list_depths(),
        matched: session.matched(),
        candidates: session.graded(),
        stats: session.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemorySource;
    use crate::algorithms::naive::naive_topk;
    use crate::object::ObjectId;
    use garlic_agg::iterated::{min_agg, product_agg};
    use garlic_agg::means::ArithmeticMean;
    use garlic_agg::Grade;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn sources() -> Vec<MemorySource> {
        vec![
            MemorySource::from_grades(&[g(1.0), g(0.8), g(0.6), g(0.4)]),
            MemorySource::from_grades(&[g(0.3), g(0.5), g(0.7), g(0.9)]),
        ]
    }

    #[test]
    fn agrees_with_naive_on_hand_example() {
        for k in 1..=4 {
            let fa = fagin_topk(&sources(), &min_agg(), k).unwrap();
            let naive = naive_topk(&sources(), &min_agg(), k).unwrap();
            assert!(fa.same_grades(&naive, 0.0), "k = {k}");
        }
    }

    #[test]
    fn works_for_product_and_mean() {
        let fa = fagin_topk(&sources(), &product_agg(), 2).unwrap();
        let naive = naive_topk(&sources(), &product_agg(), 2).unwrap();
        assert!(fa.same_grades(&naive, 1e-12));

        let fa = fagin_topk(&sources(), &ArithmeticMean, 2).unwrap();
        let naive = naive_topk(&sources(), &ArithmeticMean, 2).unwrap();
        assert!(fa.same_grades(&naive, 1e-12));
    }

    #[test]
    fn reports_stop_depth() {
        let run = fagin_run(&sources(), &min_agg(), 1).unwrap();
        // From the SortedPhase test: first match appears at depth 3.
        assert_eq!(run.stop_depth, 3);
        assert_eq!(run.matched, 2);
        assert_eq!(run.per_list_depths, vec![3, 3]);
    }

    #[test]
    fn shrink_never_increases_candidates() {
        let plain = fagin_run(&sources(), &min_agg(), 1).unwrap();
        let shrunk = fagin_shrunk_run(&sources(), &min_agg(), 1).unwrap();
        assert!(shrunk.candidates <= plain.candidates);
        assert!(shrunk
            .per_list_depths
            .iter()
            .all(|&t| t <= plain.stop_depth));
        assert!(shrunk.topk.same_grades(&plain.topk, 0.0));
    }

    #[test]
    fn no_random_access_for_sorted_seen_grades() {
        // Objects seen in both lists by sorted access need zero random
        // accesses; here depth reaches 4 of 4 for k = 4, so all grades come
        // from sorted access.
        let run = fagin_run(&sources(), &min_agg(), 4).unwrap();
        assert_eq!(run.stats.random, 0);
    }

    #[test]
    fn k_equals_n_grades_whole_database() {
        // Remark 5.2: with k = N the cost is necessarily linear.
        let run = fagin_run(&sources(), &min_agg(), 4).unwrap();
        assert_eq!(run.topk.len(), 4);
        assert_eq!(run.stats.sorted, 8);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            fagin_topk(&sources(), &min_agg(), 0),
            Err(TopKError::ZeroK)
        ));
        assert!(matches!(
            fagin_topk(&sources(), &min_agg(), 9),
            Err(TopKError::KTooLarge { .. })
        ));
    }

    #[test]
    fn single_list_degenerates_to_prefix() {
        let s = vec![MemorySource::from_grades(&[g(0.1), g(0.9), g(0.5)])];
        let top = fagin_topk(&s, &min_agg(), 2).unwrap();
        assert_eq!(top.objects(), vec![ObjectId(1), ObjectId(2)]);
    }
}
