//! Algorithm A₀′ — the min-specialised variant (Proposition 4.3 /
//! Theorem 4.4).
//!
//! For the standard fuzzy conjunction (`t = min`), Proposition 4.3
//! strengthens Proposition 4.1: let `x₀` minimise the overall grade within
//! the matched set `L`, attained in list `i₀` with grade `g₀`. Any object
//! that beats a member of `∩ᵢ X^i_T` must then lie in `X^{i₀}_T` itself —
//! so the random-access phase only needs the **candidates**
//! `{x ∈ X^{i₀}_T : μ_{A_{i₀}}(x) ≥ g₀}` rather than the whole union of
//! prefixes. The saving is the constant-factor improvement measured by
//! experiment E11.
//!
//! The rule itself — fold the matched set into `(g₀, i₀)`, grade the
//! pivot prefix at or above `g₀` — lives once, in
//! [`EngineSession::min`], where it also pages. This module is the
//! one-evaluation view of it: a single page, with the diagnostics the
//! experiments report.

use garlic_agg::iterated::IteratedTNorm;
use garlic_agg::tnorms::Minimum;
use garlic_agg::Grade;

use crate::access::GradedSource;
use crate::topk::{validate_inputs, TopK, TopKError};

use super::engine::EngineSession;

/// Diagnostics from one run of A₀′.
#[derive(Debug, Clone)]
pub struct FaMinRun {
    /// The top-k answers.
    pub topk: TopK,
    /// The sorted depth `T` at which the phase stopped.
    pub stop_depth: usize,
    /// The threshold grade `g₀` (the least overall grade in the matched set).
    pub threshold: Grade,
    /// The pivot list `i₀` whose prefix contains every possible winner.
    pub pivot_list: usize,
    /// Number of candidate objects sent to the random-access phase.
    pub candidates: usize,
}

/// Runs algorithm A₀′ for the standard fuzzy conjunction
/// `A₁ ∧ ... ∧ A_m` (aggregation fixed to min) and returns the answers.
pub fn fagin_min_topk<S>(sources: &[S], k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
{
    fagin_min_run(sources, k).map(|run| run.topk)
}

/// Runs algorithm A₀′ with diagnostics.
pub fn fagin_min_run<S>(sources: &[S], k: usize) -> Result<FaMinRun, TopKError>
where
    S: GradedSource,
{
    validate_inputs(sources, k)?;
    let mut session = EngineSession::<_, IteratedTNorm<Minimum>>::min(sources.iter().collect())?;
    let topk = session.next_batch(k)?;
    let (threshold, pivot_list) = session
        .pivot()
        .expect("the matched set has at least k >= 1 members");
    debug_assert!(
        session.graded() >= k,
        "the matched set is contained in the candidate set"
    );
    Ok(FaMinRun {
        topk,
        stop_depth: session.engine().depth(),
        threshold,
        pivot_list,
        candidates: session.graded(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, total_stats, MemorySource};
    use crate::algorithms::fa::{fagin_run, FaOptions};
    use crate::algorithms::naive::naive_topk;
    use garlic_agg::iterated::min_agg;

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
    fn agrees_with_naive() {
        for k in 1..=4 {
            let fast = fagin_min_topk(&sources(), k).unwrap();
            let slow = naive_topk(&sources(), &min_agg(), k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }

    #[test]
    fn candidates_never_exceed_a0_union() {
        // A₀′ restricts random access to one list's prefix; A₀ uses the
        // whole union — Proposition 4.3's point.
        let a0 = fagin_run(&sources(), &min_agg(), 1, FaOptions::default()).unwrap();
        let a0p = fagin_min_run(&sources(), 1).unwrap();
        assert!(a0p.candidates <= a0.candidates);
        assert_eq!(a0p.stop_depth, a0.stop_depth); // identical sorted phase
    }

    #[test]
    fn random_cost_at_most_candidates_times_m_minus_1() {
        let cs = counted(sources());
        let run = fagin_min_run(&cs, 1).unwrap();
        let stats = total_stats(&cs);
        assert!(stats.random <= (run.candidates * (cs.len() - 1)) as u64);
    }

    #[test]
    fn threshold_is_least_matched_grade() {
        let run = fagin_min_run(&sources(), 1).unwrap();
        // Matched objects are 1 (min .5) and 2 (min .6) at depth 3; x₀ is
        // object 1 with grade .5 attained in list 1.
        assert_eq!(run.threshold, g(0.5));
        assert_eq!(run.pivot_list, 1);
    }

    #[test]
    fn rejects_invalid_k() {
        assert!(fagin_min_topk(&sources(), 0).is_err());
        assert!(fagin_min_topk(&sources(), 5).is_err());
    }

    #[test]
    fn three_lists() {
        let s = vec![
            MemorySource::from_grades(&[g(0.9), g(0.1), g(0.5), g(0.7), g(0.3)]),
            MemorySource::from_grades(&[g(0.2), g(0.8), g(0.4), g(0.6), g(1.0)]),
            MemorySource::from_grades(&[g(0.5), g(0.5), g(0.5), g(0.5), g(0.5)]),
        ];
        for k in 1..=5 {
            let fast = fagin_min_topk(&s, k).unwrap();
            let slow = naive_topk(&s, &min_agg(), k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }
}
