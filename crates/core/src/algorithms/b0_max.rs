//! Algorithm B₀ — the disjunction algorithm (Section 4, Theorem 4.5).
//!
//! For the standard fuzzy disjunction (`t = max`) the top-k answers can be
//! found with **no random access at all**: take the top `k` of every list,
//! score each seen object by the best grade any list showed for it, and
//! output the `k` best. The middleware cost is exactly `m·k` sorted
//! accesses, *independent of the database size `N`* — which is why max
//! (being non-strict) escapes the Ω(N^((m-1)/m) k^(1/m)) lower bound
//! (Remark 6.1); experiment E07 measures this.
//!
//! B₀ is a rule of the one engine session, not a session of its own: this
//! module is a thin shell over [`EngineSession::max`], whose first page is
//! the top-`k`-of-every-list phase — one batched stream to depth `k`, each
//! seen object scored by the best grade any list showed for it. Later
//! pages deepen the same prefixes.

use garlic_agg::iterated::IteratedTCoNorm;
use garlic_agg::tconorms::Maximum;

use crate::access::GradedSource;
use crate::topk::{validate_inputs, TopK, TopKError};

use super::engine::EngineSession;

/// Runs algorithm B₀ for the standard fuzzy disjunction
/// `A₁ ∨ ... ∨ A_m` (aggregation fixed to max).
///
/// The reported grades are the true overall grades: if a winner's true
/// maximum were attained only in a list where it missed the top `k`, then
/// that list alone would contain `k` objects strictly beating it — a
/// contradiction with it being selected.
pub fn b0_max_topk<S>(sources: &[S], k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
{
    validate_inputs(sources, k)?;
    EngineSession::<_, IteratedTCoNorm<Maximum>>::max(sources.iter().collect())?.next_batch(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, total_stats, MemorySource};
    use crate::algorithms::naive::naive_topk;
    use crate::object::ObjectId;
    use garlic_agg::iterated::max_agg;
    use garlic_agg::Grade;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn sources() -> Vec<MemorySource> {
        vec![
            MemorySource::from_grades(&[g(1.0), g(0.8), g(0.6), g(0.4), g(0.1)]),
            MemorySource::from_grades(&[g(0.3), g(0.5), g(0.7), g(0.9), g(0.2)]),
        ]
    }

    #[test]
    fn agrees_with_naive() {
        for k in 1..=5 {
            let fast = b0_max_topk(&sources(), k).unwrap();
            let slow = naive_topk(&sources(), &max_agg(), k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }

    #[test]
    fn cost_is_mk_with_no_random_access() {
        let cs = counted(sources());
        b0_max_topk(&cs, 2).unwrap();
        let stats = total_stats(&cs);
        assert_eq!(stats.sorted, 2 * 2);
        assert_eq!(stats.random, 0);
    }

    #[test]
    fn cost_independent_of_database_size() {
        // Same k over a 5-object and a 1000-object database: identical cost.
        let big: Vec<MemorySource> = (0..2)
            .map(|list| {
                MemorySource::from_grades(
                    &(0..1000)
                        .map(|i| Grade::clamped(((i * 7 + list * 13) % 1000) as f64 / 999.0))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let small = counted(sources());
        let large = counted(big);
        b0_max_topk(&small, 3).unwrap();
        b0_max_topk(&large, 3).unwrap();
        assert_eq!(total_stats(&small), total_stats(&large));
    }

    #[test]
    fn reported_grades_are_true_maxima() {
        // Object 3: grades (0.4, 0.9) → max 0.9 must be reported even though
        // list 0 would only show 0.4.
        let top = b0_max_topk(&sources(), 1).unwrap();
        assert_eq!(top.best().unwrap().object, ObjectId(0)); // max(1.0, .3)
        assert_eq!(top.best().unwrap().grade, g(1.0));
        let top2 = b0_max_topk(&sources(), 2).unwrap();
        assert_eq!(top2.grades(), vec![g(1.0), g(0.9)]);
    }

    #[test]
    fn rejects_invalid_k() {
        assert!(b0_max_topk(&sources(), 0).is_err());
        assert!(b0_max_topk(&sources(), 6).is_err());
    }
}
