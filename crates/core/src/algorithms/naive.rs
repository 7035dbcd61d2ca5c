//! The naive algorithm (Section 4): retrieve *every* object's grade from
//! *every* subsystem, aggregate, and sort.
//!
//! Its middleware cost is exactly `m·N` sorted accesses — linear in the
//! database size — which is the baseline both bounds of the paper are
//! measured against, and the optimum for the provably hard query of
//! Section 7.
//!
//! A thin shell over [`EngineSession::scan`]: the exhaustive scan is the
//! session's first page — one batched stream of every list to depth `N`,
//! folded into slab rows addressed by object id rather than hashed (see
//! the engine's module docs), after which every grade vector is complete
//! without any random access. (Lists over different objects leave a row
//! some list did not show; one probe per missing grade completes it.)

use garlic_agg::Aggregation;

use crate::access::GradedSource;
use crate::object::ObjectId;
use crate::topk::{validate_inputs, TopK, TopKError};

use super::engine::{Engine, EngineSession};

/// Evaluates `F_t(A_1, ..., A_m)` by exhaustively streaming every list
/// (steps 1–3 of the paper's naive algorithm) and returns the top `k`
/// answers.
pub fn naive_topk<S, A>(sources: &[S], agg: &A, k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
    A: Aggregation,
{
    validate_inputs(sources, k)?;
    EngineSession::scan(sources.iter().collect(), agg)?.next_batch(k)
}

/// The naive algorithm implemented with **zero sorted accesses**: probe
/// every object in every list by random access.
///
/// Theorem 6.6 (the sorted-access-cost lower bound) must exclude exactly
/// this algorithm — it has *no* sorted cost at all, at the price of a
/// linear (`m·N`) random cost — which is why that theorem is stated only
/// for algorithms whose unweighted cost stays below `N`.
///
/// The probes are one batched completion of objects `0..N` on a fresh
/// engine: one random-access batch per list.
pub fn naive_random_topk<S, A>(sources: &[S], agg: &A, k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
    A: Aggregation,
{
    let n = validate_inputs(sources, k)?;
    let objects = (0..n as u64).map(ObjectId);
    let mut engine = Engine::open(sources.iter().collect());
    engine.complete_grades(objects.clone())?;
    let scored = objects.map(|id| {
        let grades = engine.grade_slice(id).expect("completed above");
        (id, agg.combine(grades))
    });
    Ok(TopK::select(scored, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{counted, total_stats, MemorySource};
    use garlic_agg::iterated::{min_agg, product_agg};
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
    fn min_conjunction_hand_check() {
        // Overall min grades: obj0: .3, obj1: .5, obj2: .6, obj3: .4.
        let top = naive_topk(&sources(), &min_agg(), 2).unwrap();
        assert_eq!(top.objects(), vec![ObjectId(2), ObjectId(1)]);
        assert_eq!(top.grades(), vec![g(0.6), g(0.5)]);
    }

    #[test]
    fn product_conjunction_hand_check() {
        // Products: .3, .4, .42, .36 → top-1 is obj2.
        let top = naive_topk(&sources(), &product_agg(), 1).unwrap();
        assert_eq!(top.objects(), vec![ObjectId(2)]);
    }

    #[test]
    fn cost_is_exactly_m_times_n() {
        let cs = counted(sources());
        naive_topk(&cs, &min_agg(), 1).unwrap();
        let stats = total_stats(&cs);
        assert_eq!(stats.sorted, 2 * 4);
        assert_eq!(stats.random, 0);
    }

    #[test]
    fn naive_all_grades_everything() {
        // Remark 5.2's k = N: every object is graded and handed out.
        let all = naive_topk(&sources(), &min_agg(), 4).unwrap();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn random_only_variant_agrees_and_has_zero_sorted_cost() {
        let cs = counted(sources());
        let via_random = naive_random_topk(&cs, &min_agg(), 2).unwrap();
        let stats = total_stats(&cs);
        assert_eq!(
            stats.sorted, 0,
            "Theorem 6.6's escape hatch: no sorted access"
        );
        assert_eq!(stats.random, 2 * 4);

        let via_sorted = naive_topk(&sources(), &min_agg(), 2).unwrap();
        assert!(via_random.same_grades(&via_sorted, 0.0));
    }

    #[test]
    fn rejects_bad_k() {
        assert!(naive_topk(&sources(), &min_agg(), 0).is_err());
        assert!(naive_topk(&sources(), &min_agg(), 5).is_err());
    }
}
