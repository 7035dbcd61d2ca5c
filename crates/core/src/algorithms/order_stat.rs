//! The order-statistic (median) algorithm of Remark 6.1.
//!
//! The median is monotone but **not strict**, so the Section 6 lower bound
//! does not protect it — and indeed it can be evaluated in `O(√(Nk))`.
//! The paper's algorithm for `median(μ_{A₁}, μ_{A₂}, μ_{A₃})` exploits
//! identity (13): `median(a₁,a₂,a₃) = max{min(a₁,a₂), min(a₁,a₃),
//! min(a₂,a₃)}` — run algorithm A₀′ on every *pair* of lists, pool the three
//! answer sets, and output the `k` pooled objects with the best median
//! scores.
//!
//! The same identity generalises to any order statistic: the j-th largest of
//! m grades is the maximum over all j-element subsets of the minimum within
//! the subset (see `garlic_agg::order_stat`). This module implements that
//! generalisation; the subset count `C(m, j)` is a constant for fixed `m`,
//! preserving the `O(√(Nk))`-style cost. Experiment E08 measures it.

use garlic_agg::order_stat::{subsets_of_size, KthLargest};
use garlic_agg::Aggregation;
use std::collections::BTreeSet;

use crate::access::GradedSource;
use crate::cost::AccessStats;
use crate::object::ObjectId;
use crate::topk::{validate_inputs, TopK, TopKError};

use super::engine::Engine;
use super::fa_min::fagin_min_run;

/// The answers of one [`order_statistic_run`] and its Section 5 bill.
#[derive(Debug, Clone)]
pub struct OrderStatRun {
    /// The top-k answers.
    pub topk: TopK,
    /// Every subset's A₀′ bill plus the pooled completion's, as the
    /// engine metered them.
    pub stats: AccessStats,
}

/// Finds the top-k answers under the *j-th largest* aggregation (1-based)
/// by the subset decomposition of Remark 6.1.
///
/// `j = m` degenerates to A₀′ itself; `j = 1` (max) is better served by
/// [`super::b0_max::b0_max_topk`] but is still handled correctly here.
pub fn order_statistic_topk<S>(sources: &[S], j: usize, k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
{
    order_statistic_run(sources, j, k).map(|run| run.topk)
}

/// [`order_statistic_topk`] with the run's bill.
pub fn order_statistic_run<S>(sources: &[S], j: usize, k: usize) -> Result<OrderStatRun, TopKError>
where
    S: GradedSource,
{
    validate_inputs(sources, k)?;
    let m = sources.len();
    if j == 0 || j > m {
        return Err(TopKError::UnsupportedAggregation {
            reason: "order statistic index must satisfy 1 <= j <= m",
        });
    }

    // Step 1-3 (generalised): for every j-subset of the lists, find the
    // top-k under min over that subset, via algorithm A₀′.
    let mut pooled: BTreeSet<ObjectId> = BTreeSet::new();
    let mut stats = AccessStats::ZERO;
    for subset in subsets_of_size(m, j) {
        let view: Vec<&S> = subset.iter().map(|&i| &sources[i]).collect();
        let run = fagin_min_run(&view, k)?;
        pooled.extend(run.topk.objects());
        stats += run.stats;
    }

    // Step 4: grade every pooled candidate under the true order statistic
    // and keep the best k. One batched completion on a fresh engine: m
    // random accesses per candidate, in ascending id order, whatever the
    // subset runs already saw.
    let mut engine = Engine::open(sources.iter().collect());
    engine.complete_grades(pooled.iter().copied())?;
    let agg = KthLargest::new(j);
    let scored = pooled.into_iter().map(|id| {
        let grades = engine.grade_slice(id).expect("completed above");
        (id, agg.combine(grades))
    });
    Ok(OrderStatRun {
        topk: TopK::select(scored, k),
        stats: stats + engine.stats(),
    })
}

/// The paper's median query: the ⌈m/2⌉-th largest grade (for odd `m` the
/// textbook median; identical to `garlic_agg::means::MedianAgg`).
pub fn median_topk<S>(sources: &[S], k: usize) -> Result<TopK, TopKError>
where
    S: GradedSource,
{
    let m = sources.len();
    if m == 0 {
        return Err(TopKError::NoSources);
    }
    order_statistic_topk(sources, m / 2 + 1, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemorySource;
    use crate::algorithms::b0_max::b0_max_topk;
    use crate::algorithms::naive::naive_topk;
    use garlic_agg::means::MedianAgg;
    use garlic_agg::Grade;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn three_sources() -> Vec<MemorySource> {
        vec![
            MemorySource::from_grades(&[g(0.9), g(0.1), g(0.5), g(0.7), g(0.3), g(0.6)]),
            MemorySource::from_grades(&[g(0.2), g(0.8), g(0.4), g(0.6), g(1.0), g(0.1)]),
            MemorySource::from_grades(&[g(0.5), g(0.6), g(0.9), g(0.2), g(0.4), g(0.8)]),
        ]
    }

    #[test]
    fn median_agrees_with_naive() {
        let s = three_sources();
        for k in 1..=6 {
            let fast = median_topk(&s, k).unwrap();
            let slow = naive_topk(&s, &MedianAgg, k).unwrap();
            assert!(fast.same_grades(&slow, 0.0), "k = {k}");
        }
    }

    #[test]
    fn every_order_statistic_agrees_with_naive() {
        let s = three_sources();
        for j in 1..=3 {
            for k in 1..=4 {
                let fast = order_statistic_topk(&s, j, k).unwrap();
                let slow = naive_topk(&s, &KthLargest::new(j), k).unwrap();
                assert!(fast.same_grades(&slow, 0.0), "j = {j}, k = {k}");
            }
        }
    }

    #[test]
    fn j_equals_one_matches_b0() {
        let s = three_sources();
        let via_subsets = order_statistic_topk(&s, 1, 2).unwrap();
        let via_b0 = b0_max_topk(&s, 2).unwrap();
        assert!(via_subsets.same_grades(&via_b0, 0.0));
    }

    #[test]
    fn rejects_bad_j() {
        let s = three_sources();
        assert!(order_statistic_topk(&s, 0, 1).is_err());
        assert!(order_statistic_topk(&s, 4, 1).is_err());
    }

    #[test]
    fn median_cost_stays_sublinear_shaped() {
        // Not a scaling test (that is experiment E08) — just checks the
        // algorithm does not silently degenerate to a full scan on a
        // database where the naive cost would be 3·N = 300.
        let n = 100;
        let lists: Vec<MemorySource> = (0..3)
            .map(|list: usize| {
                MemorySource::from_grades(
                    &(0..n)
                        .map(|i: usize| {
                            Grade::clamped(((i * 37 + list * 11) % n) as f64 / (n - 1) as f64)
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let stats = order_statistic_run(&lists, 2, 1).unwrap().stats;
        assert!(
            stats.unweighted() < 300,
            "median algorithm did as much work as the naive scan: {stats}"
        );
    }
}
