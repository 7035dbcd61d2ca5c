//! The central correctness property: every specialised algorithm returns
//! the same top-k *grade sequence* as the naive reference evaluation, on
//! arbitrary randomized workloads (Theorems 4.2, 4.4, 4.5; Remark 6.1;
//! Section 9).
//!
//! Object sets may differ under ties — the paper's definition of "the top k
//! answers" allows that — so comparisons are on grades, which are unique.

mod support;

use garlic::agg::iterated::{max_agg, min_agg};
use garlic::agg::means::MedianAgg;
use garlic::agg::order_stat::KthLargest;
use garlic::agg::Aggregation;
use garlic::core::access::MemorySource;
use garlic::core::algorithms::b0_max::b0_max_topk;
use garlic::core::algorithms::fa::{fagin_run, fagin_shrunk_run, fagin_topk};
use garlic::core::algorithms::fa_min::fagin_min_topk;
use garlic::core::algorithms::naive::naive_topk;
use garlic::core::algorithms::order_stat::{median_topk, order_statistic_topk};
use garlic::core::algorithms::ullman::{ullman_run, ullman_top1, ullman_topk};
use garlic::core::GradedSource;
use garlic::Grade;
use proptest::prelude::*;
use support::db_strategy;

fn to_sources(db: &[Vec<Grade>]) -> Vec<MemorySource> {
    db.iter().map(|g| MemorySource::from_grades(g)).collect()
}

fn assert_matches_naive<A: Aggregation>(db: &[Vec<Grade>], agg: &A, k: usize, what: &str) {
    let sources = to_sources(db);
    let naive = naive_topk(&sources, agg, k).unwrap();
    let fast = fagin_topk(&sources, agg, k).unwrap();
    assert!(
        fast.same_grades(&naive, 1e-12),
        "{what}: A0 {:?} != naive {:?}",
        fast.grades(),
        naive.grades()
    );
}

/// Section 9's top-k rule in its plainest form: after every probe, count
/// the seen objects at or above the current list-1 grade; stop at `k`.
/// Returns how many objects were probed.
fn ullman_reference_probes(sources: &[MemorySource], k: usize) -> usize {
    let mut seen = Vec::new();
    for rank in 0..sources[0].len() {
        let entry = sources[0].sorted_access(rank).unwrap();
        seen.push(
            entry
                .grade
                .min(sources[1].random_access(entry.object).unwrap()),
        );
        if seen.iter().filter(|&&g| g >= entry.grade).count() >= k {
            break;
        }
    }
    seen.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fa_matches_naive_for_min(db in db_strategy(4, 40), k_seed in 1usize..40) {
        let n = db[0].len();
        let k = 1 + k_seed % n;
        assert_matches_naive(&db, &min_agg(), k, "min");
    }

    #[test]
    fn fa_matches_naive_for_every_tnorm(db in db_strategy(3, 24), k_seed in 1usize..24) {
        let n = db[0].len();
        let k = 1 + k_seed % n;
        for agg in garlic::agg::iterated::all_iterated_tnorms() {
            assert_matches_naive(&db, &agg, k, &agg.name());
        }
    }

    #[test]
    fn fa_matches_naive_for_means_and_order_stats(db in db_strategy(3, 24), k_seed in 1usize..24) {
        let n = db[0].len();
        let m = db.len();
        let k = 1 + k_seed % n;
        assert_matches_naive(&db, &garlic::agg::means::ArithmeticMean, k, "arithmetic mean");
        assert_matches_naive(&db, &garlic::agg::means::GeometricMean, k, "geometric mean");
        assert_matches_naive(&db, &MedianAgg, k, "median");
        for j in 1..=m {
            assert_matches_naive(&db, &KthLargest::new(j), k, "kth largest");
        }
    }

    #[test]
    fn fa_shrink_variant_matches_plain(db in db_strategy(4, 40), k_seed in 1usize..40) {
        let n = db[0].len();
        let k = 1 + k_seed % n;
        let sources = to_sources(&db);
        let plain = fagin_run(&sources, &min_agg(), k).unwrap();
        let shrunk = fagin_shrunk_run(&sources, &min_agg(), k).unwrap();
        prop_assert!(shrunk.topk.same_grades(&plain.topk, 1e-12));
        prop_assert!(shrunk.candidates <= plain.candidates);
    }

    #[test]
    fn fa_min_matches_naive(db in db_strategy(4, 40), k_seed in 1usize..40) {
        let n = db[0].len();
        let k = 1 + k_seed % n;
        let sources = to_sources(&db);
        let fast = fagin_min_topk(&sources, k).unwrap();
        let slow = naive_topk(&sources, &min_agg(), k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12));
    }

    #[test]
    fn b0_matches_naive_for_max(db in db_strategy(4, 40), k_seed in 1usize..40) {
        let n = db[0].len();
        let k = 1 + k_seed % n;
        let sources = to_sources(&db);
        let fast = b0_max_topk(&sources, k).unwrap();
        let slow = naive_topk(&sources, &max_agg(), k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12));
    }

    #[test]
    fn median_algorithm_matches_naive(db in db_strategy(3, 20), k_seed in 1usize..20) {
        let n = db[0].len();
        let k = 1 + k_seed % n;
        let sources = to_sources(&db);
        let fast = median_topk(&sources, k).unwrap();
        let slow = naive_topk(&sources, &MedianAgg, k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12));
    }

    #[test]
    fn order_statistics_match_naive(db in db_strategy(4, 16), k_seed in 1usize..16) {
        let n = db[0].len();
        let m = db.len();
        let k = 1 + k_seed % n;
        let sources = to_sources(&db);
        for j in 1..=m {
            let fast = order_statistic_topk(&sources, j, k).unwrap();
            let slow = naive_topk(&sources, &KthLargest::new(j), k).unwrap();
            prop_assert!(fast.same_grades(&slow, 1e-12), "j = {j}");
        }
    }

    #[test]
    fn ullman_matches_naive(db in db_strategy(2, 40), k_seed in 1usize..40) {
        prop_assume!(db.len() == 2);
        let n = db[0].len();
        let k = 1 + k_seed % n;
        let sources = to_sources(&db);
        let top1 = ullman_top1(&sources).unwrap();
        let slow1 = naive_topk(&sources, &min_agg(), 1).unwrap();
        prop_assert!(top1.same_grades(&slow1, 1e-12));

        let fast = ullman_topk(&sources, k).unwrap();
        let slow = naive_topk(&sources, &min_agg(), k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12));
        prop_assert_eq!(ullman_run(&sources, k).unwrap().probes, ullman_reference_probes(&sources, k));
    }

    #[test]
    fn weighted_conjunction_matches_naive(db in db_strategy(3, 20), k_seed in 1usize..20,
                                          w in proptest::collection::vec(0.01f64..10.0, 3)) {
        let n = db[0].len();
        let m = db.len();
        let k = 1 + k_seed % n;
        let agg = garlic::agg::weighted::FaginWimmers::new(min_agg(), &w[..m]);
        assert_matches_naive(&db, &agg, k, "fagin-wimmers weighted");
    }

    /// Correctness is correlation-independent (only the *cost* analysis of
    /// §5 assumes independence): FA must agree with naive on positively and
    /// negatively correlated lists, and on the §7 hard instance.
    #[test]
    fn fa_matches_naive_on_correlated_workloads(seed in 0u64..2000, k in 1usize..20,
                                                rho_idx in 0usize..5) {
        let rho = [-1.0, -0.5, 0.0, 0.5, 1.0][rho_idx];
        let mut rng = garlic::workload::seeded_rng(seed);
        let db = garlic::workload::correlation::latent_database(2, 40, rho, &mut rng);
        let sources = db.to_sources();
        let fast = fagin_topk(&sources, &min_agg(), k).unwrap();
        let slow = naive_topk(&sources, &min_agg(), k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12), "rho = {rho}");
    }

    #[test]
    fn fa_matches_naive_on_hard_instances(seed in 0u64..2000, k in 1usize..10) {
        let mut rng = garlic::workload::seeded_rng(seed);
        let db = garlic::workload::correlation::hard_query_database(25, &mut rng);
        let sources = db.to_sources();
        let fast = fagin_topk(&sources, &min_agg(), k).unwrap();
        let slow = naive_topk(&sources, &min_agg(), k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12));
    }

    /// The complement adapter composes with FA on arbitrary databases:
    /// A ∧ ¬B via ComplementSource equals the naive evaluation of
    /// min(a, 1−b).
    #[test]
    fn complement_composes_with_fa(db in db_strategy(2, 30), k_seed in 1usize..30) {
        prop_assume!(db.len() == 2);
        let n = db[0].len();
        let k = 1 + k_seed % n;
        use garlic::core::complement::ComplementSource;
        let a = MemorySource::from_grades(&db[0]);
        let b = MemorySource::from_grades(&db[1]);
        let pair: Vec<Box<dyn GradedSource>> =
            vec![Box::new(a), Box::new(ComplementSource::new(MemorySource::from_grades(&db[1])))];
        let fast = fagin_topk(&pair, &min_agg(), k).unwrap();

        // Reference: complement grades by hand.
        let complemented: Vec<garlic::Grade> =
            db[1].iter().map(|g| g.complement()).collect();
        let reference_sources = vec![
            MemorySource::from_grades(&db[0]),
            MemorySource::from_grades(&complemented),
        ];
        let slow = naive_topk(&reference_sources, &min_agg(), k).unwrap();
        prop_assert!(fast.same_grades(&slow, 1e-12));
        let _ = b;
    }
}
