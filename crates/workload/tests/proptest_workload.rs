//! Property tests for the Section 5 combinatorial framework: skeletons,
//! intersection depths, scoring-database consistency — and the batched
//! engine's behaviour on skeleton-derived workloads.

use garlic_agg::iterated::min_agg;
use garlic_core::algorithms::fa::fagin_run;
use garlic_core::GradedSource;
use garlic_workload::distributions::{
    BoundedGrades, CrispGrades, GradeDistribution, QuantizedGrades, StridedGrades, UniformGrades,
};
use garlic_workload::perm::Permutation;
use garlic_workload::scoring::ScoringDatabase;
use garlic_workload::skeleton::Skeleton;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intersection_size_is_monotone_in_depth(m in 1usize..5, n in 1usize..60, seed in 0u64..500) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let s = Skeleton::random(m, n, &mut rng);
        let mut prev = 0;
        for t in 0..=n {
            let cur = s.intersection_size(t);
            prop_assert!(cur >= prev, "t = {t}");
            prev = cur;
        }
        prop_assert_eq!(s.intersection_size(n), n, "full depth matches everything");
    }

    #[test]
    fn matching_depth_is_least_witness(m in 1usize..4, n in 1usize..50, seed in 0u64..500) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let s = Skeleton::random(m, n, &mut rng);
        for k in [1, n / 2 + 1, n] {
            if k == 0 || k > n { continue; }
            let t = s.matching_depth(k);
            prop_assert!(s.intersection_size(t) >= k);
            if t > 0 {
                prop_assert!(s.intersection_size(t - 1) < k);
            }
        }
    }

    #[test]
    fn matching_depth_monotone_in_k(m in 1usize..4, n in 2usize..50, seed in 0u64..500) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let s = Skeleton::random(m, n, &mut rng);
        let mut prev = 0;
        for k in 1..=n {
            let t = s.matching_depth(k);
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn every_distribution_is_descending_and_in_range(n in 1usize..200, seed in 0u64..500) {
        let dists: Vec<Box<dyn GradeDistribution>> = vec![
            Box::new(UniformGrades),
            Box::new(BoundedGrades::new(0.9)),
            Box::new(CrispGrades::new(0.3)),
            Box::new(StridedGrades),
            Box::new(QuantizedGrades::new(5)),
        ];
        let mut rng = garlic_workload::seeded_rng(seed);
        for d in dists {
            let gs = d.descending_grades(n, &mut rng);
            prop_assert_eq!(gs.len(), n, "{}", d.name());
            prop_assert!(gs.windows(2).all(|w| w[0] >= w[1]), "{}", d.name());
        }
    }

    #[test]
    fn scoring_db_from_skeleton_is_consistent(m in 1usize..4, n in 1usize..40, seed in 0u64..500) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let s = Skeleton::random(m, n, &mut rng);
        let db = ScoringDatabase::from_skeleton(&s, &UniformGrades, &mut rng);
        prop_assert!(db.consistent_with(&s));
        prop_assert_eq!(db.to_sources().len(), m);
    }

    #[test]
    fn reversed_permutation_is_involutive(n in 1usize..100, seed in 0u64..500) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let p = Permutation::random(n, &mut rng);
        prop_assert_eq!(p.reversed().reversed(), p.clone());
        // Rank arithmetic: rank_rev(x) = n - 1 - rank(x).
        let fwd = p.ranks();
        let bwd = p.reversed().ranks();
        for x in 0..n {
            prop_assert_eq!(bwd[x], n - 1 - fwd[x]);
        }
    }

    #[test]
    fn hard_query_database_properties(n in 1usize..150, seed in 0u64..500) {
        use garlic_workload::correlation::{hard_query_database, is_complement_pair};
        let mut rng = garlic_workload::seeded_rng(seed);
        let db = hard_query_database(n, &mut rng);
        prop_assert_eq!(db.m(), 2);
        prop_assert_eq!(db.n(), n);
        prop_assert!(is_complement_pair(&db));
        // All grades distinct in list 0.
        let mut grades: Vec<_> = db.lists()[0].iter().map(|e| e.grade).collect();
        grades.dedup();
        prop_assert_eq!(grades.len(), n);
    }

    #[test]
    fn latent_database_shape(m in 2usize..5, n in 2usize..40, seed in 0u64..200,
                             rho in 0.0f64..=1.0) {
        use garlic_workload::correlation::latent_database;
        let mut rng = garlic_workload::seeded_rng(seed);
        let db = latent_database(m, n, rho, &mut rng);
        prop_assert_eq!(db.m(), m);
        prop_assert_eq!(db.n(), n);
    }

    #[test]
    fn engine_stop_depth_equals_skeleton_matching_depth(
        m in 1usize..4, n in 1usize..50, seed in 0u64..300, k_frac in 0.0f64..=1.0
    ) {
        // The batched engine's sorted phase must stop at exactly the
        // skeleton's combinatorial matching depth — the quantity every
        // Section 5/6 bound is stated over — never a batch beyond it.
        let mut rng = garlic_workload::seeded_rng(seed);
        let skeleton = Skeleton::random(m, n, &mut rng);
        let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
        prop_assert!(db.consistent_with(&skeleton));
        let k = ((k_frac * n as f64) as usize).clamp(1, n);

        let run = fagin_run(&db.to_sources(), &min_agg(), k).unwrap();
        prop_assert_eq!(run.stop_depth, skeleton.matching_depth(k));
        prop_assert!(run.matched >= k);
    }

    #[test]
    fn batched_cursors_replay_skeleton_order(
        m in 1usize..4, n in 1usize..50, seed in 0u64..300, batch in 1usize..8
    ) {
        // Batched streaming over scoring-database sources must walk each
        // list in its skeleton order, at any batch size.
        let mut rng = garlic_workload::seeded_rng(seed);
        let skeleton = Skeleton::random(m, n, &mut rng);
        let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
        for (i, source) in db.to_sources().iter().enumerate() {
            let mut streamed = Vec::new();
            while source.sorted_batch(streamed.len(), batch, &mut streamed) > 0 {}
            prop_assert_eq!(streamed.len(), n);
            for (rank, entry) in streamed.iter().enumerate() {
                prop_assert_eq!(entry.object, skeleton.list(i).object_at(rank), "list {i} rank {rank}");
                prop_assert_eq!(Some(*entry), source.sorted_access(rank));
            }
        }
    }
}
