//! Property tests for the Section 5 combinatorial framework: skeletons,
//! intersection depths, scoring-database consistency — and the batched
//! engine's behaviour on skeleton-derived workloads.

use garlic_agg::iterated::{max_agg, min_agg, product_agg};
use garlic_agg::means::ArithmeticMean;
use garlic_agg::weighted::FaginWimmers;
use garlic_agg::{Aggregation, Grade};
use garlic_core::algorithms::fa::fagin_run;
use garlic_core::{EngineSession, GradedSource, ObjectId};
use garlic_workload::distributions::{
    BoundedGrades, CrispGrades, GradeDistribution, QuantizedGrades, StridedGrades, UniformGrades,
};
use garlic_workload::lemma51::Lemma51Params;
use garlic_workload::perm::Permutation;
use garlic_workload::scoring::ScoringDatabase;
use garlic_workload::skeleton::Skeleton;
use proptest::prelude::*;
use rand::seq::SliceRandom;

/// Every grade distribution of the crate: ties (crisp, quantised),
/// bounded, strided and continuous.
fn distributions() -> Vec<Box<dyn GradeDistribution>> {
    vec![
        Box::new(UniformGrades),
        Box::new(BoundedGrades::new(0.9)),
        Box::new(CrispGrades::new(0.3)),
        Box::new(StridedGrades),
        Box::new(QuantizedGrades::new(5)),
    ]
}

/// `min(g₀, max(g₁, …))`: the compound `Fi AND (Fj OR Fk)` shape at m = 3.
struct MinOfMax;

impl Aggregation for MinOfMax {
    fn name(&self) -> String {
        "min(a, max(b, ...))".into()
    }
    fn combine(&self, grades: &[Grade]) -> Grade {
        match grades {
            [a, rest @ ..] => rest.iter().max().map_or(*a, |b| (*a).min(*b)),
            [] => panic!("no grades"),
        }
    }
    fn is_strict(&self, _arity: usize) -> bool {
        false
    }
}

/// Lemma 5.1's setting pushed to its bad event: list 0 ranks `B1 = {0, …,
/// l1 − 1}` first, and list 1's top `l2` holds only `a = ⌊M/2⌋` members of
/// `B1` — the tail `|B1 ∩ B2| ≤ M/2` the lemma bounds — the rest of both
/// lists in random order.
fn lemma51_database(
    p: Lemma51Params,
    dist: &dyn GradeDistribution,
    rng: &mut rand::rngs::StdRng,
) -> ScoringDatabase {
    let ids = |range: std::ops::Range<usize>| -> Vec<ObjectId> {
        range.map(|x| ObjectId(x as u64)).collect()
    };
    let (mut inside, mut outside) = (ids(0..p.l1), ids(p.l1..p.n));
    inside.shuffle(rng);
    outside.shuffle(rng);
    let a = p.a().min(p.l1).max(p.l2.saturating_sub(outside.len()));
    let from_outside = p.l2 - a;
    let mut order: Vec<ObjectId> = inside[..a].to_vec();
    order.extend_from_slice(&outside[..from_outside]);
    let mut rest: Vec<ObjectId> = inside[a..]
        .iter()
        .chain(&outside[from_outside..])
        .copied()
        .collect();
    rest.shuffle(rng);
    order.extend(rest);
    let skeleton = Skeleton::new(vec![
        Permutation::identity(p.n),
        Permutation::from_order(order),
    ]);
    ScoringDatabase::from_skeleton(&skeleton, dist, rng)
}

/// On `db`, for k = 1, N/2 and N and a spread of monotone aggregations,
/// the threshold rule's first page is A₀'s, at no more sorted accesses and
/// no more accesses in all: its worst case is no worse than A₀'s.
fn assert_threshold_never_worse_than_a0(db: &ScoringDatabase) {
    let (m, n) = (db.m(), db.n());
    let weights: Vec<f64> = (1..=m).map(|i| i as f64).collect();
    let aggs: Vec<Box<dyn Aggregation>> = vec![
        Box::new(min_agg()),
        Box::new(max_agg()),
        Box::new(ArithmeticMean),
        Box::new(product_agg()),
        Box::new(MinOfMax),
        Box::new(FaginWimmers::new(min_agg(), &weights)),
    ];
    for agg in &aggs {
        for k in [1, n.div_ceil(2), n] {
            let mut a0 = EngineSession::new(db.to_sources(), agg).unwrap();
            let mut rule = EngineSession::threshold(db.to_sources(), agg).unwrap();
            let (want, got) = (a0.next_batch(k).unwrap(), rule.next_batch(k).unwrap());
            let (a0, rule) = (a0.stats(), rule.stats());
            let label = format!("{} m={m} n={n} k={k}: {rule:?} vs A₀ {a0:?}", agg.name());
            assert_eq!(got.entries(), want.entries(), "{label}");
            assert!(rule.sorted <= a0.sorted, "{label}");
            assert!(rule.unweighted() <= a0.unweighted(), "{label}");
        }
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn threshold_is_never_worse_than_a0_on_skeleton_databases(
        m in 1usize..5, n in 1usize..50, seed in 0u64..300
    ) {
        let mut rng = garlic_workload::seeded_rng(seed);
        for dist in distributions() {
            let skeleton = Skeleton::random(m, n, &mut rng);
            assert_threshold_never_worse_than_a0(&ScoringDatabase::from_skeleton(
                &skeleton,
                dist.as_ref(),
                &mut rng,
            ));
        }
    }

    #[test]
    fn threshold_is_never_worse_than_a0_on_lemma51_and_correlated_databases(
        n in 10usize..80, l1_frac in 0.0f64..=0.1, l2_frac in 0.0f64..=1.0, seed in 0u64..300
    ) {
        use garlic_workload::correlation::{hard_query_database, latent_database};
        let mut rng = garlic_workload::seeded_rng(seed);
        let l1 = ((l1_frac * n as f64) as usize).max(1);
        let l2 = ((l2_frac * n as f64) as usize).max(1);
        let p = Lemma51Params::new(n, l1, l2);
        for dist in distributions() {
            assert_threshold_never_worse_than_a0(&lemma51_database(p, dist.as_ref(), &mut rng));
        }
        // Section 7's complement pair (A₀ is Θ(N) under min) and latent
        // rank correlation from perfectly anti-correlated to identical.
        assert_threshold_never_worse_than_a0(&hard_query_database(n, &mut rng));
        for rho in [-1.0, -0.5, 0.0, 0.5, 1.0] {
            assert_threshold_never_worse_than_a0(&latent_database(2, n, rho, &mut rng));
        }
    }
}
