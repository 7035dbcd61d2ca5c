//! Property tests for the Section 3 algebra on *random* points (the unit
//! tests check dense grids; these hammer arbitrary floats, where the
//! rational norms' rounding behaviour lives).

use garlic_agg::duality::DualCoNorm;
use garlic_agg::iterated::{all_iterated_tnorms, min_agg, IteratedTNorm};
use garlic_agg::negation::StandardNegation;
use garlic_agg::tconorms::all_tconorms;
use garlic_agg::tnorms::{all_tnorms, DrasticProduct, Minimum};
use garlic_agg::weighted::FaginWimmers;
use garlic_agg::{Aggregation, Grade, Negation, TNorm};
use proptest::prelude::*;

fn grade() -> impl Strategy<Value = Grade> {
    (0.0f64..=1.0).prop_map(Grade::clamped)
}

const EPS: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tnorm_axioms_at_random_points(x in grade(), y in grade(), z in grade()) {
        for t in all_tnorms() {
            // Commutativity.
            prop_assert!(t.t(x, y).approx_eq(t.t(y, x), EPS), "{}", t.name());
            // Associativity.
            prop_assert!(
                t.t(t.t(x, y), z).approx_eq(t.t(x, t.t(y, z)), EPS),
                "{}", t.name()
            );
            // Conservation at the unit.
            prop_assert!(t.t(x, Grade::ONE).approx_eq(x, EPS), "{}", t.name());
            // The \[DP80\] sandwich (strictness follows from it).
            let v = t.t(x, y).value();
            prop_assert!(
                DrasticProduct.t(x, y).value() - EPS <= v
                    && v <= Minimum.t(x, y).value() + EPS,
                "{}", t.name()
            );
        }
    }

    /// `combine_reusing` must be *exactly* `combine` for every
    /// aggregation that overrides it — the zero-alloc scoring path may
    /// never change a grade, and a dirty scratch buffer may never leak
    /// state between calls.
    #[test]
    fn combine_reusing_is_bit_identical_to_combine(
        grades in proptest::collection::vec((0.0f64..=1.0).prop_map(Grade::clamped), 1..9),
        junk in proptest::collection::vec((0.0f64..=1.0).prop_map(Grade::clamped), 0..9),
    ) {
        let m = grades.len();
        let mut aggs: Vec<Box<dyn Aggregation>> = vec![
            Box::new(min_agg()),
            Box::new(garlic_agg::means::ArithmeticMean),
            Box::new(garlic_agg::means::MedianAgg),
            Box::new(garlic_agg::order_stat::KthLargest::new(1)),
            Box::new(garlic_agg::order_stat::KthLargest::new(m)),
            Box::new(garlic_agg::order_stat::KthLargest::median_for_arity(m)),
            Box::new(FaginWimmers::new(min_agg(), &vec![1.0; m])),
            Box::new(FaginWimmers::new(
                min_agg(),
                &(0..m).map(|i| (i + 1) as f64).collect::<Vec<_>>(),
            )),
        ];
        if m >= 3 {
            aggs.push(Box::new(garlic_agg::means::GymnasticsTrimmedMean));
        }
        // Deliberately dirty scratch: leftover junk must not matter.
        let mut scratch = junk;
        for agg in &aggs {
            let plain = agg.combine(&grades);
            let reused = agg.combine_reusing(&grades, &mut scratch);
            prop_assert_eq!(plain, reused, "{}", agg.name());
            // And again, with whatever the previous call left behind.
            prop_assert_eq!(plain, agg.combine_reusing(&grades, &mut scratch), "{}", agg.name());
        }
    }

    #[test]
    fn tconorm_axioms_at_random_points(x in grade(), y in grade(), z in grade()) {
        for s in all_tconorms() {
            prop_assert!(s.s(x, y).approx_eq(s.s(y, x), EPS), "{}", s.name());
            prop_assert!(
                s.s(s.s(x, y), z).approx_eq(s.s(x, s.s(y, z)), EPS),
                "{}", s.name()
            );
            prop_assert!(s.s(x, Grade::ZERO).approx_eq(x, EPS), "{}", s.name());
        }
    }

    #[test]
    fn norms_monotone_at_random_points(x in grade(), y in grade(), x2 in grade()) {
        let (lo, hi) = if x <= x2 { (x, x2) } else { (x2, x) };
        for t in all_tnorms() {
            prop_assert!(
                t.t(lo, y).value() <= t.t(hi, y).value() + EPS,
                "{}", t.name()
            );
        }
        for s in all_tconorms() {
            prop_assert!(
                s.s(lo, y).value() <= s.s(hi, y).value() + EPS,
                "{}", s.name()
            );
        }
    }

    #[test]
    fn paper_duality_pairs_at_random_points(x in grade(), y in grade()) {
        // s(x, y) = 1 - t(1-x, 1-y) for every named pair \[Al85\].
        let pairs = all_tnorms().into_iter().zip(all_tconorms());
        for (t, s) in pairs {
            let dual = DualCoNorm::standard(&*t);
            use garlic_agg::TCoNorm;
            prop_assert!(
                s.s(x, y).approx_eq(dual.s(x, y), EPS),
                "{} vs dual of {}", s.name(), t.name()
            );
        }
    }

    #[test]
    fn negations_are_involutive_and_antitone(x in grade(), y in grade()) {
        let n = StandardNegation;
        prop_assert!(n.negate(n.negate(x)).approx_eq(x, 1e-6));
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(n.negate(hi).value() <= n.negate(lo).value() + EPS);
    }

    #[test]
    fn iterated_tnorms_bounded_by_min_of_args(
        gs in proptest::collection::vec(grade(), 1..6)
    ) {
        let least = gs.iter().copied().min().unwrap();
        for agg in all_iterated_tnorms() {
            let v = agg.combine(&gs);
            prop_assert!(v.value() <= least.value() + EPS, "{}", agg.name());
        }
    }

    #[test]
    fn fagin_wimmers_is_bounded_by_best_and_worst(
        gs in proptest::collection::vec(grade(), 1..5),
        ws in proptest::collection::vec(0.01f64..5.0, 5)
    ) {
        // With base = min: min(all) <= W <= max single argument (W is a
        // convex combination of prefix minima).
        let m = gs.len();
        let agg = FaginWimmers::new(min_agg(), &ws[..m]);
        let v = agg.combine(&gs).value();
        let lo = gs.iter().copied().min().unwrap().value();
        let hi = gs.iter().copied().max().unwrap().value();
        prop_assert!(lo - EPS <= v && v <= hi + EPS);
    }

    #[test]
    fn fagin_wimmers_equal_weights_recover_base(
        gs in proptest::collection::vec(grade(), 1..5)
    ) {
        let m = gs.len();
        let agg = FaginWimmers::new(min_agg(), &vec![1.0; m]);
        prop_assert!(agg.combine(&gs).approx_eq(min_agg().combine(&gs), EPS));
    }

    #[test]
    fn iterated_agrees_with_pairwise_fold(x in grade(), y in grade(), z in grade()) {
        // The m-ary iterated norm is literally t(t(x, y), z) — Section 3's
        // construction.
        for t in all_tnorms() {
            let folded = t.t(t.t(x, y), z);
            let via_agg = IteratedTNorm(&*t).combine(&[x, y, z]);
            prop_assert!(folded.approx_eq(via_agg, EPS), "{}", t.name());
        }
    }
}
