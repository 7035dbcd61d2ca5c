//! Property tests over randomly generated subsystem contents: every source
//! any subsystem produces must be a lawful graded set.

use garlic_core::GradedSource;
use garlic_subsys::{AtomicQuery, QbicStore, RelationalStore, Subsystem, Target, TextStore, Value};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relational_predicate_grades_are_crisp_and_complete(
        artists in proptest::collection::vec(0u8..4, 1..30),
        probe in 0u8..4,
    ) {
        let names = ["Beatles", "Kinks", "Who", "Zombies"];
        let mut store = RelationalStore::new("rel", &["Artist"]);
        for &a in &artists {
            store.insert(vec![Value::text(names[a as usize])]);
        }
        let q = AtomicQuery::new("Artist", Target::text(names[probe as usize]));
        let src = store.evaluate(&q).unwrap();
        prop_assert_eq!(src.len(), artists.len());

        let expected_matches = artists.iter().filter(|&&a| a == probe).count();
        let mut ones = 0;
        for rank in 0..src.len() {
            let e = src.sorted_access(rank).unwrap();
            prop_assert!(e.grade.is_crisp());
            if e.grade == garlic_agg::Grade::ONE {
                ones += 1;
            }
        }
        prop_assert_eq!(ones, expected_matches);
        prop_assert_eq!(
            store.estimate_matches(&q),
            Some(expected_matches)
        );
    }

    #[test]
    fn qbic_similarities_are_valid_and_order_consistently(n in 1usize..60, seed in 0u64..300) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let store = QbicStore::synthetic("q", n, &mut rng);
        for (attr, name) in [("Color", "green"), ("Shape", "oval"), ("Texture", "woven")] {
            let src = store.evaluate(&AtomicQuery::new(attr, Target::text(name))).unwrap();
            prop_assert_eq!(src.len(), n);
            let mut prev = garlic_agg::Grade::ONE;
            for rank in 0..n {
                let e = src.sorted_access(rank).unwrap();
                prop_assert!(e.grade <= prev, "{attr} not descending");
                prev = e.grade;
                // Random access must agree.
                prop_assert_eq!(src.random_access(e.object), Some(e.grade));
            }
        }
    }

    #[test]
    fn qbic_internal_conjunction_bounded_by_atomic_grades(n in 1usize..40, seed in 0u64..300) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let store = QbicStore::synthetic("q", n, &mut rng);
        let qs = [
            AtomicQuery::new("Color", Target::text("red")),
            AtomicQuery::new("Texture", Target::text("rough")),
        ];
        let fused = store.evaluate_internal_conjunction(&qs).unwrap();
        let a = store.evaluate(&qs[0]).unwrap();
        let b = store.evaluate(&qs[1]).unwrap();
        for x in 0..n as u64 {
            let id = garlic_core::ObjectId(x);
            let f = fused.random_access(id).unwrap();
            // Product is below both factors (and below min) — the §8
            // semantics divergence is one-sided.
            prop_assert!(f <= a.random_access(id).unwrap());
            prop_assert!(f <= b.random_access(id).unwrap());
        }
    }

    #[test]
    fn text_scores_are_grades_and_empty_query_is_rejected_gracefully(
        n in 1usize..40, vocab in 5usize..40, seed in 0u64..300
    ) {
        let mut rng = garlic_workload::seeded_rng(seed);
        let store = TextStore::synthetic("t", "Body", n, vocab, 12, &mut rng);
        let src = store
            .evaluate(&AtomicQuery::new("Body", Target::terms(&["w0", "w1"])))
            .unwrap();
        prop_assert_eq!(src.len(), n);
        for rank in 0..n {
            let e = src.sorted_access(rank).unwrap();
            prop_assert!(e.grade >= garlic_agg::Grade::ZERO);
            prop_assert!(e.grade <= garlic_agg::Grade::ONE);
        }
    }

    #[test]
    fn every_subsystem_cursor_replays_the_positional_stream(
        n in 1usize..40, seed in 0u64..300, batch in 1usize..9
    ) {
        // The batch contract (see garlic_core::access docs) must hold for
        // the sources every subsystem family produces, at any batch size.
        let mut rng = garlic_workload::seeded_rng(seed);
        let qbic = QbicStore::synthetic("q", n, &mut rng);
        let text = TextStore::synthetic("t", "Body", n, 20, 8, &mut rng);
        let mut rel = RelationalStore::new("rel", &["Artist"]);
        for i in 0..n {
            rel.insert(vec![Value::text(if i % 3 == 0 { "Beatles" } else { "Kinks" })]);
        }
        let sources: Vec<std::sync::Arc<dyn GradedSource>> = vec![
            qbic.evaluate(&AtomicQuery::new("Color", Target::text("red"))).unwrap(),
            text.evaluate(&AtomicQuery::new("Body", Target::terms(&["w1"]))).unwrap(),
            rel.evaluate(&AtomicQuery::new("Artist", Target::text("Beatles"))).unwrap(),
        ];
        for src in &sources {
            let mut streamed = Vec::new();
            while src.sorted_batch(streamed.len(), batch, &mut streamed) > 0 {}
            prop_assert_eq!(streamed.len(), n);
            for (rank, entry) in streamed.iter().enumerate() {
                prop_assert_eq!(Some(*entry), src.sorted_access(rank));
            }
        }
    }
}
