//! "Continue where we left off" (Section 4): paging through the result set
//! batch-by-batch must agree with one-shot evaluation at every batch
//! boundary, on arbitrary workloads — for A₀ kept alive and for A₀′, whose
//! pages grade only the pivot list's candidates.

use garlic::agg::iterated::{min_agg, IteratedTNorm};
use garlic::agg::tnorms::Minimum;
use garlic::core::access::MemorySource;
use garlic::core::algorithms::fa::fagin_topk;
use garlic::core::EngineSession;
use garlic::Grade;
use proptest::prelude::*;

type MinAgg = IteratedTNorm<Minimum>;

/// The two resumable forms of the min conjunction over borrowed sources:
/// plain A₀ and A₀′.
fn sessions<'a>(
    sources: &'a [MemorySource],
    agg: &'a MinAgg,
) -> [EngineSession<&'a MemorySource, &'a MinAgg>; 2] {
    [
        EngineSession::new(sources.iter().collect(), agg).unwrap(),
        EngineSession::min(sources.iter().collect()).unwrap(),
    ]
}

fn db_strategy() -> impl Strategy<Value = Vec<Vec<Grade>>> {
    (1..=3usize, 2..=30usize).prop_flat_map(|(m, n)| {
        proptest::collection::vec(
            proptest::collection::vec((0.0f64..=1.0).prop_map(Grade::clamped), n..=n),
            m..=m,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paged_equals_one_shot(db in db_strategy(), batch in 1usize..6) {
        let sources: Vec<MemorySource> =
            db.iter().map(|g| MemorySource::from_grades(g)).collect();
        let n = db[0].len();
        let agg = min_agg();

        let reference = fagin_topk(&sources, &agg, n).unwrap();
        for mut session in sessions(&sources, &agg) {
            let mut collected: Vec<Grade> = Vec::new();
            while collected.len() < n {
                let chunk = session.next_batch(batch).unwrap();
                if chunk.is_empty() {
                    break;
                }
                collected.extend(chunk.grades());
            }
            prop_assert_eq!(collected.len(), n);
            for (got, want) in collected.iter().zip(reference.grades()) {
                prop_assert!(got.approx_eq(want, 1e-12));
            }
        }
    }

    #[test]
    fn each_prefix_is_a_valid_topk(db in db_strategy()) {
        let sources: Vec<MemorySource> =
            db.iter().map(|g| MemorySource::from_grades(g)).collect();
        let n = db[0].len();
        let agg = min_agg();

        let top1 = fagin_topk(&sources, &agg, 1).unwrap();
        for mut session in sessions(&sources, &agg) {
            let first = session.next_batch(1).unwrap();
            let second = session.next_batch(1).unwrap();
            prop_assert!(first.same_grades(&top1, 1e-12));
            if n >= 2 {
                let top2 = fagin_topk(&sources, &agg, 2).unwrap();
                prop_assert!(second.grades()[0].approx_eq(top2.grades()[1], 1e-12));
            }
        }
    }
}

#[test]
fn session_tracks_progress() {
    let g = |v: f64| Grade::new(v).unwrap();
    let sources = vec![
        MemorySource::from_grades(&[g(0.9), g(0.5), g(0.7), g(0.1)]),
        MemorySource::from_grades(&[g(0.3), g(0.8), g(0.6), g(0.2)]),
    ];
    let agg = min_agg();
    for mut session in sessions(&sources, &agg) {
        assert_eq!(session.returned(), 0);
        session.next_batch(3).unwrap();
        assert_eq!(session.returned(), 3);
        session.next_batch(3).unwrap();
        assert_eq!(session.returned(), 4); // clamped at N
    }
}
