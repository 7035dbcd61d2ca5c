//! The cursor-based engine vs the seed positional algorithms.
//!
//! The batched engine must be *observably identical* to the positional
//! round-robin formulation the paper states: same answers, same grades, and
//! the same Section 5 access statistics, entry for entry. This suite pins
//! that equivalence with reference re-implementations of the seed
//! positional algorithms (`reference` module below, one virtual
//! `sorted_access(rank)` call per entry) and compares them against the
//! engine-backed public API — on random workloads and on sources produced
//! by all four subsystem families (relational, QBIC, text, cd_store).

use garlic_agg::iterated::{max_agg, min_agg, product_agg};
use garlic_agg::means::ArithmeticMean;
use garlic_agg::{Aggregation, Grade};
use garlic_core::access::{counted, total_stats, CountingSource, MemorySource};
use garlic_core::algorithms::b0_max::b0_max_topk;
use garlic_core::algorithms::fa::{fagin_run, fagin_topk, FaOptions};
use garlic_core::algorithms::fa_min::fagin_min_run;
use garlic_core::algorithms::naive::naive_topk;
use garlic_core::{AccessStats, EngineSession, GradedSource, ObjectId, TopK};
use proptest::prelude::*;

type MinAgg = garlic_agg::iterated::IteratedTNorm<garlic_agg::tnorms::Minimum>;

/// Reference re-implementations of the seed *positional* algorithms: the
/// exact pre-engine control flow, one `sorted_access(rank)` per entry.
mod reference {
    use std::collections::HashMap;

    use super::*;

    pub struct Phase {
        pub m: usize,
        pub n: usize,
        pub grades: HashMap<ObjectId, Vec<Option<Grade>>>,
        pub ranks: HashMap<ObjectId, Vec<Option<usize>>>,
        pub matched: Vec<ObjectId>,
        pub depth: usize,
    }

    impl Phase {
        pub fn new(m: usize, n: usize) -> Self {
            Phase {
                m,
                n,
                grades: HashMap::new(),
                ranks: HashMap::new(),
                matched: Vec::new(),
                depth: 0,
            }
        }

        /// The seed round-robin loop: one positional access per list per
        /// level, stopping at the first depth with `k` matches.
        pub fn advance_until_matched<S: GradedSource>(&mut self, sources: &[S], k: usize) {
            while self.matched.len() < k && self.depth < self.n {
                for (i, source) in sources.iter().enumerate() {
                    let entry = source.sorted_access(self.depth).unwrap();
                    let g = self
                        .grades
                        .entry(entry.object)
                        .or_insert_with(|| vec![None; self.m]);
                    g[i] = Some(entry.grade);
                    self.ranks
                        .entry(entry.object)
                        .or_insert_with(|| vec![None; self.m])[i] = Some(self.depth);
                    if g.iter().filter(|x| x.is_some()).count() == self.m
                        && self.ranks[&entry.object].iter().all(Option::is_some)
                    {
                        self.matched.push(entry.object);
                    }
                }
                self.depth += 1;
            }
        }

        pub fn complete<S: GradedSource>(
            &mut self,
            sources: &[S],
            objects: impl IntoIterator<Item = ObjectId>,
        ) {
            for object in objects {
                let g = self
                    .grades
                    .entry(object)
                    .or_insert_with(|| vec![None; self.m]);
                for (i, source) in sources.iter().enumerate() {
                    if g[i].is_none() {
                        g[i] = Some(source.random_access(object).unwrap());
                    }
                }
            }
        }

        pub fn overall<A: Aggregation>(&self, object: ObjectId, agg: &A) -> Grade {
            let gs: Vec<Grade> = self.grades[&object].iter().map(|g| g.unwrap()).collect();
            agg.combine(&gs)
        }
    }

    /// Seed A₀ (no depth shrinking): sorted to k matches, complete every
    /// seen object, select.
    pub fn fagin<S: GradedSource, A: Aggregation>(sources: &[S], agg: &A, k: usize) -> TopK {
        let n = sources[0].len();
        let mut phase = Phase::new(sources.len(), n);
        phase.advance_until_matched(sources, k);
        let candidates: Vec<ObjectId> = phase
            .ranks
            .iter()
            .filter(|(_, ranks)| ranks.iter().any(Option::is_some))
            .map(|(&id, _)| id)
            .collect();
        phase.complete(sources, candidates.iter().copied());
        TopK::select(
            candidates
                .into_iter()
                .map(|id| (id, phase.overall(id, agg))),
            k,
        )
    }

    /// Seed A₀′: the min-specialised candidate rule of Proposition 4.3.
    pub fn fagin_min<S: GradedSource>(sources: &[S], k: usize) -> TopK {
        let n = sources[0].len();
        let mut phase = Phase::new(sources.len(), n);
        phase.advance_until_matched(sources, k);
        let (g0, i0) = phase
            .matched
            .iter()
            .map(|id| {
                let (list, grade) = phase.grades[id]
                    .iter()
                    .enumerate()
                    .map(|(i, g)| (i, g.unwrap()))
                    .min_by(|a, b| a.1.cmp(&b.1))
                    .unwrap();
                (grade, list)
            })
            .min_by(|a, b| a.0.cmp(&b.0))
            .unwrap();
        let candidates: Vec<ObjectId> = phase
            .ranks
            .iter()
            .filter(|(id, ranks)| ranks[i0].is_some() && phase.grades[id][i0].unwrap() >= g0)
            .map(|(&id, _)| id)
            .collect();
        phase.complete(sources, candidates.iter().copied());
        TopK::select(
            candidates.into_iter().map(|id| {
                (
                    id,
                    phase.grades[&id].iter().map(|g| g.unwrap()).min().unwrap(),
                )
            }),
            k,
        )
    }

    /// Seed B₀: positional top-k of every list, best shown grade wins.
    pub fn b0_max<S: GradedSource>(sources: &[S], k: usize) -> TopK {
        let mut h: HashMap<ObjectId, Grade> = HashMap::new();
        for source in sources {
            for rank in 0..k {
                let e = source.sorted_access(rank).unwrap();
                h.entry(e.object)
                    .and_modify(|g| *g = (*g).max(e.grade))
                    .or_insert(e.grade);
            }
        }
        TopK::select(h, k)
    }

    /// Seed naive: positional full scan of every list.
    pub fn naive<S: GradedSource, A: Aggregation>(sources: &[S], agg: &A, k: usize) -> TopK {
        let n = sources[0].len();
        let m = sources.len();
        let mut grades: HashMap<ObjectId, Vec<Grade>> = HashMap::with_capacity(n);
        for (i, source) in sources.iter().enumerate() {
            for rank in 0..n {
                let e = source.sorted_access(rank).unwrap();
                grades
                    .entry(e.object)
                    .or_insert_with(|| vec![Grade::ZERO; m])[i] = e.grade;
            }
        }
        TopK::select(grades.into_iter().map(|(id, gs)| (id, agg.combine(&gs))), k)
    }
}

fn db_strategy() -> impl Strategy<Value = Vec<Vec<Grade>>> {
    (1..=4usize, 1..=28usize).prop_flat_map(|(m, n)| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    // Quantised grades force ties, exercising skeleton
                    // tie-breaks and pivot/threshold tie handling.
                    (0u8..=4).prop_map(|q| Grade::clamped(q as f64 / 4.0)),
                    (0.0f64..=1.0).prop_map(Grade::clamped),
                ],
                n..=n,
            ),
            m..=m,
        )
    })
}

fn sources_of(db: &[Vec<Grade>]) -> Vec<MemorySource> {
    db.iter().map(|g| MemorySource::from_grades(g)).collect()
}

fn counted_of(db: &[Vec<Grade>]) -> Vec<CountingSource<MemorySource>> {
    counted(sources_of(db))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fa_matches_seed_positional_in_answers_and_stats(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        for agg in [&min_agg() as &dyn Aggregation, &product_agg(), &ArithmeticMean] {
            let engine_sources = counted_of(&db);
            let engine_top = fagin_topk(&engine_sources, &agg, k).unwrap();
            let engine_stats = total_stats(&engine_sources);

            let ref_sources = counted_of(&db);
            let ref_top = reference::fagin(&ref_sources, &agg, k);
            let ref_stats = total_stats(&ref_sources);

            prop_assert!(engine_top.same_grades(&ref_top, 0.0), "{}", agg.name());
            // Stronger than grade equivalence: the slab engine and the
            // positional reference hand their candidates to the same
            // total-order selection, so entries — objects *and* tie order —
            // must be bit-identical, not merely interchangeable.
            prop_assert_eq!(engine_top.entries(), ref_top.entries(), "{}", agg.name());
            prop_assert_eq!(engine_stats, ref_stats, "{}", agg.name());
        }
    }

    /// The slab engine's batched `random_batch` completion vs the
    /// per-object loop: identical grades, identical misses, identical
    /// per-source Section 5 counts — for arbitrary probe sequences with
    /// duplicates and out-of-universe ids.
    #[test]
    fn memory_random_batch_is_observably_the_per_object_loop(
        db in db_strategy(),
        raw_probes in proptest::collection::vec(0u64..40, 0..60),
    ) {
        let probes: Vec<ObjectId> = raw_probes.into_iter().map(ObjectId).collect();
        for source in counted_of(&db) {
            let mut batched = Vec::new();
            source.random_batch(&probes, &mut batched);
            let batch_stats = source.stats();
            source.reset();
            let looped: Vec<Option<garlic_agg::Grade>> =
                probes.iter().map(|&p| source.random_access(p)).collect();
            prop_assert_eq!(&batched, &looped);
            prop_assert_eq!(batch_stats, source.stats());
        }
    }

    /// Paged sessions vs a straightforward reference pager (complete
    /// everything seen, hash-set returned filter, same selection): the
    /// slab session's high-water-mark and bitvec bookkeeping must be
    /// invisible — bit-identical page entries and per-source stats.
    #[test]
    fn paged_session_matches_reference_pager(db in db_strategy(), batch in 1usize..6) {
        let n = db[0].len();
        let m = db.len();
        let agg = min_agg();

        let engine_sources = counted_of(&db);
        let mut session = EngineSession::new(engine_sources, &agg).unwrap();

        let ref_sources = counted_of(&db);
        let mut phase = reference::Phase::new(m, n);
        let mut returned: std::collections::HashSet<ObjectId> = std::collections::HashSet::new();
        let mut cumulative = 0usize;

        loop {
            let page = session.next_batch(batch).unwrap();

            // Reference page: resume the positional loop to the cumulative
            // target, complete everything seen, select among not-returned.
            let target = (cumulative + batch).min(n);
            let take = target - cumulative;
            phase.advance_until_matched(&ref_sources, target);
            let seen: Vec<ObjectId> = phase.ranks.keys().copied().collect();
            phase.complete(&ref_sources, seen.iter().copied());
            let ref_page = TopK::select(
                seen.iter()
                    .filter(|id| !returned.contains(id))
                    .map(|&id| (id, phase.overall(id, &agg))),
                take,
            );
            for e in ref_page.entries() {
                returned.insert(e.object);
            }
            cumulative = target;

            prop_assert_eq!(page.entries(), ref_page.entries(), "page at {}", cumulative);
            for (a, b) in session.sources().iter().zip(&ref_sources) {
                prop_assert_eq!(a.stats(), b.stats(), "stats at {}", cumulative);
            }
            if page.is_empty() {
                break;
            }
        }
        prop_assert_eq!(session.returned(), n);
    }

    #[test]
    fn fa_min_matches_seed_positional_in_answers_and_stats(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);

        let engine_sources = counted_of(&db);
        let engine_run = fagin_min_run(&engine_sources, k).unwrap();
        let engine_stats = total_stats(&engine_sources);

        let ref_sources = counted_of(&db);
        let ref_top = reference::fagin_min(&ref_sources, k);
        let ref_stats = total_stats(&ref_sources);

        prop_assert!(engine_run.topk.same_grades(&ref_top, 0.0));
        prop_assert_eq!(engine_run.topk.entries(), ref_top.entries());
        prop_assert_eq!(engine_stats, ref_stats);
    }

    #[test]
    fn b0_matches_seed_positional_in_answers_and_stats(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let m = db.len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);

        let engine_sources = counted_of(&db);
        let engine_top = b0_max_topk(&engine_sources, k).unwrap();
        let engine_stats = total_stats(&engine_sources);

        let ref_sources = counted_of(&db);
        let ref_top = reference::b0_max(&ref_sources, k);
        let ref_stats = total_stats(&ref_sources);

        prop_assert!(engine_top.same_grades(&ref_top, 0.0));
        prop_assert_eq!(engine_stats, ref_stats);
        prop_assert_eq!(engine_stats, AccessStats::new((m * k) as u64, 0));
    }

    #[test]
    fn naive_matches_seed_positional_in_answers_and_stats(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let m = db.len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);

        let engine_sources = counted_of(&db);
        let engine_top = naive_topk(&engine_sources, &min_agg(), k).unwrap();
        let engine_stats = total_stats(&engine_sources);

        let ref_sources = counted_of(&db);
        let ref_top = reference::naive(&ref_sources, &min_agg(), k);
        let ref_stats = total_stats(&ref_sources);

        prop_assert!(engine_top.same_grades(&ref_top, 0.0));
        prop_assert_eq!(engine_stats, ref_stats);
        prop_assert_eq!(engine_stats, AccessStats::new((m * n) as u64, 0));
    }

    #[test]
    fn resumable_paging_matches_seed_sorted_cost(db in db_strategy(), batch in 1usize..5) {
        // Paging through the whole result set: grades equal the one-shot
        // ranking and the sorted cost equals one evaluation at k = N
        // (m·N), the seed resumption property.
        let n = db[0].len();
        let m = db.len();
        let sources = counted_of(&db);
        let agg = min_agg();
        let mut session = EngineSession::new(sources.iter().collect(), &agg).unwrap();
        let mut collected: Vec<Grade> = Vec::new();
        loop {
            let chunk = session.next_batch(batch).unwrap();
            if chunk.is_empty() {
                break;
            }
            collected.extend(chunk.grades());
        }
        let stats = total_stats(&sources);
        prop_assert_eq!(collected.len(), n);
        prop_assert_eq!(stats.sorted, (m * n) as u64);

        let oneshot = reference::fagin(&sources_of(&db), &agg, n);
        for (got, want) in collected.iter().zip(oneshot.grades()) {
            prop_assert!(got.approx_eq(want, 0.0));
        }
    }

    /// Paged A₀′ on random databases and random page splits.
    #[test]
    fn paged_fa_min_is_a_valid_ranking_at_every_prefix_within_a0s_bill(
        db in db_strategy(),
        splits in proptest::collection::vec(1usize..7, 1..8),
    ) {
        assert_paged_fa_min(&db, &splits);
    }

    // Bugfix-grade coverage for `FaOptions::shrink_depths` (the Section 4
    // per-list depth refinement).
    #[test]
    fn shrunk_depths_still_witness_k_matches_and_the_same_topk(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        let sources = sources_of(&db);

        let plain = fagin_run(&sources, &min_agg(), k, FaOptions::default()).unwrap();
        let shrunk = fagin_run(
            &sources,
            &min_agg(),
            k,
            FaOptions { shrink_depths: true },
        )
        .unwrap();

        // (a) each Tᵢ is a real shrink: Tᵢ ≤ T, and never deeper than N.
        prop_assert_eq!(shrunk.per_list_depths.len(), sources.len());
        for &t_i in &shrunk.per_list_depths {
            prop_assert!(t_i <= plain.stop_depth);
            prop_assert!(t_i <= n);
        }

        // (b) the shrunk prefixes still witness k matches:
        // |∩ᵢ X^i_{Tᵢ}| ≥ k, recomputed from scratch off the raw sources.
        let mut witness: Option<std::collections::HashSet<ObjectId>> = None;
        for (source, &t_i) in sources.iter().zip(&shrunk.per_list_depths) {
            let prefix: std::collections::HashSet<ObjectId> =
                (0..t_i).map(|r| source.sorted_access(r).unwrap().object).collect();
            witness = Some(match witness {
                None => prefix,
                Some(w) => w.intersection(&prefix).copied().collect(),
            });
        }
        prop_assert!(witness.unwrap().len() >= k);

        // (c) the refinement never changes the answer, only the cost.
        prop_assert!(shrunk.topk.same_grades(&plain.topk, 0.0));
        prop_assert!(shrunk.candidates <= plain.candidates);
    }
}

/// What paging A₀′ must deliver over `splits` (then one page for whatever
/// is left): no object twice, grades never rising, the brute-force grade
/// sequence — so every prefix is a valid top-k — at the sorted cost of one
/// evaluation at the cumulative k and a total no higher than plain A₀ kept
/// alive over the same pages. The first page is one seed A₀′ run, exactly.
fn assert_paged_fa_min(db: &[Vec<Grade>], splits: &[usize]) {
    let n = db[0].len();
    let truth = reference::naive(&sources_of(db), &min_agg(), n).grades();
    let mut session = EngineSession::<_, MinAgg>::min(counted_of(db)).unwrap();
    let mut a0 = EngineSession::new(counted_of(db), min_agg()).unwrap();

    let mut seen = std::collections::HashSet::new();
    let mut grades: Vec<Grade> = Vec::new();
    for (page_no, &k) in splits.iter().chain(std::iter::once(&n)).enumerate() {
        let page = session.next_batch(k).unwrap();
        a0.next_batch(k).unwrap();
        for e in page.entries() {
            assert!(seen.insert(e.object), "{} handed out twice", e.object);
            grades.push(e.grade);
        }
        assert_eq!(&grades[..], &truth[..grades.len()]);
        assert_eq!(session.returned(), grades.len());

        let stats = total_stats(session.sources());
        let a0_stats = total_stats(a0.sources());
        assert_eq!(stats.sorted, a0_stats.sorted);
        assert!(
            stats.random <= a0_stats.random,
            "{:?} > {:?}",
            stats,
            a0_stats
        );

        // One evaluation at the cumulative k: same sorted cost — and, for
        // the first page, the same entries and the same bill.
        let oneshot = counted_of(db);
        let seed = reference::fagin_min(&oneshot, grades.len());
        assert_eq!(stats.sorted, total_stats(&oneshot).sorted);
        if page_no == 0 {
            assert_eq!(page.entries(), seed.entries());
            assert_eq!(stats, total_stats(&oneshot));
        }
    }
    assert_eq!(grades.len(), n);
}

/// The hand-built input of the property above: Proposition 4.3's pivot is
/// list 0 at k = 1 and list 1 at k = 2, so the second page completes an
/// object the first one deferred.
#[test]
fn paged_fa_min_holds_when_the_pivot_list_changes_between_pages() {
    let g = |v: f64| Grade::new(v).unwrap();
    let db = vec![
        vec![g(1.0), g(0.9), g(0.8), g(0.3), g(0.2), g(0.1)],
        vec![g(0.85), g(0.95), g(0.5), g(0.4), g(0.9), g(0.05)],
    ];
    let mut session = EngineSession::<_, MinAgg>::min(sources_of(&db)).unwrap();
    let mut pivots = Vec::new();
    for _ in 0..2 {
        session.next_batch(1).unwrap();
        pivots.push(session.pivot().unwrap().1);
    }
    assert_eq!(pivots, vec![0, 1]);
    for splits in [&[1, 1][..], &[1, 1, 1, 1, 1, 1], &[2, 2], &[1, 4]] {
        assert_paged_fa_min(&db, splits);
    }
}

/// Engine-vs-reference equivalence on real subsystem sources — all four
/// families: relational (crisp matches-first), QBIC similarity rankings,
/// tf-idf text retrieval, and the cd_store demo trio spanning the three.
#[test]
fn engine_matches_seed_on_all_four_subsystem_families() {
    use garlic_subsys::{cd_store, AtomicQuery, QbicStore, Subsystem, Target, TextStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(170);
    let qbic = QbicStore::synthetic("qbic", 40, &mut rng);
    let text = TextStore::synthetic("text", "Body", 40, 30, 10, &mut rng);
    let mut rel = garlic_subsys::RelationalStore::new("rel", &["Artist"]);
    for i in 0..40 {
        rel.insert(vec![garlic_subsys::Value::text(if i % 4 == 0 {
            "Beatles"
        } else {
            "Kinks"
        })]);
    }
    let (demo_rel, demo_qbic, demo_text) = cd_store::demo_subsystems(&mut rng);

    // One workload of m = 2 lists per subsystem family.
    let workloads: Vec<(&str, Vec<std::sync::Arc<dyn GradedSource>>)> = vec![
        (
            "relational",
            vec![
                rel.evaluate(&AtomicQuery::new("Artist", Target::text("Beatles")))
                    .unwrap(),
                rel.evaluate(&AtomicQuery::new("Artist", Target::text("Kinks")))
                    .unwrap(),
            ],
        ),
        (
            "qbic",
            vec![
                qbic.evaluate(&AtomicQuery::new("Color", Target::text("red")))
                    .unwrap(),
                qbic.evaluate(&AtomicQuery::new("Shape", Target::text("round")))
                    .unwrap(),
            ],
        ),
        (
            "text",
            vec![
                text.evaluate(&AtomicQuery::new("Body", Target::terms(&["w1", "w2"])))
                    .unwrap(),
                text.evaluate(&AtomicQuery::new("Body", Target::terms(&["w3"])))
                    .unwrap(),
            ],
        ),
        (
            "cd_store",
            vec![
                demo_rel
                    .evaluate(&AtomicQuery::new("Artist", Target::text("Beatles")))
                    .unwrap(),
                demo_qbic
                    .evaluate(&AtomicQuery::new("AlbumColor", Target::text("red")))
                    .unwrap(),
                demo_text
                    .evaluate(&AtomicQuery::new("Review", Target::terms(&["rock"])))
                    .unwrap(),
            ],
        ),
    ];

    for (family, sources) in workloads {
        let n = sources[0].len();
        for k in [1, n / 2, n] {
            let k = k.max(1);

            let engine_sources = counted(sources.iter().collect::<Vec<_>>());
            let engine_top = fagin_topk(&engine_sources, &min_agg(), k).unwrap();
            let engine_stats = total_stats(&engine_sources);

            let ref_sources = counted(sources.iter().collect::<Vec<_>>());
            let ref_top = reference::fagin(&ref_sources, &min_agg(), k);
            let ref_stats = total_stats(&ref_sources);

            assert!(engine_top.same_grades(&ref_top, 0.0), "{family} A0 k={k}");
            assert_eq!(engine_stats, ref_stats, "{family} A0 k={k}");

            // A0', B0, naive on the same workload.
            let e = counted(sources.iter().collect::<Vec<_>>());
            let r = counted(sources.iter().collect::<Vec<_>>());
            let et = fagin_min_run(&e, k).unwrap().topk;
            let rt = reference::fagin_min(&r, k);
            assert!(et.same_grades(&rt, 0.0), "{family} A0' k={k}");
            assert_eq!(total_stats(&e), total_stats(&r), "{family} A0' k={k}");

            let e = counted(sources.iter().collect::<Vec<_>>());
            let r = counted(sources.iter().collect::<Vec<_>>());
            let et = b0_max_topk(&e, k).unwrap();
            let rt = reference::b0_max(&r, k);
            assert!(et.same_grades(&rt, 0.0), "{family} B0 k={k}");
            assert_eq!(total_stats(&e), total_stats(&r), "{family} B0 k={k}");

            let e = counted(sources.iter().collect::<Vec<_>>());
            let r = counted(sources.iter().collect::<Vec<_>>());
            let et = naive_topk(&e, &max_agg(), k).unwrap();
            let rt = reference::naive(&r, &max_agg(), k);
            assert!(et.same_grades(&rt, 0.0), "{family} naive k={k}");
            assert_eq!(total_stats(&e), total_stats(&r), "{family} naive k={k}");
        }
    }
}
