//! The batched engine vs the seed positional algorithms.
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
use garlic_agg::weighted::FaginWimmers;
use garlic_agg::{Aggregation, Grade};
use garlic_core::access::{counted, total_stats, CountingSource, MemorySource};
use garlic_core::algorithms::b0_max::b0_max_topk;
use garlic_core::algorithms::fa::{fagin_run, fagin_shrunk_run};
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

/// The session's own bill, after checking it source by source against the
/// independent meter around each list: the meter counts every entry a list
/// returned, which is exactly what the session billed plus what it fetched
/// and has not folded yet, and every probe the session billed.
fn billed<S: GradedSource, A: Aggregation>(
    session: &EngineSession<CountingSource<S>, A>,
) -> AccessStats {
    let unfolded = session.unfolded();
    let sources = session.sources().iter().zip(session.per_source_stats());
    for (i, ((source, bill), ahead)) in sources.zip(&unfolded).enumerate() {
        let read = source.stats();
        assert_eq!(
            read.sorted,
            bill.sorted + ahead,
            "list {i}: reads = bill + read-ahead"
        );
        assert_eq!(read.random, bill.random, "list {i}: probes = bill");
    }
    assert_eq!(
        session.profile().sorted_read_ahead,
        unfolded.iter().sum::<u64>()
    );
    session.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fa_matches_seed_positional_in_answers_and_stats(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        for agg in [&min_agg() as &dyn Aggregation, &product_agg(), &ArithmeticMean] {
            let engine_run = fagin_run(&sources_of(&db), &agg, k).unwrap();
            let (engine_top, engine_stats) = (engine_run.topk, engine_run.stats);

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
            billed(&session);
            for (a, b) in session.per_source_stats().iter().zip(&ref_sources) {
                prop_assert_eq!(*a, b.stats(), "stats at {}", cumulative);
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

        let engine_run = fagin_min_run(&sources_of(&db), k).unwrap();
        let engine_stats = engine_run.stats;

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

        let mut session = EngineSession::<_, MinAgg>::max(counted_of(&db)).unwrap();
        let engine_top = session.next_batch(k).unwrap();
        let engine_stats = billed(&session);
        prop_assert_eq!(&engine_top, &b0_max_topk(&sources_of(&db), k).unwrap());

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

        // The reference selects with the same `(grade desc, id asc)` order.
        prop_assert_eq!(engine_top.entries(), ref_top.entries());
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
        prop_assert_eq!(session.stats(), stats);
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

    /// Paged shrunk A₀ on random databases and random page splits.
    #[test]
    fn paged_shrunk_is_a_valid_ranking_at_every_prefix_within_a0s_bill(
        db in db_strategy(),
        splits in proptest::collection::vec(1usize..7, 1..8),
    ) {
        assert_paged_shrunk(&db, &splits);
    }

    // Bugfix-grade coverage for `fagin_shrunk_run` (the Section 4
    // per-list depth refinement).
    #[test]
    fn shrunk_depths_still_witness_k_matches_and_the_same_topk(db in db_strategy(), k_frac in 0.0f64..=1.0) {
        let n = db[0].len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        let sources = sources_of(&db);

        let plain = fagin_run(&sources, &min_agg(), k).unwrap();
        let shrunk = fagin_shrunk_run(&sources, &min_agg(), k).unwrap();

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

/// Case count of the threshold rule's first-page property and the sparse-id
/// scan property: 64 locally; CI runs each once more by name with
/// `PROPTEST_CASES` raised.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// `min(g₀, max(g₁, …))` — at m = 3 the `Fi AND (Fj OR Fk)` shape the
/// middleware hands the threshold rule; `g₀` alone at m = 1.
struct MinOfMax;

impl Aggregation for MinOfMax {
    fn name(&self) -> String {
        "min(a, max(b, c, ...))".into()
    }
    fn combine(&self, grades: &[Grade]) -> Grade {
        match grades {
            [a] => *a,
            [a, rest @ ..] => (*a).min(*rest.iter().max().expect("m >= 2")),
            [] => panic!("no grades"),
        }
    }
    fn is_strict(&self, _arity: usize) -> bool {
        false
    }
}

/// `1 − (max − min)`: how far the grades agree. Not monotone, so only the
/// naive scan may run it.
struct Agreement;

impl Aggregation for Agreement {
    fn name(&self) -> String {
        "1 - (max - min)".into()
    }
    fn combine(&self, grades: &[Grade]) -> Grade {
        let max = grades.iter().max().expect("m >= 1").value();
        let min = grades.iter().min().expect("m >= 1").value();
        Grade::clamped(1.0 - (max - min))
    }
    fn is_monotone(&self) -> bool {
        false
    }
    fn is_strict(&self, _arity: usize) -> bool {
        false
    }
}

/// A [`db_strategy`] database whose `N` objects are not `0..N`: the ids
/// climb from a start in `0..3` by gaps of 1–3, so they skip ids below `N`
/// and run past it, as a live store's do after deletes. Every list grades
/// the same ids.
fn sparse_db() -> impl Strategy<Value = (Vec<ObjectId>, Vec<Vec<Grade>>)> {
    db_strategy()
        .prop_flat_map(|db| {
            let n = db[0].len();
            (
                Just(db),
                0u64..3,
                proptest::collection::vec(1u64..=3, n..=n),
            )
        })
        .prop_map(|(db, start, gaps)| {
            let ids = gaps
                .iter()
                .scan(start, |next, gap| {
                    let id = *next;
                    *next += gap;
                    Some(ObjectId(id))
                })
                .collect();
            (ids, db)
        })
}

/// Up to 5 lists of up to 24 objects, with one positive weight per list
/// for the Fagin–Wimmers row. A database's grades are all on a 4-level
/// grid (ties everywhere), all continuous, or a mix.
fn threshold_db() -> impl Strategy<Value = (Vec<Vec<Grade>>, Vec<f64>)> {
    (1..=5usize, 1..=24usize, 0u8..3).prop_flat_map(|(m, n, mode)| {
        let grade = (0u8..=3, 0.0f64..=1.0, 0u8..2).prop_map(move |(level, x, coin)| {
            if mode == 0 || (mode == 2 && coin == 0) {
                Grade::clamped(level as f64 / 3.0)
            } else {
                Grade::clamped(x)
            }
        });
        (
            proptest::collection::vec(proptest::collection::vec(grade, n..=n), m..=m),
            proptest::collection::vec(0.05f64..=1.0, m..=m),
        )
    })
}

/// The aggregations the threshold rule is pinned under: min, max, the
/// arithmetic mean, product, `min(a, max(b, c))`, and the Fagin–Wimmers
/// weighting of min.
fn threshold_aggs(weights: &[f64]) -> Vec<Box<dyn Aggregation>> {
    vec![
        Box::new(min_agg()),
        Box::new(max_agg()),
        Box::new(ArithmeticMean),
        Box::new(product_agg()),
        Box::new(MinOfMax),
        Box::new(FaginWimmers::new(min_agg(), weights)),
    ]
}

/// Pages `pages` through a session and returns the pages and its bill.
fn page_through<S: GradedSource, A: Aggregation>(
    mut session: EngineSession<CountingSource<S>, A>,
    pages: &[usize],
) -> (Vec<TopK>, AccessStats) {
    let got = pages
        .iter()
        .map(|&k| session.next_batch(k).unwrap())
        .collect();
    (got, billed(&session))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The naive scan over lists whose ids have gaps and run past `N`,
    /// paged 1–5 answers at a time, concatenates to the seed scan's full
    /// ranking entry for entry (tie order included) and bills what it
    /// bills, `m·N` sorted accesses and nothing else, under min and under
    /// a non-monotone aggregation.
    #[test]
    fn paged_scan_over_sparse_ids_matches_the_seed_scan(
        (ids, db) in sparse_db(),
        pages in proptest::collection::vec(1usize..=5, 1..=8),
    ) {
        let (m, n) = (db.len(), ids.len());
        let lists = || -> Vec<CountingSource<MemorySource>> {
            let list = |grades: &Vec<Grade>| {
                MemorySource::from_pairs(ids.iter().copied().zip(grades.iter().copied()))
            };
            counted(db.iter().map(list).collect())
        };
        for agg in [&min_agg() as &dyn Aggregation, &Agreement] {
            let mut session = EngineSession::scan(lists(), agg).unwrap();
            let mut paged = Vec::new();
            for &k in pages.iter().cycle() {
                let page = session.next_batch(k).unwrap();
                if page.is_empty() {
                    break;
                }
                paged.extend_from_slice(page.entries());
            }
            let engine_stats = billed(&session);

            let ref_sources = lists();
            let ref_top = reference::naive(&ref_sources, &agg, n);
            prop_assert_eq!(&paged[..], ref_top.entries(), "{}", agg.name());
            prop_assert_eq!(engine_stats, total_stats(&ref_sources), "{}", agg.name());
            prop_assert_eq!(engine_stats, AccessStats::new((m * n) as u64, 0));
            prop_assert_eq!(session.graded(), n);
        }
    }

    /// The threshold rule's first page is A₀'s, entry for entry, at no
    /// more sorted accesses and no more accesses in all.
    #[test]
    fn threshold_first_page_is_a0s_within_a0s_bill(
        (db, weights) in threshold_db(),
        k_frac in 0.0f64..=1.0,
    ) {
        let n = db[0].len();
        let k = ((k_frac * n as f64) as usize).clamp(1, n);
        for agg in threshold_aggs(&weights) {
            let (a0_page, a0) = page_through(EngineSession::new(counted_of(&db), &agg).unwrap(), &[k]);
            let (page, bill) =
                page_through(EngineSession::threshold(counted_of(&db), &agg).unwrap(), &[k]);
            prop_assert_eq!(page[0].entries(), a0_page[0].entries(), "{} k={}", agg.name(), k);
            prop_assert!(bill.sorted <= a0.sorted, "{}: {:?} vs A₀ {:?}", agg.name(), bill, a0);
            prop_assert!(
                bill.unweighted() <= a0.unweighted(),
                "{}: {:?} vs A₀ {:?}", agg.name(), bill, a0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Paged threshold sessions over random splits (then one page for
    /// whatever is left): A₀'s pages, entry for entry; the brute-force
    /// grade sequence at every prefix; and a cumulative sorted bill within
    /// one A₀ evaluation at the cumulative k.
    #[test]
    fn paged_threshold_is_a0s_pages_within_one_a0_evaluations_sorted_bill(
        (db, weights) in threshold_db(),
        splits in proptest::collection::vec(1usize..7, 1..6),
    ) {
        let n = db[0].len();
        let pages: Vec<usize> = splits.iter().copied().chain(std::iter::once(n)).collect();
        for agg in threshold_aggs(&weights) {
            let truth = reference::naive(&sources_of(&db), &agg, n).grades();
            let mut session = EngineSession::threshold(counted_of(&db), &agg).unwrap();
            let (a0_pages, _) = page_through(EngineSession::new(counted_of(&db), &agg).unwrap(), &pages);
            let mut grades = Vec::new();
            for (&k, a0_page) in pages.iter().zip(&a0_pages) {
                let page = session.next_batch(k).unwrap();
                prop_assert_eq!(page.entries(), a0_page.entries(), "{}", agg.name());
                grades.extend(page.grades());
                prop_assert_eq!(&grades[..], &truth[..grades.len()], "{}", agg.name());
                let (_, one) =
                    page_through(EngineSession::new(counted_of(&db), &agg).unwrap(), &[grades.len()]);
                prop_assert!(billed(&session).sorted <= one.sorted, "{}", agg.name());
            }
            prop_assert_eq!(grades.len(), n);
        }
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

        let stats = billed(&session);
        let a0_stats = billed(&a0);
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

/// What paging shrunk A₀ must deliver over `splits` (then one page for
/// whatever is left): no object twice and the brute-force grade sequence,
/// so every prefix is a valid top-k; the sorted bill `m·T` of one run at
/// the cumulative k; a total no higher than plain A₀ kept alive over the
/// same pages; per-list depths `Tᵢ` that never fall as the cumulative k
/// grows; and a first page that is one `fagin_shrunk_run`, entries and
/// bill.
fn assert_paged_shrunk(db: &[Vec<Grade>], splits: &[usize]) {
    let (m, n) = (db.len(), db[0].len());
    let truth = reference::naive(&sources_of(db), &min_agg(), n).grades();
    let agg = min_agg();
    let mut session = EngineSession::shrunk(counted_of(db), &agg).unwrap();
    let mut a0 = EngineSession::new(counted_of(db), &agg).unwrap();

    let mut seen = std::collections::HashSet::new();
    let mut grades: Vec<Grade> = Vec::new();
    let mut depths = vec![0; m];
    for (page_no, &k) in splits.iter().chain(std::iter::once(&n)).enumerate() {
        let page = session.next_batch(k).unwrap();
        a0.next_batch(k).unwrap();
        for e in page.entries() {
            assert!(seen.insert(e.object), "{} handed out twice", e.object);
            grades.push(e.grade);
        }
        assert_eq!(&grades[..], &truth[..grades.len()]);

        let stats = billed(&session);
        let a0_stats = billed(&a0);
        let run = fagin_shrunk_run(&sources_of(db), &agg, grades.len()).unwrap();
        assert_eq!(session.depth(), run.stop_depth);
        assert_eq!(stats.sorted, (m * run.stop_depth) as u64);
        assert_eq!(stats.sorted, a0_stats.sorted);
        assert!(stats.random <= a0_stats.random, "{stats:?} > {a0_stats:?}");
        assert!(
            run.per_list_depths
                .iter()
                .zip(&depths)
                .all(|(t, was)| t >= was),
            "Tᵢ fell: {depths:?} -> {:?}",
            run.per_list_depths
        );
        depths = run.per_list_depths;
        if page_no == 0 {
            assert_eq!(page.entries(), run.topk.entries());
            assert_eq!(stats, run.stats);
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

            let engine_run = fagin_run(&sources, &min_agg(), k).unwrap();
            let (engine_top, engine_stats) = (engine_run.topk, engine_run.stats);

            let ref_sources = counted(sources.iter().collect::<Vec<_>>());
            let ref_top = reference::fagin(&ref_sources, &min_agg(), k);
            let ref_stats = total_stats(&ref_sources);

            assert!(engine_top.same_grades(&ref_top, 0.0), "{family} A0 k={k}");
            assert_eq!(engine_stats, ref_stats, "{family} A0 k={k}");

            // A0', B0, naive on the same workload.
            let et = fagin_min_run(&sources, k).unwrap();
            let r = counted(sources.iter().collect::<Vec<_>>());
            let rt = reference::fagin_min(&r, k);
            assert!(et.topk.same_grades(&rt, 0.0), "{family} A0' k={k}");
            assert_eq!(et.stats, total_stats(&r), "{family} A0' k={k}");

            let mut e = EngineSession::<_, MinAgg>::max(counted(sources.iter().collect())).unwrap();
            let r = counted(sources.iter().collect::<Vec<_>>());
            let et = e.next_batch(k).unwrap();
            let rt = reference::b0_max(&r, k);
            assert!(et.same_grades(&rt, 0.0), "{family} B0 k={k}");
            assert_eq!(billed(&e), total_stats(&r), "{family} B0 k={k}");

            let e = counted(sources.iter().collect::<Vec<_>>());
            let r = counted(sources.iter().collect::<Vec<_>>());
            let et = naive_topk(&e, &max_agg(), k).unwrap();
            let rt = reference::naive(&r, &max_agg(), k);
            assert!(et.same_grades(&rt, 0.0), "{family} naive k={k}");
            assert_eq!(total_stats(&e), total_stats(&r), "{family} naive k={k}");
        }
    }
}

/// A list that logs the `[start, end)` rank range of every sorted read it
/// answers, and fails the sorted read numbered `fail_at` among all reads
/// of the lists sharing `calls`.
struct Logged {
    inner: MemorySource,
    reads: std::sync::Mutex<Vec<(usize, usize)>>,
    calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    fail_at: usize,
}

impl GradedSource for Logged {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<garlic_core::GradedEntry>,
    ) -> Result<usize, garlic_core::access::SourceError> {
        let call = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if call == self.fail_at {
            return Err(garlic_core::access::SourceError {
                source: "logged".into(),
                detail: "injected".into(),
                quarantined: false,
            });
        }
        let got = self.inner.try_sorted_batch(start, count, out)?;
        self.reads.lock().unwrap().push((start, start + got));
        Ok(got)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), garlic_core::access::SourceError> {
        self.inner.try_random_batch(objects, out)
    }
}

impl garlic_core::SetAccess for Logged {}

/// The session rules, by the constructor that opens them.
const RULES: [&str; 7] = [
    "new",
    "shrunk",
    "threshold",
    "min",
    "scan",
    "max",
    "filtered",
];

/// Opens rule `RULES[rule]` over `lists`, under min.
fn open_rule<S: garlic_core::SetAccess>(rule: usize, lists: Vec<S>) -> EngineSession<S, MinAgg> {
    match RULES[rule] {
        "new" => EngineSession::new(lists, min_agg()),
        "shrunk" => EngineSession::shrunk(lists, min_agg()),
        "threshold" => EngineSession::threshold(lists, min_agg()),
        "min" => EngineSession::min(lists),
        "scan" => EngineSession::scan(lists, min_agg()),
        "max" => EngineSession::max(lists),
        _ => EngineSession::filtered(lists, 0, min_agg()),
    }
    .unwrap()
}

/// Up to three lists of up to 700 objects, so a session's reads cross
/// several 256-rank windows. List 0 is crisp (every grade 0 or 1) for the
/// filtered rule and graded from the same draws otherwise.
fn windowed_db() -> impl Strategy<Value = Vec<Vec<Grade>>> {
    (1..=3usize, 1..=700usize).prop_flat_map(|(m, n)| {
        let grade = (0u8..=8).prop_map(|q| Grade::clamped(q as f64 / 8.0));
        proptest::collection::vec(proptest::collection::vec(grade, n..=n), m..=m)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Every rule, paged at random, with one sorted read failing at a
    /// random point and its page retried with the same k: after each
    /// page, each list is billed the positional loop's prefix (A₀'s stop
    /// depth for the A₀ family, the threshold rule's own depth at most
    /// that, the cumulative k for B₀, `N` for the scan, the match set on
    /// the filtered rule's crisp list), the pages and bills are those of
    /// the same session with no failure, a meter around each list reads
    /// exactly the bill plus the entries fetched and not folded, and no
    /// list fetches an entry twice or past the end of the 256-rank window
    /// holding the page's last folded rank.
    #[test]
    fn every_rule_bills_the_positional_prefix_and_fetches_within_its_window(
        db in windowed_db(),
        rule in 0..RULES.len(),
        pages in proptest::collection::vec(1usize..=300, 1..=4),
        fail_at in 0usize..8,
    ) {
        let (m, n) = (db.len(), db[0].len());
        let filtered = RULES[rule] == "filtered";
        let mut db = db;
        if filtered {
            db[0] = db[0].iter().map(|g| Grade::from_bool(g.value() >= 0.5)).collect();
        }
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let lists = db.iter().map(|grades| Logged {
            inner: MemorySource::from_grades(grades),
            reads: Default::default(),
            calls: calls.clone(),
            fail_at,
        });
        let mut session = open_rule(rule, counted(lists.collect()));
        let mut clean = open_rule(rule, sources_of(&db));
        let positional = sources_of(&db);
        let mut phase = reference::Phase::new(m, n);
        let ones = db[0].iter().filter(|&&g| g == Grade::ONE).count() as u64;
        // Per list: reads checked so far, and the rank the next one must
        // start at.
        let (mut checked, mut fetched) = (vec![0; m], vec![0; m]);
        for &k in &pages {
            let page = loop {
                match session.next_batch(k) {
                    Ok(page) => break page,
                    Err(e) => {
                        prop_assert!(matches!(e, garlic_core::TopKError::SourceFailed(_)), "{e}");
                        billed(&session);
                    }
                }
            };
            prop_assert_eq!(&page, &clean.next_batch(k).unwrap(), "{}", RULES[rule]);
            let bill = billed(&session);
            prop_assert_eq!(session.per_source_stats(), clean.per_source_stats());
            prop_assert_eq!(bill, clean.stats());

            let (depth, target) = (session.depth(), session.returned());
            phase.advance_until_matched(&positional, target);
            let prefix = match RULES[rule] {
                "scan" => n,
                "max" => target,
                "threshold" => {
                    prop_assert!(depth <= phase.depth, "threshold: {} > {}", depth, phase.depth);
                    depth
                }
                "filtered" => 0,
                _ => phase.depth,
            };
            prop_assert_eq!(depth, prefix, "{}", RULES[rule]);
            for (i, source) in session.per_source_stats().iter().enumerate() {
                let want = if filtered && i == 0 { ones } else { prefix as u64 };
                prop_assert_eq!(source.sorted, want, "{} list {}", RULES[rule], i);
            }

            // The filtered rule has no sorted phase: it reads the match set
            // whole, again if a read of it failed.
            if filtered {
                continue;
            }
            let end = depth.next_multiple_of(256).min(n);
            for (i, list) in session.sources().iter().enumerate() {
                let reads = list.inner().reads.lock().unwrap();
                for &(start, stop) in &reads[checked[i]..] {
                    prop_assert_eq!(start, fetched[i], "list {} fetched a rank twice or skipped one", i);
                    prop_assert!(stop <= end, "list {} read to {} past window end {}", i, stop, end);
                    fetched[i] = stop;
                }
                checked[i] = reads.len();
            }
        }
    }
}
