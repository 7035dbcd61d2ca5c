//! Shared fixtures of the integration suites: one database type, every
//! backend built from the same lists and served under the same attribute
//! names, and the two comparisons that pin a backend to the in-memory
//! reference — engine sessions ([`assert_sessions_match`]) and planner
//! strategies ([`assert_strategies_match`]). A suite declares
//! `mod support;` and uses the part it needs.

#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use garlic::core::access::{CountingSource, GradedSource, MemorySource, SetAccess, SourceError};
use garlic::core::{ComplementSource, EngineSession, GradedEntry, Query};
use garlic::middleware::{
    Catalog, Explain, Garlic, GarlicQuery, PlannerOptions, QueryAggregation, QueryRequest,
    QueryResult, Strategy,
};
use garlic::storage::format::{Footer, TRAILER_LEN};
use garlic::storage::{LiveOptions, WalOp};
use garlic::subsys::{DiskSubsystem, Subsystem, Target, VectorSubsystem};
use garlic::{AccessStats, Aggregation, BlockCache, Grade, ObjectId, SegmentWriter, TopK};
use proptest::prelude::prop_oneof;
use proptest::strategy::Strategy as Gen;
use rand::seq::SliceRandom;
use rand::Rng;

/// The attributes every backend serves: `A`, `B`, `C` fuzzy, `K` crisp.
pub const ATTRS: [&str; 4] = ["A", "B", "C", "K"];

/// The shard counts a sharded backend is drawn from.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// The one-shot depths of the strategy comparison.
pub const KS: [usize; 5] = [1, 5, 7, 23, 50];

/// Segment block size: 16 entries, so even 40 objects span several blocks.
const BLOCK_SIZE: usize = 256;

/// Objects in the delta-mode fixture: more distinct grades than a
/// dictionary holds ([`garlic::storage::format::GRADE_DICT_MAX`]).
pub const DELTA_N: usize = 4_200;

/// One database: the grades of each attribute of [`ATTRS`] over the same
/// objects.
#[derive(Debug, Clone)]
pub struct Db {
    /// The graded objects, ascending.
    pub objects: Vec<ObjectId>,
    /// One list per attribute of [`ATTRS`], aligned with `objects`.
    pub lists: [Vec<Grade>; 4],
}

impl Db {
    /// `n` dense objects: fuzzy grades on 13 levels (ties everywhere, so
    /// tie order is load-bearing) and `⌈n/16⌉` matches of `K` (selective
    /// enough that the planner filters on it).
    pub fn quantised(n: usize, seed: u64) -> Db {
        let mut rng = garlic::workload::seeded_rng(seed);
        let mut fuzzy = || -> Vec<Grade> {
            (0..n)
                .map(|_| Grade::clamped(f64::from(rng.gen_range(0..=12u8)) / 12.0))
                .collect()
        };
        let (a, b, c) = (fuzzy(), fuzzy(), fuzzy());
        let k = crisp_list(&mut rng, n, n.div_ceil(16));
        Db::dense([a, b, c, k])
    }

    /// `n` dense objects with continuous fuzzy grades (a segment of them
    /// is in delta mode) and `⌈n/64⌉` matches of `K`.
    pub fn continuous(n: usize, seed: u64) -> Db {
        let mut rng = garlic::workload::seeded_rng(seed);
        let mut fuzzy = || -> Vec<Grade> { (0..n).map(|_| Grade::clamped(rng.gen())).collect() };
        let (a, b, c) = (fuzzy(), fuzzy(), fuzzy());
        let k = crisp_list(&mut rng, n, n.div_ceil(64));
        Db::dense([a, b, c, k])
    }

    /// Lists over the objects `0..n`.
    pub fn dense(lists: [Vec<Grade>; 4]) -> Db {
        let objects = (0..lists[0].len() as u64).map(ObjectId).collect();
        Db { objects, lists }
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Each object's grades under `A`, `B`, `C`, `K`.
    pub fn rows(&self) -> impl Iterator<Item = [Grade; 4]> + '_ {
        (0..self.len()).map(|i| std::array::from_fn(|a| self.lists[a][i]))
    }

    /// The reference backend: one [`VectorSubsystem`] (objects may be
    /// sparse).
    pub fn memory(&self) -> Arc<dyn Subsystem> {
        let mut sub = VectorSubsystem::new("memory", self.len());
        for (attr, list) in ATTRS.iter().zip(&self.lists) {
            let pairs = self.objects.iter().copied().zip(list.iter().copied());
            sub = sub.with_source(attr, MemorySource::from_pairs(pairs));
        }
        Arc::new(sub)
    }
}

/// A crisp list of `n` grades, exactly `matches` of them 1, at random
/// positions.
pub fn crisp_list(rng: &mut impl rand::RngCore, n: usize, matches: usize) -> Vec<Grade> {
    let mut list: Vec<Grade> = (0..n).map(|i| Grade::from_bool(i < matches)).collect();
    list.shuffle(rng);
    list
}

/// A database of `m` lists over `n` objects with grades from a small
/// quantised set (to exercise ties hard) or full-range floats.
pub fn db_strategy(max_m: usize, max_n: usize) -> impl Gen<Value = Vec<Vec<Grade>>> {
    (1..=max_m, 1..=max_n).prop_flat_map(|(m, n)| {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    // Tie-heavy quantised grades.
                    (0u8..=4).prop_map(|q| Grade::clamped(q as f64 / 4.0)),
                    // Arbitrary grades.
                    (0.0f64..=1.0).prop_map(Grade::clamped),
                ],
                n..=n,
            ),
            m..=m,
        )
    })
}

/// A page sequence of one to six pages of 1–60 answers: its sum may pass
/// the number of objects.
pub fn pages_strategy() -> impl Gen<Value = Vec<usize>> {
    proptest::collection::vec(1usize..=60, 1..=6)
}

/// A fresh, empty directory of this process's own, named `tag`: suites run
/// tests on parallel threads, so each test passes a tag of its own.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("garlic-tests-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The grade mode a segment's footer records: `"dict"` or `"delta"`.
pub fn segment_mode(path: &Path) -> &'static str {
    let bytes = std::fs::read(path).unwrap();
    let trailer = bytes.len() - TRAILER_LEN as usize;
    let at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    let footer = Footer::parse(&bytes[at..trailer]).unwrap();
    if !footer.grade_dict.is_empty() {
        "dict"
    } else {
        "delta"
    }
}

/// One segment per attribute of `db` under `dir`, read through `cache`.
/// Every fuzzy attribute's segment must be in `mode` (the crisp `K` has
/// two distinct grades, so it is always in dictionary mode).
pub fn segments(db: &Db, dir: &Path, mode: &str, cache: Arc<BlockCache>) -> Arc<dyn Subsystem> {
    let writer = SegmentWriter::with_block_size(BLOCK_SIZE).unwrap();
    let mut sub = DiskSubsystem::with_cache("segments", db.len(), cache);
    for (attr, list) in ATTRS.iter().zip(&db.lists) {
        let path = dir.join(format!("{attr}.seg"));
        writer.write_grades(&path, list).unwrap();
        if *attr != "K" {
            assert_eq!(segment_mode(&path), mode, "{}", path.display());
        }
        sub = sub.open_segment(attr, &path).unwrap();
    }
    Arc::new(sub)
}

/// A 1024-block cache of a backend's own.
pub fn cache() -> Arc<BlockCache> {
    Arc::new(BlockCache::new(1024))
}

/// Every attribute of `db` as `shards` id-range shards of segments under
/// `dir`, served through the scatter-gather merge.
pub fn sharded_segments(db: &Db, dir: &Path, shards: usize) -> Arc<dyn Subsystem> {
    let writer = SegmentWriter::with_block_size(BLOCK_SIZE).unwrap();
    let mut sub = DiskSubsystem::with_cache("sharded", db.len(), cache());
    for (attr, list) in ATTRS.iter().zip(&db.lists) {
        let parts = writer
            .write_sharded_grades(dir, attr, shards, list)
            .unwrap();
        sub = sub
            .open_sharded_segment(attr, parts.iter().map(|p| &p.path))
            .unwrap();
    }
    Arc::new(sub)
}

/// Every attribute of `db` as `shards` id-range shards in memory.
pub fn sharded_memory(db: &Db, shards: usize) -> Arc<dyn Subsystem> {
    let mut sub = VectorSubsystem::new("sharded-memory", db.len());
    for (attr, list) in ATTRS.iter().zip(&db.lists) {
        sub = sub.with_sharded_list(attr, list, shards);
    }
    Arc::new(sub)
}

/// One live store per attribute of `db` under `dir`, compaction off, whose
/// visible state is `db` reached through every layer: a compacted base
/// that grades every third object wrong, a frozen layer that corrects
/// half of those, tombstones the other half and grades a further sixth
/// wrong, and an active memtable that re-inserts the tombstoned objects
/// and corrects the frozen layer.
pub fn live(db: &Db, dir: &Path) -> DiskSubsystem {
    let mut sub = DiskSubsystem::with_cache("live", db.len(), cache());
    for attr in ATTRS {
        sub = sub
            .open_live_with(attr, &dir.join(attr), LiveOptions::default())
            .unwrap();
    }
    for (attr, list) in ATTRS.iter().zip(&db.lists) {
        let live = sub.live_source(attr).unwrap();
        // The wrong grade is the complement: crisp stays crisp, so the
        // planner reads the same statistics as from memory.
        let write = |op: &dyn Fn(ObjectId, Grade, usize) -> Option<WalOp>| {
            let ops: Vec<WalOp> = (0..db.len())
                .filter_map(|i| op(db.objects[i], list[i], i % 6))
                .collect();
            live.write_batch(&ops).unwrap();
        };
        let upsert = |object, grade| Some(WalOp::Upsert { object, grade });
        write(&|o, g, r| upsert(o, if r % 3 == 0 { g.complement() } else { g }));
        live.flush().unwrap();
        write(&|o, g, r| match r {
            0 => upsert(o, g),
            3 => Some(WalOp::Delete { object: o }),
            1 => upsert(o, g.complement()),
            _ => None,
        });
        live.freeze().unwrap();
        write(&|o, g, r| if r == 3 || r == 1 { upsert(o, g) } else { None });
        assert_eq!(live.frozen_layers(), 1);
    }
    sub
}

/// The backends built per database: memory, segments in dictionary mode
/// (1-byte grade cells), memory and segments in `shards` id-range shards,
/// and live stores; files go under `dir`. The delta-mode backend (8-byte
/// grade cells) is [`delta_fixture`].
pub fn backends(db: &Db, shards: usize, dir: &Path) -> Vec<(String, Arc<dyn Subsystem>)> {
    let sub = |name: &str| {
        let path = dir.join(name);
        std::fs::create_dir_all(&path).unwrap();
        path
    };
    let dict = segments(db, &sub("dict"), "dict", cache());
    let sharded_v4 = sharded_segments(db, &sub("sharded"), shards);
    vec![
        ("memory".to_owned(), db.memory()),
        ("v4-dict".to_owned(), dict),
        (
            format!("sharded-memory/S={shards}"),
            sharded_memory(db, shards),
        ),
        (format!("sharded-v4/S={shards}"), sharded_v4),
        ("live".to_owned(), Arc::new(live(db, &sub("live")))),
    ]
}

/// The fixed delta-mode database, with its memory reference and its
/// segments.
pub struct DeltaFixture {
    pub db: Db,
    pub memory: Arc<dyn Subsystem>,
    pub delta: Arc<dyn Subsystem>,
}

/// The [`DeltaFixture`] of [`DELTA_N`] objects, built once per process.
pub fn delta_fixture() -> &'static DeltaFixture {
    static FIXTURE: OnceLock<DeltaFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = Db::continuous(DELTA_N, 5_000);
        let dir = temp_dir("delta-fixture");
        DeltaFixture {
            memory: db.memory(),
            delta: segments(&db, &dir, "delta", cache()),
            db,
        }
    })
}

/// A Garlic over one subsystem.
pub fn garlic_over(sub: &Arc<dyn Subsystem>, options: PlannerOptions) -> Garlic {
    let mut cat = Catalog::new();
    cat.register_arc(Arc::clone(sub)).unwrap();
    Garlic::with_options(cat, options)
}

fn atom(attr: &str) -> GarlicQuery {
    GarlicQuery::atom(attr, Target::text("t"))
}

/// One query per strategy the planner reaches on these databases, with
/// the options that select it.
pub fn strategy_queries() -> Vec<(GarlicQuery, Strategy, PlannerOptions)> {
    let (and, or, not) = (GarlicQuery::and, GarlicQuery::or, GarlicQuery::not);
    let default = PlannerOptions::default();
    let pushdown = PlannerOptions {
        negation_pushdown: true,
        ..default
    };
    vec![
        (and(atom("A"), atom("B")), Strategy::FaMin, default),
        (or(atom("A"), atom("C")), Strategy::B0Max, default),
        (
            and(atom("A"), or(atom("B"), atom("C"))),
            Strategy::FaGeneric,
            default,
        ),
        (
            and(atom("K"), atom("A")),
            Strategy::Filtered { crisp_index: 0 },
            default,
        ),
        (
            and(atom("A"), not(atom("B"))),
            Strategy::NaiveCalculus,
            default,
        ),
        (and(atom("A"), not(atom("B"))), Strategy::FaMin, pushdown),
        (
            or(not(atom("A")), not(atom("B"))),
            Strategy::B0Max,
            pushdown,
        ),
        (
            and(atom("A"), or(atom("B"), not(atom("C")))),
            Strategy::FaNnf,
            pushdown,
        ),
    ]
}

/// Pages through `q` on one session: each page with the session's bill
/// so far. An empty sequence opens no session.
pub fn paged(garlic: &Garlic, q: &GarlicQuery, batches: &[usize]) -> Vec<(TopK, AccessStats)> {
    if batches.is_empty() {
        return Vec::new();
    }
    let mut session = garlic
        .open_session(&QueryRequest::new(q, batches.iter().sum()))
        .unwrap();
    batches
        .iter()
        .map(|&k| (session.next_batch(k).unwrap(), session.stats()))
        .collect()
}

/// Runs the traced request: the result, and the [`Explain`] it carries.
pub fn explain(garlic: &Garlic, query: &GarlicQuery, k: usize) -> (QueryResult, Explain) {
    let request = QueryRequest {
        trace: true,
        ..QueryRequest::new(query, k)
    };
    let mut result = garlic.run(&request).unwrap();
    let explain = *result.explain.take().expect("a traced request explains");
    (result, explain)
}

/// The per-source counts of an [`Explain`], summed.
pub fn summed(ex: &Explain) -> AccessStats {
    ex.per_source
        .iter()
        .fold(AccessStats::default(), |acc, (_, s)| acc + *s)
}

/// Named backends, each compared with one reference.
pub type Backends = [(String, Arc<dyn Subsystem>)];

/// Every strategy query on each backend's catalog against `want`'s. One
/// shot at each depth of `ks`, traced: `want` plans the intended
/// strategy, and each backend the same one, with the same entries (tie
/// order included), bill and EXPLAIN per-source split; the split sums to
/// the bill, and the traced run answers and bills exactly what `top_k`
/// and a one-page session do. Then paged through `pages` (if any): the
/// same entries and bill so far after every page. One thread per query.
pub fn assert_strategies_match(
    backends: &Backends,
    want: &Arc<dyn Subsystem>,
    ks: &[usize],
    pages: &[usize],
) {
    std::thread::scope(|scope| {
        for (query, strategy, options) in strategy_queries() {
            scope.spawn(move || {
                let w = garlic_over(want, options);
                let gs: Vec<_> = backends
                    .iter()
                    .map(|(name, sub)| (name, garlic_over(sub, options)))
                    .collect();
                // A one-shot `k` past the universe is a typed error.
                for &k in ks.iter().filter(|&&k| k <= want.universe_size()) {
                    let (want_r, want_ex) = explain(&w, &query, k);
                    assert_eq!(want_r.plan.strategy, strategy, "{query}: intended strategy");
                    for (name, g) in &gs {
                        let at = format!("{name}: {query} at k={k}");
                        let (got_r, got_ex) = explain(g, &query, k);
                        assert_eq!(got_r.plan.strategy, want_r.plan.strategy, "{at}: plan");
                        assert_eq!(got_r.answers.entries(), want_r.answers.entries(), "{at}");
                        assert_eq!(got_r.stats, want_r.stats, "{at}: Section-5 bill");
                        assert_eq!(got_ex.per_source, want_ex.per_source, "{at}: split");
                        assert_eq!(summed(&got_ex), got_r.stats, "{at}: split sums to bill");

                        let plain = g.top_k(&query, k).unwrap();
                        assert_eq!(plain.answers.entries(), got_r.answers.entries(), "{at}");
                        assert_eq!(plain.stats, got_r.stats, "{at}: top_k bills the trace");
                        let mut session = g.open_session(&QueryRequest::new(&query, k)).unwrap();
                        let page = session.next_batch(k).unwrap();
                        assert_eq!(page.entries(), got_r.answers.entries(), "{at}: session");
                        assert_eq!(session.stats(), got_r.stats, "{at}: session bill");
                    }
                }
                let want_pages = paged(&w, &query, pages);
                for (name, g) in &gs {
                    for (i, (got, want)) in
                        paged(g, &query, pages).iter().zip(&want_pages).enumerate()
                    {
                        let at = format!("{name}: {query} page {i} of {pages:?}");
                        assert_eq!(got.0.entries(), want.0.entries(), "{at}");
                        assert_eq!(got.1, want.1, "{at}: bill so far");
                    }
                }
            });
        }
    });
}

/// The seven session rules of the engine.
#[derive(Debug, Clone, Copy)]
enum Rule {
    New,
    Shrunk,
    Threshold,
    Min,
    Max,
    Scan,
    Filtered,
}

use Rule::*;
const RULES: [Rule; 7] = [New, Shrunk, Threshold, Min, Max, Scan, Filtered];

/// An engine-level query, and its grade of an object computed by hand
/// from the object's `[A, B, C, K]` grades.
pub type Shape = (GarlicQuery, fn([Grade; 4]) -> Grade);

/// The engine-level query shapes, each with its grade computed by hand
/// from an object's `[A, B, C, K]` grades — no engine, no NNF.
pub fn engine_shapes() -> Vec<Shape> {
    let (and, or, not) = (GarlicQuery::and, GarlicQuery::or, GarlicQuery::not);
    vec![
        (
            GarlicQuery::And(vec![atom("A"), atom("B"), atom("K")]),
            |[a, b, _, k]| a.min(b).min(k),
        ),
        (or(atom("A"), atom("B")), |[a, b, ..]| a.max(b)),
        (and(atom("A"), or(atom("B"), atom("C"))), |[a, b, c, _]| {
            a.min(b.max(c))
        }),
        (and(atom("A"), not(atom("B"))), |[a, b, ..]| {
            a.min(b.complement())
        }),
        (not(or(atom("A"), atom("B"))), |[a, b, ..]| {
            a.max(b).complement()
        }),
        (and(atom("A"), not(atom("A"))), |[a, ..]| {
            a.min(a.complement())
        }),
    ]
}

/// A literal's list, with the set access the filtered rule reads its crisp
/// literal through.
struct Listed(Arc<dyn GradedSource>, Option<Arc<dyn SetAccess>>);

impl GradedSource for Listed {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        self.0.try_sorted_batch(start, count, out)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        self.0.try_random_batch(objects, out)
    }
}

impl SetAccess for Listed {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        self.1
            .as_ref()
            .expect("the crisp literal")
            .try_matching_set()
    }
}

/// An open session of any rule: pages, and the bill of each source so far.
trait Pager {
    fn page(&mut self, k: usize) -> TopK;
    fn bills(&self) -> Vec<AccessStats>;
}

impl<A: Aggregation> Pager for EngineSession<CountingSource<Listed>, A> {
    fn page(&mut self, k: usize) -> TopK {
        self.next_batch(k).unwrap()
    }

    /// The session's own per-source bill, checked against the independent
    /// meter around each list: the meter reads exactly the bill plus the
    /// entries fetched and not yet folded.
    fn bills(&self) -> Vec<AccessStats> {
        let bills = self.per_source_stats();
        let unfolded = self.unfolded();
        for ((source, bill), ahead) in self.sources().iter().zip(bills).zip(unfolded) {
            let read = AccessStats::new(bill.sorted + ahead, bill.random);
            assert_eq!(
                source.stats(),
                read,
                "the meter reads the bill plus read-ahead"
            );
        }
        bills.to_vec()
    }
}

/// Opens `rule` over `sub`'s sources for `query`'s NNF literals (negated
/// ones through [`ComplementSource`]), or `None` where the rule does not
/// apply: A₀′ needs a flat conjunction of literals, B₀ a flat
/// disjunction, the filtered session a conjunction with a literal `sub`
/// calls crisp.
fn open(rule: Rule, sub: &dyn Subsystem, query: &GarlicQuery) -> Option<Box<dyn Pager>> {
    let nnf = query.to_nnf();
    let flat = |root: &Query| match root {
        Query::And(c) | Query::Or(c) => c.iter().all(|q| matches!(q, Query::Atom(_))),
        _ => false,
    };
    let conjunctive = matches!(nnf.root, Query::And(_)) && flat(&nnf.root);
    let disjunctive = matches!(nnf.root, Query::Or(_)) && flat(&nnf.root);
    // The filtered rule's crisp literal: the first positive one `sub`
    // calls crisp.
    let crisp = nnf
        .literals
        .iter()
        .position(|l| !l.negated && sub.is_crisp(&l.atom.attribute));
    let sources: Vec<_> = nnf
        .literals
        .iter()
        .enumerate()
        .map(|(i, lit)| {
            let source = sub.evaluate(&lit.atom).unwrap();
            let set = (matches!(rule, Filtered) && crisp == Some(i))
                .then(|| sub.evaluate_set(&lit.atom).unwrap());
            CountingSource::new(Listed(
                if lit.negated {
                    Arc::new(ComplementSource::new(source))
                } else {
                    source
                },
                set,
            ))
        })
        .collect();
    let agg = QueryAggregation::nnf(&nnf);
    Some(match rule {
        New => Box::new(EngineSession::new(sources, agg).unwrap()),
        Shrunk => Box::new(EngineSession::shrunk(sources, agg).unwrap()),
        Threshold => Box::new(EngineSession::threshold(sources, agg).unwrap()),
        Scan => Box::new(EngineSession::scan(sources, agg).unwrap()),
        Min if conjunctive => Box::new(EngineSession::<_, QueryAggregation>::min(sources).unwrap()),
        Max if disjunctive => Box::new(EngineSession::<_, QueryAggregation>::max(sources).unwrap()),
        Filtered if conjunctive => Box::new(EngineSession::filtered(sources, crisp?, agg).unwrap()),
        _ => return None,
    })
}

/// Every applicable [`Rule`] over every query of `shapes`, opened
/// on each backend's sources and on `want`'s and paged through `pages`.
/// After every page: `want`'s page is as long as the objects left allow
/// and its grades are `db`'s brute-force ranking at those ranks, and each
/// backend's entries (tie order included) and per-source bills equal
/// `want`'s. One thread per shape and rule.
pub fn assert_sessions_match(
    backends: &Backends,
    want: &dyn Subsystem,
    db: &Db,
    shapes: Vec<Shape>,
    pages: &[usize],
) {
    let shapes: Vec<_> = shapes
        .into_iter()
        .map(|(query, by_hand)| {
            let mut ranking: Vec<Grade> = db.rows().map(by_hand).collect();
            ranking.sort_unstable_by(|a, b| b.cmp(a));
            (query, ranking)
        })
        .collect();
    std::thread::scope(|scope| {
        for (query, ranking) in &shapes {
            for rule in RULES {
                scope.spawn(move || {
                    let Some(mut want_session) = open(rule, want, query) else {
                        return;
                    };
                    let mut sessions: Vec<_> = backends
                        .iter()
                        .map(|(name, sub)| (name, open(rule, sub.as_ref(), query).unwrap()))
                        .collect();
                    let mut returned = 0;
                    for (i, &k) in pages.iter().enumerate() {
                        let at =
                            |name| format!("{name}: {rule:?} over {query}, page {i} of {pages:?}");
                        let want_page = want_session.page(k);
                        let end = (returned + k).min(ranking.len());
                        let grades = &ranking[returned..end];
                        assert_eq!(want_page.grades(), grades, "{}: grades", at("memory"));
                        returned = end;
                        for (name, session) in &mut sessions {
                            let page = session.page(k);
                            assert_eq!(page.entries(), want_page.entries(), "{}", at(name));
                            let bills = session.bills();
                            assert_eq!(bills, want_session.bills(), "{}: bills", at(name));
                        }
                    }
                });
            }
        }
    });
}
