//! The storage acceptance criterion: a query answered through
//! [`DiskSubsystem`] must return **identical** top-k entries, tie order,
//! and per-source Section-5 access counts to the same data served from
//! [`VectorSubsystem`] — for every planner strategy, one-shot and paged,
//! cold cache and thrashing cache. Durability must be invisible to the
//! fusion layer.

use std::path::PathBuf;
use std::sync::Arc;

use garlic::middleware::{Catalog, Garlic, GarlicQuery, GarlicService, QueryRequest, Strategy};
use garlic::subsys::{DiskSubsystem, Target, VectorSubsystem};
use garlic::{AccessStats, BlockCache, Grade, SegmentWriter, TopK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 500;

/// Three fuzzy lists (quantized: ties everywhere) plus one selective crisp
/// list, so the planner's whole catalogue is reachable.
fn grade_lists() -> Vec<(&'static str, Vec<Grade>)> {
    let mut rng = StdRng::seed_from_u64(77);
    let fuzzy = |rng: &mut StdRng| -> Vec<Grade> {
        (0..N)
            .map(|_| Grade::clamped(rng.gen_range(0..=20) as f64 / 20.0))
            .collect()
    };
    vec![
        ("A", fuzzy(&mut rng)),
        ("B", fuzzy(&mut rng)),
        ("C", fuzzy(&mut rng)),
        (
            "K",
            (0..N)
                .map(|_| Grade::from_bool(rng.gen_bool(0.03)))
                .collect(),
        ),
    ]
}

/// A directory of `test`'s own: tests run on parallel threads and write
/// the same attribute names, so they must not share one.
fn segment_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("garlic-persistent-eq-{}", std::process::id()))
        .join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn vector_garlic(lists: &[(&str, Vec<Grade>)]) -> Garlic {
    let mut sub = VectorSubsystem::new("vectors", N);
    for (attr, grades) in lists {
        sub = sub.with_list(attr, grades);
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    Garlic::new(cat)
}

/// Builds (or reuses) the segment files and opens a disk-backed Garlic
/// over them with the given cache.
fn disk_garlic(test: &str, lists: &[(&str, Vec<Grade>)], cache: Arc<BlockCache>) -> Garlic {
    let version = garlic::storage::format::FORMAT_VERSION;
    disk_garlic_versioned(test, lists, cache, version, "")
}

/// Like [`disk_garlic`], but pinning the segment format version (file
/// names are tagged so v1 and v2 builds coexist in the test's directory).
fn disk_garlic_versioned(
    test: &str,
    lists: &[(&str, Vec<Grade>)],
    cache: Arc<BlockCache>,
    version: u32,
    tag: &str,
) -> Garlic {
    let dir = segment_dir(test);
    let writer = SegmentWriter::with_block_size(256)
        .unwrap()
        .with_version(version)
        .unwrap();
    let mut sub = DiskSubsystem::with_cache("segments", N, cache);
    for (attr, grades) in lists {
        let path = dir.join(format!("{attr}{tag}.seg"));
        writer.write_grades(&path, grades).unwrap();
        sub = sub.open_segment(attr, &path).unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    Garlic::new(cat)
}

/// A disk-backed Garlic whose every attribute is a 3-shard id-range
/// partition of v2 segments, served through the scatter-gather merge.
fn sharded_disk_garlic(test: &str, lists: &[(&str, Vec<Grade>)], cache: Arc<BlockCache>) -> Garlic {
    let dir = segment_dir(test);
    let writer = SegmentWriter::with_block_size(256).unwrap();
    let mut sub = DiskSubsystem::with_cache("segments", N, cache);
    for (attr, grades) in lists {
        let parts = writer
            .write_sharded_grades(&dir, &format!("{attr}-sharded"), 3, grades)
            .unwrap();
        sub = sub
            .open_sharded_segment(attr, parts.iter().map(|p| &p.path))
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    Garlic::new(cat)
}

/// One query per strategy the planner can choose for this catalog.
fn strategy_queries() -> Vec<(GarlicQuery, Strategy)> {
    let atom = |a: &str| GarlicQuery::atom(a, Target::text("t"));
    vec![
        (GarlicQuery::and(atom("A"), atom("B")), Strategy::FaMin),
        (GarlicQuery::or(atom("A"), atom("C")), Strategy::B0Max),
        (
            GarlicQuery::and(atom("C"), GarlicQuery::or(atom("A"), atom("B"))),
            Strategy::FaGeneric,
        ),
        (
            GarlicQuery::and(atom("A"), GarlicQuery::not(atom("B"))),
            Strategy::NaiveCalculus,
        ),
        (
            GarlicQuery::and(atom("K"), atom("A")),
            Strategy::Filtered { crisp_index: 0 },
        ),
    ]
}

#[test]
fn every_strategy_answers_identically_from_disk() {
    let lists = grade_lists();
    let mem = vector_garlic(&lists);
    let disk = disk_garlic("strategies", &lists, Arc::new(BlockCache::new(1024)));

    for (query, expected_strategy) in strategy_queries() {
        for k in [1, 7, 50] {
            let from_mem = mem.top_k(&query, k).unwrap();
            let from_disk = disk.top_k(&query, k).unwrap();
            assert_eq!(
                from_mem.plan.strategy, expected_strategy,
                "query {query} must exercise the intended strategy"
            );
            assert_eq!(
                from_disk.plan.strategy, from_mem.plan.strategy,
                "both backends must plan identically for {query}"
            );
            assert_eq!(
                from_disk.answers.entries(),
                from_mem.answers.entries(),
                "identical entries and tie order for {query} at k={k}"
            );
            assert_eq!(
                from_disk.stats, from_mem.stats,
                "identical Section-5 access counts for {query} at k={k}"
            );
        }
    }
}

#[test]
fn format_versions_and_sharding_are_invisible_to_every_strategy() {
    // v1 segments, v2 segments, and 3-shard v2 partitions must all answer
    // with memory's exact entries, tie order, and Section-5 bills — the
    // format migration and the scatter-gather are access-plan details.
    use garlic::storage::format::{FORMAT_V1, FORMAT_VERSION};
    let lists = grade_lists();
    let mem = vector_garlic(&lists);
    let backends = [
        (
            "v1",
            disk_garlic_versioned(
                "formats",
                &lists,
                Arc::new(BlockCache::new(1024)),
                FORMAT_V1,
                "-v1",
            ),
        ),
        (
            "v2",
            disk_garlic_versioned(
                "formats",
                &lists,
                Arc::new(BlockCache::new(1024)),
                FORMAT_VERSION,
                "-v2",
            ),
        ),
        (
            "sharded-v2",
            sharded_disk_garlic("formats", &lists, Arc::new(BlockCache::new(1024))),
        ),
    ];

    for (query, _) in strategy_queries() {
        for k in [1, 7, 50] {
            let want = mem.top_k(&query, k).unwrap();
            for (name, backend) in &backends {
                let got = backend.top_k(&query, k).unwrap();
                assert_eq!(
                    got.plan.strategy, want.plan.strategy,
                    "{name}: plan for {query} at k={k}"
                );
                assert_eq!(
                    got.answers.entries(),
                    want.answers.entries(),
                    "{name}: entries and tie order for {query} at k={k}"
                );
                assert_eq!(
                    got.stats, want.stats,
                    "{name}: Section-5 access counts for {query} at k={k}"
                );
            }
        }
    }
}

/// Pages through `q` on one session: the pages and the total bill.
fn paged(garlic: &Garlic, q: &GarlicQuery, batches: &[usize]) -> (Vec<TopK>, AccessStats) {
    let request = QueryRequest::new(q, batches.iter().sum());
    let mut session = garlic.open_session(&request).unwrap();
    let pages = batches
        .iter()
        .map(|&k| session.next_batch(k).unwrap())
        .collect();
    (pages, session.stats())
}

#[test]
fn paged_sessions_answer_identically_from_disk() {
    let lists = grade_lists();
    let mem = vector_garlic(&lists);
    let disk = disk_garlic("paged", &lists, Arc::new(BlockCache::new(1024)));

    let batches = [3usize, 1, 10, 25];
    for (query, _) in strategy_queries() {
        let (mem_pages, mem_stats) = paged(&mem, &query, &batches);
        let (disk_pages, disk_stats) = paged(&disk, &query, &batches);
        assert_eq!(mem_pages.len(), disk_pages.len());
        for (i, (m, d)) in mem_pages.iter().zip(&disk_pages).enumerate() {
            assert_eq!(d.entries(), m.entries(), "page {i} of {query}");
        }
        assert_eq!(disk_stats, mem_stats, "paging cost for {query}");
    }
}

#[test]
fn cold_and_thrashing_caches_are_invisible_in_answers() {
    let lists = grade_lists();
    let mem = vector_garlic(&lists);
    // A 2-block cache cannot even hold one region: every query runs under
    // constant eviction. A fresh Garlic per query set = fully cold opens.
    let tiny = Arc::new(BlockCache::new(2));
    let disk = disk_garlic("thrashing", &lists, Arc::clone(&tiny));

    for (query, _) in strategy_queries() {
        let from_mem = mem.top_k(&query, 20).unwrap();
        let from_disk = disk.top_k(&query, 20).unwrap();
        assert_eq!(from_disk.answers.entries(), from_mem.answers.entries());
        assert_eq!(from_disk.stats, from_mem.stats);
    }
    let stats = tiny.stats();
    assert!(stats.evictions > 0, "the tiny cache really thrashed");
    assert!(stats.resident <= 2);
}

#[test]
fn a_cold_reopened_service_pages_identically_to_a_warm_one() {
    // "Resume from a cold cursor": a paging client notes how far it got,
    // the process restarts (new DiskSubsystem, new cache — nothing resident),
    // and the continued stream must match the uninterrupted one.
    let lists = grade_lists();
    let query = GarlicQuery::and(
        GarlicQuery::atom("A", Target::text("t")),
        GarlicQuery::atom("B", Target::text("t")),
    );

    let warm = disk_garlic("reopened", &lists, Arc::new(BlockCache::new(1024)));
    let (reference, _) = paged(&warm, &query, &[5, 5, 5, 5]);

    // First "process": takes the first two pages.
    let first = disk_garlic("reopened", &lists, Arc::new(BlockCache::new(1024)));
    let mut session = first.open_session(&QueryRequest::new(&query, 20)).unwrap();
    let page0 = session.next_batch(5).unwrap();
    let page1 = session.next_batch(5).unwrap();
    assert_eq!(page0.entries(), reference[0].entries());
    assert_eq!(page1.entries(), reference[1].entries());
    let resumed_at = session.returned();
    drop(session);
    drop(first);

    // Second "process": cold reopen; skip to where the first got, continue.
    let second = disk_garlic("reopened", &lists, Arc::new(BlockCache::new(1024)));
    let mut session = second.open_session(&QueryRequest::new(&query, 20)).unwrap();
    let skipped = session.next_batch(resumed_at).unwrap();
    assert_eq!(skipped.len(), resumed_at);
    let page2 = session.next_batch(5).unwrap();
    let page3 = session.next_batch(5).unwrap();
    assert_eq!(
        page2.entries(),
        reference[2].entries(),
        "cold-resumed page 2"
    );
    assert_eq!(
        page3.entries(),
        reference[3].entries(),
        "cold-resumed page 3"
    );
}

#[test]
fn concurrent_service_batches_answer_identically_from_disk() {
    let lists = grade_lists();
    let mem_service = GarlicService::new(vector_garlic(&lists));
    let disk_service = GarlicService::new(disk_garlic(
        "concurrent",
        &lists,
        Arc::new(BlockCache::new(64)),
    ));

    let batch: Vec<(GarlicQuery, usize)> = strategy_queries()
        .into_iter()
        .enumerate()
        .map(|(i, (q, _))| (q, 5 + 3 * i))
        .collect();
    let requests: Vec<_> = batch
        .iter()
        .map(|(q, k)| QueryRequest::new(q, *k))
        .collect();
    let from_mem = mem_service.serve_batch(&requests);
    let from_disk = disk_service.serve_batch(&requests);
    for ((m, d), (q, _)) in from_mem.iter().zip(&from_disk).zip(&batch) {
        let (m, d) = (m.as_ref().unwrap(), d.as_ref().unwrap());
        assert_eq!(d.answers.entries(), m.answers.entries(), "{q}");
        assert_eq!(d.stats, m.stats, "{q}");
    }
}

#[test]
fn catalogs_over_disk_subsystems_introspect_like_any_other() {
    let lists = grade_lists();
    let disk = disk_garlic("catalogs", &lists, Arc::new(BlockCache::new(16)));
    assert_eq!(disk.catalog().names(), vec!["segments".to_owned()]);
    assert_eq!(disk.catalog().len(), 1);
    assert!(!disk.catalog().is_empty());
    assert_eq!(Catalog::new().names(), Vec::<String>::new());
    assert!(Catalog::new().is_empty());
}
