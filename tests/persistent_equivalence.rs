//! Durability is invisible to the fusion layer: segments answer every
//! planner strategy with memory's entries, tie order and Section-5 bill
//! under a cold or thrashing cache, across a cold reopen that resumes a
//! paging client, and in concurrent service batches. The backend oracle
//! (`backend_oracle.rs`) sweeps both grade modes, flat and sharded, over
//! generated databases; these pin one.

mod support;

use std::sync::Arc;

use garlic::middleware::{Catalog, Garlic, GarlicQuery, GarlicService, QueryRequest};
use garlic::subsys::{Subsystem, Target};
use garlic::BlockCache;
use support::{garlic_over, paged, segments, strategy_queries, temp_dir, Db};

fn db() -> Db {
    Db::quantised(300, 77)
}

/// Segments of `db` in dictionary mode under the test's own directory
/// `tag`.
fn disk(db: &Db, tag: &str, cache: Arc<BlockCache>) -> Arc<dyn Subsystem> {
    segments(db, &temp_dir(tag), "dict", cache)
}

#[test]
fn cold_and_thrashing_caches_are_invisible_in_answers() {
    let db = db();
    let mem = db.memory();
    // A 2-block cache cannot even hold one region: every query runs under
    // constant eviction.
    let tiny = Arc::new(BlockCache::new(2));
    let disk = disk(&db, "thrashing", Arc::clone(&tiny));

    for (query, _, options) in strategy_queries() {
        let from_mem = garlic_over(&mem, options).top_k(&query, 20).unwrap();
        let from_disk = garlic_over(&disk, options).top_k(&query, 20).unwrap();
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
    let db = db();
    let query = GarlicQuery::and(
        GarlicQuery::atom("A", Target::text("t")),
        GarlicQuery::atom("B", Target::text("t")),
    );
    let open = || garlic_over(&disk(&db, "reopened", support::cache()), Default::default());

    let reference = paged(&open(), &query, &[5, 5, 5, 5]);

    // First "process": takes the first two pages.
    let first = open();
    let mut session = first.open_session(&QueryRequest::new(&query, 20)).unwrap();
    let page0 = session.next_batch(5).unwrap();
    let page1 = session.next_batch(5).unwrap();
    assert_eq!(page0.entries(), reference[0].0.entries());
    assert_eq!(page1.entries(), reference[1].0.entries());
    let resumed_at = session.returned();
    drop(session);
    drop(first);

    // Second "process": cold reopen; skip to where the first got, continue.
    let second = open();
    let mut session = second.open_session(&QueryRequest::new(&query, 20)).unwrap();
    let skipped = session.next_batch(resumed_at).unwrap();
    assert_eq!(skipped.len(), resumed_at);
    let page2 = session.next_batch(5).unwrap();
    let page3 = session.next_batch(5).unwrap();
    assert_eq!(
        page2.entries(),
        reference[2].0.entries(),
        "cold-resumed page 2"
    );
    assert_eq!(
        page3.entries(),
        reference[3].0.entries(),
        "cold-resumed page 3"
    );
}

#[test]
fn concurrent_service_batches_answer_identically_from_disk() {
    let db = db();
    let mem_service = GarlicService::new(garlic_over(&db.memory(), Default::default()));
    let disk = disk(&db, "concurrent", Arc::new(BlockCache::new(64)));
    let disk_service = GarlicService::new(garlic_over(&disk, Default::default()));

    let batch: Vec<(GarlicQuery, usize)> = strategy_queries()
        .into_iter()
        .enumerate()
        .map(|(i, (q, _, _))| (q, 5 + 3 * i))
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
    let db = db();
    let disk: Garlic = garlic_over(
        &disk(&db, "catalogs", Arc::new(BlockCache::new(16))),
        Default::default(),
    );
    assert_eq!(disk.catalog().names(), vec!["segments".to_owned()]);
    assert_eq!(disk.catalog().len(), 1);
    assert!(!disk.catalog().is_empty());
    assert_eq!(Catalog::new().names(), Vec::<String>::new());
    assert!(Catalog::new().is_empty());
}
