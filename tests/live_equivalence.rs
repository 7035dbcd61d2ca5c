//! The write-path acceptance criterion: a live store must be
//! **indistinguishable** from a freshly built [`MemorySource`] over the
//! same visible contents — same entries, same skeleton tie order, and the
//! same per-source Section 5 billed access counts under every session
//! rule — at every point of its lifecycle: memtable-only, mixed layers,
//! freshly compacted, and reopened after a crash. Durability and write
//! absorption must be invisible to the fusion layer.
//!
//! The suite is model-driven: a deterministic op tape (upserts that
//! overwrite, tombstone deletes, sparse ids) is applied to both the live
//! stores and an in-RAM model, and the two worlds are compared at each
//! lifecycle checkpoint, the rules through the backend oracle's session
//! comparison. A separate test pins snapshot isolation while a
//! compaction retires the very segment a reader is streaming, and a
//! middleware test pins that a write alone flips the planner's
//! Filtered-vs-stream decision (the stale-footer regression).

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use garlic::core::access::{GradedSource, MemorySource, SetAccess};
use garlic::storage::{LiveOptions, LiveSource};
use garlic::subsys::Subsystem;
use garlic::{BlockCache, DiskSubsystem, Grade, ObjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::{assert_sessions_match, engine_shapes, garlic_over, temp_dir, Db, ATTRS};

/// Sparse id pool: ids `1, 4, 7, …` prove nothing assumes density.
const POOL: usize = 300;

fn pool_id(i: usize) -> ObjectId {
    ObjectId(1 + 3 * i as u64)
}

fn g(v: f64) -> Grade {
    Grade::clamped(v)
}

/// The in-RAM model: one visible map per attribute of [`ATTRS`].
type Model = Vec<BTreeMap<ObjectId, Grade>>;

/// `A`, `B`, `C` are fuzzy, `K` is crisp. Every op touches the *same
/// object across all attributes*, so the visible object sets (and thus
/// source lengths) stay equal — what every multi-source strategy requires
/// — while grades, overwrites, and tombstones differ freely.
fn apply_ops(rng: &mut StdRng, count: usize, sub: &DiskSubsystem, model: &mut Model) {
    for _ in 0..count {
        let object = pool_id(rng.gen_range(0..POOL));
        let delete = rng.gen_bool(0.2);
        for (attr, m) in ATTRS.iter().zip(model.iter_mut()) {
            let live = sub.live_source(attr).unwrap();
            if delete {
                live.delete(object).unwrap();
                m.remove(&object);
            } else {
                let grade = if *attr == "K" {
                    Grade::from_bool(rng.gen_bool(0.08))
                } else {
                    g(rng.gen_range(0..=20) as f64 / 20.0)
                };
                live.upsert(object, grade).unwrap();
                m.insert(object, grade);
            }
        }
    }
}

/// The model as one database (every attribute holds the same objects).
fn model_db(model: &Model) -> Db {
    Db {
        objects: model[0].keys().copied().collect(),
        lists: std::array::from_fn(|a| model[a].values().copied().collect()),
    }
}

/// The heart of the suite: at one lifecycle checkpoint, the live
/// snapshots and the model must agree on raw streams, random access and
/// matching sets, and every session rule must answer and bill like
/// memory, one shot at three depths and paged.
fn assert_live_equals_memory(sub: &Arc<DiskSubsystem>, model: &Model, checkpoint: &str) {
    let db = model_db(model);
    let memory = db.memory();
    for (i, attr) in ATTRS.iter().enumerate() {
        let snap = sub.live_source(attr).unwrap().snapshot();
        let mem = MemorySource::from_pairs(model[i].iter().map(|(&o, &gr)| (o, gr)));
        assert_eq!(snap.len(), mem.len(), "{checkpoint}: length of {attr}");
        let (mut live_run, mut mem_run) = (Vec::new(), Vec::new());
        snap.sorted_batch(0, snap.len() + 8, &mut live_run);
        mem.sorted_batch(0, mem.len() + 8, &mut mem_run);
        assert_eq!(
            live_run, mem_run,
            "{checkpoint}: full stream and tie order of {attr}"
        );
        let probes: Vec<ObjectId> = (0..POOL + 5).map(pool_id).collect();
        let (mut live_hits, mut mem_hits) = (Vec::new(), Vec::new());
        snap.random_batch(&probes, &mut live_hits);
        mem.random_batch(&probes, &mut mem_hits);
        assert_eq!(live_hits, mem_hits, "{checkpoint}: probes of {attr}");
        if *attr == "K" {
            assert_eq!(
                snap.matching_set(),
                mem.matching_set(),
                "{checkpoint}: crisp match set"
            );
        }
    }
    let live = [(
        format!("live, {checkpoint}"),
        Arc::clone(sub) as Arc<dyn Subsystem>,
    )];
    for pages in [&[1][..], &[7], &[50], &[1, 6, 43]] {
        assert_sessions_match(&live, memory.as_ref(), &db, engine_shapes(), pages);
    }
}

/// Live stores for every attribute of [`ATTRS`] under `root`, sharing
/// `cache`; ids stay below the pool's end.
fn open_stores(root: &std::path::Path, cache: &Arc<BlockCache>) -> Arc<DiskSubsystem> {
    let mut sub = DiskSubsystem::with_cache("live", 3 * POOL, Arc::clone(cache));
    for attr in ATTRS {
        sub = sub
            .open_live_with(attr, &root.join(attr), LiveOptions::default())
            .unwrap();
    }
    Arc::new(sub)
}

/// Runs `f` on every attribute's live store.
fn each_store(sub: &DiskSubsystem, f: impl Fn(&LiveSource)) {
    for attr in ATTRS {
        f(sub.live_source(attr).unwrap());
    }
}

#[test]
fn every_lifecycle_state_is_equivalent_to_memory() {
    let root = temp_dir("live-lifecycle");
    let cache = Arc::new(BlockCache::new(512));
    let mut rng = StdRng::seed_from_u64(4096);
    let sub = open_stores(&root, &cache);
    let mut model: Model = vec![BTreeMap::new(); ATTRS.len()];

    // Checkpoint 1: everything lives in the active memtable.
    apply_ops(&mut rng, 200, &sub, &mut model);
    assert!(model[0].len() > 50, "enough survivors for k=50");
    assert_live_equals_memory(&sub, &model, "memtable-only");

    // Checkpoint 2: mixed layers — a frozen memtable under fresh writes.
    each_store(&sub, |live| assert!(live.freeze().unwrap()));
    apply_ops(&mut rng, 150, &sub, &mut model);
    assert_live_equals_memory(&sub, &model, "frozen+active");

    // Checkpoint 3: a compacted base segment under fresh overlay writes.
    each_store(&sub, |live| assert!(live.flush().unwrap()));
    apply_ops(&mut rng, 150, &sub, &mut model);
    assert_live_equals_memory(&sub, &model, "base+overlay");

    // Checkpoint 4: fully compacted — answers come straight off segments.
    each_store(&sub, |live| {
        live.flush().unwrap();
    });
    assert_live_equals_memory(&sub, &model, "post-compaction");

    // Checkpoint 5: crash recovery. Every acknowledged write was fsynced,
    // so reopening replays the exact same visible state.
    drop(sub);
    let sub = open_stores(&root, &cache);
    assert_live_equals_memory(&sub, &model, "post-recovery");

    // And writes keep flowing after recovery.
    apply_ops(&mut rng, 60, &sub, &mut model);
    assert_live_equals_memory(&sub, &model, "post-recovery+writes");
}

#[test]
fn upsert_overwrites_and_tombstones_are_pinned_explicitly() {
    // The targeted cases on top of the randomized tape: an overwrite that
    // moves an object across the ranking, a tombstone over a compacted
    // entry, and a delete-then-reinsert.
    let root = temp_dir("live-pinned-cases");
    let cache = Arc::new(BlockCache::new(128));
    let sub = open_stores(&root, &cache);
    let mut model: Model = vec![BTreeMap::new(); ATTRS.len()];
    let write = |model: &mut Model, object, grade: &dyn Fn(&str) -> Option<Grade>| {
        for (attr, m) in ATTRS.iter().zip(model.iter_mut()) {
            let live = sub.live_source(attr).unwrap();
            match grade(attr) {
                Some(grade) => {
                    live.upsert(object, grade).unwrap();
                    m.insert(object, grade);
                }
                None => {
                    live.delete(object).unwrap();
                    m.remove(&object);
                }
            }
        }
    };

    for i in 0..60usize {
        write(&mut model, pool_id(i), &|attr| {
            Some(if attr == "K" {
                Grade::from_bool(i % 5 == 0)
            } else {
                g((i % 10) as f64 / 10.0)
            })
        });
    }
    each_store(&sub, |live| {
        live.flush().unwrap();
    });
    // Overwrite: object 0 jumps to the top of every fuzzy ranking.
    write(&mut model, pool_id(0), &|attr| {
        Some(if attr == "K" { Grade::ONE } else { g(0.95) })
    });
    // Tombstone over compacted entries, plus delete-then-reinsert.
    write(&mut model, pool_id(7), &|_| None);
    write(&mut model, pool_id(8), &|_| None);
    write(&mut model, pool_id(8), &|_| Some(g(0.33)));
    assert_live_equals_memory(&sub, &model, "pinned overwrite/tombstone");
    each_store(&sub, |live| {
        live.flush().unwrap();
    });
    assert_live_equals_memory(&sub, &model, "pinned cases compacted");
}

#[test]
fn a_snapshot_survives_the_compaction_that_retires_its_segment() {
    // A reader pins a snapshot whose base segment is then compacted away
    // (file deleted, cache blocks retired) while the reader is mid-stream.
    // The snapshot must keep serving the exact pinned state.
    let root = temp_dir("live-snapshot-isolation");
    let cache = Arc::new(BlockCache::new(64));
    let live = LiveSource::open(
        &root.join("attr"),
        Arc::clone(&cache),
        LiveOptions::default(),
    )
    .unwrap();
    let mut model: BTreeMap<ObjectId, Grade> = BTreeMap::new();
    for i in 0..200usize {
        let grade = g((i % 17) as f64 / 16.0);
        live.upsert(pool_id(i), grade).unwrap();
        model.insert(pool_id(i), grade);
    }
    live.flush().unwrap(); // the snapshot's base segment
    let pinned = live.snapshot();
    let expected = MemorySource::from_pairs(model.iter().map(|(&o, &gr)| (o, gr)));

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // Stream slowly, in small batches, while the writer compacts.
            let mut out = Vec::new();
            let mut rank = 0;
            loop {
                let got = pinned.sorted_batch(rank, 16, &mut out);
                rank += got;
                if got < 16 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            out
        });
        // Overwrite everything and compact twice: the pinned snapshot's
        // base segment is deleted and its cache blocks retired mid-read.
        for i in 0..200usize {
            live.upsert(pool_id(i), g(0.01)).unwrap();
        }
        live.flush().unwrap();
        live.delete(pool_id(3)).unwrap();
        live.flush().unwrap();

        let streamed = reader.join().unwrap();
        let mut want = Vec::new();
        expected.sorted_batch(0, expected.len(), &mut want);
        assert_eq!(streamed, want, "the pinned snapshot never tears");
    });

    // And the store's current state moved on underneath it.
    let now = live.snapshot();
    assert_eq!(now.len(), 199);
    assert_eq!(now.random_access(pool_id(3)), None);
    assert_eq!(now.random_access(pool_id(0)), Some(g(0.01)));
    assert_eq!(
        pinned.random_access(pool_id(3)),
        expected.random_access(pool_id(3))
    );
}

#[test]
fn concurrent_readers_see_exactly_one_consistent_snapshot_each() {
    // Background compaction on, tiny memtables, writers hammering: every
    // snapshot any reader takes must be internally consistent — length
    // matches the stream, the stream is strictly skeleton-ordered with no
    // duplicate objects, and random access agrees with the stream.
    let root = temp_dir("live-concurrent");
    let cache = Arc::new(BlockCache::new(64));
    let live = LiveSource::open(
        &root.join("attr"),
        Arc::clone(&cache),
        LiveOptions {
            memtable_limit: 32,
            auto_compact: true,
            ..LiveOptions::default()
        },
    )
    .unwrap();
    for i in 0..100usize {
        live.upsert(pool_id(i), g(0.5)).unwrap();
    }

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (stop, live) = (&stop, &live);
        let mut readers = Vec::new();
        for _ in 0..3 {
            readers.push(scope.spawn(move || {
                let mut checked = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let snap = live.snapshot();
                    let mut stream = Vec::new();
                    snap.sorted_batch(0, snap.len() + 8, &mut stream);
                    assert_eq!(stream.len(), snap.len(), "len matches the stream");
                    for w in stream.windows(2) {
                        assert!(
                            w[0].grade > w[1].grade
                                || (w[0].grade == w[1].grade && w[0].object < w[1].object),
                            "strict skeleton order (thus no duplicates)"
                        );
                    }
                    for e in stream.iter().step_by(13) {
                        assert_eq!(
                            snap.random_access(e.object),
                            Some(e.grade),
                            "random access agrees with the stream"
                        );
                    }
                    checked += 1;
                }
                checked
            }));
        }
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1500 {
            let object = pool_id(rng.gen_range(0..POOL));
            if rng.gen_bool(0.25) {
                live.delete(object).unwrap();
            } else {
                live.upsert(object, g(rng.gen_range(0..=100) as f64 / 100.0))
                    .unwrap();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "readers made progress");
        }
    });
    assert!(live.last_compact_error().is_none());
}

#[test]
fn a_write_flips_the_planner_decision_without_reopening() {
    // The stale-footer regression (satellite of the write-path issue): the
    // planner's Filtered-vs-stream choice must see memtable deltas. With a
    // permissive crisp attribute the stream strategy wins; after writes
    // shrink the match set, the SAME subsystem instance must flip to
    // Filtered — and answer identically to an in-RAM twin in both states.
    use garlic::middleware::{GarlicQuery, Strategy};
    use garlic::subsys::Target;

    const N: usize = 200;
    let mut db = Db::quantised(N, 7);
    db.lists[3] = (0..N).map(|i| Grade::from_bool(i < 120)).collect();
    let sub = Arc::new(support::live(&db, &temp_dir("live-planner-flip")));
    let k_live = Arc::clone(sub.live_source("K").unwrap());
    let garlic = garlic_over(&(sub as Arc<dyn Subsystem>), Default::default());
    let query = GarlicQuery::and(
        GarlicQuery::atom("K", Target::text("t")),
        GarlicQuery::atom("A", Target::text("t")),
    );
    let twin = |db: &Db| {
        garlic_over(&db.memory(), Default::default())
            .top_k(&query, 5)
            .unwrap()
    };

    // 120 matches: enumerating them costs more than streaming A0'.
    let before = garlic.top_k(&query, 5).unwrap();
    assert_eq!(before.plan.strategy, Strategy::FaMin);
    let want = twin(&db);
    assert_eq!(before.plan.strategy, want.plan.strategy);
    assert_eq!(before.answers.entries(), want.answers.entries());
    assert_eq!(before.stats, want.stats);

    // Writes shrink the match set to 5 — no reopen, no re-registration.
    for i in 5..120 {
        k_live.upsert(ObjectId(i as u64), Grade::ZERO).unwrap();
        db.lists[3][i] = Grade::ZERO;
    }
    let after = garlic.top_k(&query, 5).unwrap();
    assert_eq!(
        after.plan.strategy,
        Strategy::Filtered { crisp_index: 0 },
        "the planner must see the memtable delta immediately"
    );
    let want = twin(&db);
    assert_eq!(after.plan.strategy, want.plan.strategy);
    assert_eq!(after.answers.entries(), want.answers.entries());
    assert_eq!(after.stats, want.stats);
}
