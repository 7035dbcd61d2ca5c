//! The Section 4 access-contract audit (`garlic_core::validate`) run
//! against disk-backed sources — the exact vetting a middleware deployment
//! would run before registering a persistent collection, against both a
//! cold and a warm cache (cache state must never be observable in the
//! contract).

use std::path::PathBuf;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{BoundedBatch, CountingSource, GradedSource, MemorySource};
use garlic_core::validate::validate_source;
use garlic_core::{ObjectId, ShardedSource};
use garlic_storage::{BlockCache, LiveOptions, LiveSource, SegmentSource, SegmentWriter, WalOp};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-storage-validate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// 100 grades over an 11-point grid: plenty of ties, several blocks.
fn grades() -> Vec<Grade> {
    (0..100)
        .map(|i| Grade::clamped((i * 7 % 11) as f64 / 10.0))
        .collect()
}

fn graded_segment(name: &str, block_size: usize) -> PathBuf {
    let path = temp_path(name);
    SegmentWriter::with_block_size(block_size)
        .unwrap()
        .write_grades(&path, &grades())
        .unwrap();
    path
}

#[test]
fn cold_segment_passes_the_audit() {
    let path = graded_segment("cold.seg", 64);
    let cache = Arc::new(BlockCache::new(64));
    let seg = SegmentSource::open(&path, Arc::clone(&cache)).unwrap();
    assert_eq!(cache.stats().resident, 0, "audit starts cold");
    validate_source(&seg).unwrap();
}

#[test]
fn warm_segment_passes_the_audit() {
    let path = graded_segment("warm.seg", 64);
    let seg = SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap();
    // Warm every block through both access paths, then audit again.
    let mut out = Vec::new();
    seg.sorted_batch(0, 100, &mut out);
    for entry in &out {
        seg.random_access(entry.object).unwrap();
    }
    assert!(seg.cache().stats().hits + seg.cache().stats().misses > 0);
    validate_source(&seg).unwrap();
    let warm = seg.cache().stats();
    assert!(warm.hits > 0, "warm audit served from cache");
}

#[test]
fn audit_passes_under_an_evicting_cache() {
    // A cache smaller than one region: every block is repeatedly evicted
    // and reloaded mid-audit; the stream must not care.
    let path = graded_segment("thrash.seg", 64);
    let cache = Arc::new(BlockCache::new(2));
    let seg = SegmentSource::open(&path, Arc::clone(&cache)).unwrap();
    validate_source(&seg).unwrap();
    assert!(cache.stats().evictions > 0, "the audit really did thrash");
}

#[test]
fn audit_cost_is_linear_on_disk_too() {
    // Same pin as the core contract tests: 2·len sorted + 2·len random
    // (one per-object pass plus one batched pass; the audit's deliberate
    // miss probes bill nothing) — block reads are not accesses; the
    // Section 5 bill must not change because the source pages from disk.
    let path = graded_segment("metered.seg", 64);
    let seg =
        CountingSource::new(SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap());
    validate_source(&seg).unwrap();
    let stats = seg.stats();
    assert_eq!(stats.sorted, 200);
    assert_eq!(stats.random, 200);
}

#[test]
fn owned_handles_pass_the_audit() {
    let path = graded_segment("arc.seg", 64);
    let seg: Arc<dyn GradedSource> =
        Arc::new(SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap());
    validate_source(&seg).unwrap();
}

#[test]
fn crisp_and_empty_segments_pass_the_audit() {
    let crisp_path = temp_path("crisp.seg");
    SegmentWriter::with_block_size(48)
        .unwrap()
        .write_grades(
            &crisp_path,
            &(0..20)
                .map(|i| Grade::from_bool(i % 3 == 0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    let crisp = SegmentSource::open(&crisp_path, Arc::new(BlockCache::new(8))).unwrap();
    assert!(crisp.is_crisp());
    validate_source(&crisp).unwrap();

    let empty_path = temp_path("empty.seg");
    SegmentWriter::new().write_grades(&empty_path, &[]).unwrap();
    let empty = SegmentSource::open(&empty_path, Arc::new(BlockCache::new(8))).unwrap();
    validate_source(&empty).unwrap();
}

/// The bounded read is the plain read on every backend: whatever the
/// bound, it appends the same entries and bills the same accesses as
/// `try_sorted_batch`, and never reports a truncation.
#[test]
fn bounded_read_is_the_plain_read_on_every_backend() {
    let grades = grades();
    let memory = MemorySource::from_grades(&grades);
    let segment = SegmentSource::open(
        graded_segment("bounded.seg", 64),
        Arc::new(BlockCache::new(64)),
    )
    .unwrap();
    let sharded = ShardedSource::from_grades(&grades, 3);
    // A live snapshot: a compacted base under an overlay that raises,
    // deletes and adds objects.
    let dir = temp_path("bounded-live");
    let _ = std::fs::remove_dir_all(&dir);
    let live =
        LiveSource::open(&dir, Arc::new(BlockCache::new(64)), LiveOptions::default()).unwrap();
    let upserts: Vec<WalOp> = grades
        .iter()
        .enumerate()
        .map(|(i, &grade)| WalOp::Upsert {
            object: ObjectId(i as u64),
            grade,
        })
        .collect();
    live.write_batch(&upserts).unwrap();
    live.flush().unwrap();
    live.upsert(ObjectId(3), Grade::ONE).unwrap();
    live.delete(ObjectId(4)).unwrap();
    live.upsert(ObjectId(150), Grade::clamped(0.45)).unwrap();
    let snapshot = live.snapshot();

    let backends: [(&str, &dyn GradedSource); 4] = [
        ("memory", &memory),
        ("segment", &segment),
        ("3 shards", &sharded),
        ("live snapshot", &*snapshot),
    ];
    for (what, source) in backends {
        for bound in [Grade::ZERO, Grade::clamped(0.5), Grade::ONE] {
            let plain = CountingSource::new(source);
            let bounded = CountingSource::new(source);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            // Batches of 7 walk every stream past its end.
            for start in (0..source.len() + 7).step_by(7) {
                let appended = plain.try_sorted_batch(start, 7, &mut want).unwrap();
                let read = bounded
                    .try_sorted_batch_bounded(start, 7, bound, &mut got)
                    .unwrap();
                let expected = BoundedBatch {
                    appended,
                    truncated: false,
                };
                assert_eq!(read, expected, "{what}, bound {bound}, rank {start}");
            }
            assert_eq!(got, want, "{what}, bound {bound}: entries");
            assert_eq!(
                bounded.stats(),
                plain.stats(),
                "{what}, bound {bound}: bill"
            );
            assert_eq!(plain.stats().sorted, source.len() as u64, "{what}");
        }
    }
}
