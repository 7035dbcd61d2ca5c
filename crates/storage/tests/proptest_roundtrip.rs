//! The round-trip property: a segment written from any graded list and
//! reopened must be **bit-identical** to a [`MemorySource`] over the same
//! pairs — the same entries in the same skeleton (tie) order, the same
//! random-access answers, the same Section-5 access counts under metering,
//! and the same resumed-paging output from a cold cursor. Disk is an
//! implementation detail; the paper's access contract is the observable.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::iterated::min_agg;
use garlic_agg::Grade;
use garlic_core::access::{CountingSource, GradedSource, MemorySource, SetAccess};
use garlic_core::algorithms::fa::fagin_topk;
use garlic_core::{GradedEntry, ObjectId};
use garlic_storage::format::{FORMAT_V1, FORMAT_VERSION};
use garlic_storage::{BlockCache, SegmentSource, SegmentWriter};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_path() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-storage-proptest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("case-{}.seg", CASE.fetch_add(1, Ordering::Relaxed)))
}

/// Sparse pairs with deliberately collision-prone ids (deduplicated) and
/// quantized grades so ties are common — tie order is the property under
/// test.
fn pairs_strategy() -> impl Strategy<Value = Vec<(ObjectId, Grade)>> {
    proptest::collection::vec((0u64..200, 0u32..=8), 0..120).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|(id, _)| seen.insert(*id))
            .map(|(id, g)| (ObjectId(id), Grade::clamped(g as f64 / 8.0)))
            .collect()
    })
}

/// Block sizes from one-entry blocks to the default page, so batch and
/// block boundaries land everywhere relative to each other.
fn block_size_strategy() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [16, 48, 160, 4096][i])
}

/// Both on-disk format versions, so every property holds for each.
fn version_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(FORMAT_V1), Just(FORMAT_VERSION)]
}

fn reopen(path: &PathBuf) -> SegmentSource {
    SegmentSource::open(path, Arc::new(BlockCache::new(32))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Entries, tie order, random access, and the matching set all equal
    /// the in-memory source — under both a cold and a warm cache.
    #[test]
    fn segment_is_bit_identical_to_memory(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let seg = reopen(&path);
        let mem = MemorySource::from_pairs(pairs.clone());

        prop_assert_eq!(seg.len(), mem.len());
        for pass in ["cold", "warm"] {
            for rank in 0..=mem.len() {
                prop_assert_eq!(
                    seg.sorted_access(rank),
                    mem.sorted_access(rank),
                    "{} rank {}", pass, rank
                );
            }
            for probe in 0..220u64 {
                prop_assert_eq!(
                    seg.random_access(ObjectId(probe)),
                    mem.random_access(ObjectId(probe)),
                    "{} object {}", pass, probe
                );
            }
            prop_assert_eq!(seg.matching_set(), mem.matching_set(), "{}", pass);
        }
    }

    /// The batched sorted stream replays the positional stream for any
    /// batch size, and metering bills identically on both backends.
    #[test]
    fn cursor_stream_and_counts_match_memory(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        batch in 1usize..17,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let seg = CountingSource::new(reopen(&path));
        let mem = CountingSource::new(MemorySource::from_pairs(pairs));

        let mut seg_stream = Vec::new();
        while seg.sorted_batch(seg_stream.len(), batch, &mut seg_stream) > 0 {}
        let mut mem_stream = Vec::new();
        while mem.sorted_batch(mem_stream.len(), batch, &mut mem_stream) > 0 {}

        prop_assert_eq!(seg_stream, mem_stream);
        prop_assert_eq!(seg.stats(), mem.stats(), "identical Section-5 bills");
    }

    /// Block-grouped batched random access is observably the per-object
    /// loop: for arbitrary sparse probe sequences — duplicates, misses
    /// below/between/above the fences — the segment's `random_batch`
    /// answers exactly what `MemorySource` answers, positionally aligned,
    /// with identical Section-5 random bills, and touches each candidate
    /// table block at most once per batch.
    #[test]
    fn segment_random_batch_matches_memory_and_bills_identically(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        raw_probes in proptest::collection::vec(0u64..220, 0..80),
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let cache = Arc::new(BlockCache::new(64));
        let seg = CountingSource::new(
            SegmentSource::open(&path, Arc::clone(&cache)).unwrap(),
        );
        let mem = CountingSource::new(MemorySource::from_pairs(pairs));
        let probes: Vec<ObjectId> = raw_probes.into_iter().map(ObjectId).collect();

        let mut from_seg = Vec::new();
        seg.random_batch(&probes, &mut from_seg);
        let mut from_mem = Vec::new();
        mem.random_batch(&probes, &mut from_mem);
        prop_assert_eq!(&from_seg, &from_mem);
        prop_assert_eq!(seg.stats(), mem.stats(), "identical random bills");

        // Probe-for-probe agreement with the per-object path too.
        let looped: Vec<Option<Grade>> =
            probes.iter().map(|&p| seg.random_access(p)).collect();
        prop_assert_eq!(&from_seg, &looped);

        // Block economy: the batch issued at most one cache request per
        // table block (every probe with a fence candidate maps to one).
        let entries_per_block = block_size / 16;
        let table_blocks = seg.inner().len().div_ceil(entries_per_block.max(1)) as u64;
        // The per-probe loop above polluted the counters; isolate one
        // batch's requests by re-running it against a cleared cache.
        cache.clear();
        let base = cache.stats();
        let mut again = Vec::new();
        seg.random_batch(&probes, &mut again);
        let after = cache.stats();
        let batch_requests = (after.hits + after.misses) - (base.hits + base.misses);
        prop_assert!(
            batch_requests <= table_blocks,
            "one batch issued {batch_requests} block requests over {table_blocks} table blocks"
        );
    }

    /// Fagin's algorithm over segment-backed sources returns the same
    /// top-k entries (objects, grades, tie order) with the same per-source
    /// Section-5 access counts as over memory-backed sources.
    #[test]
    fn fagin_topk_costs_the_same_on_disk(
        lists in proptest::collection::vec(
            proptest::collection::vec(0u32..=8, 1..40),
            1..4,
        ),
        k in 1usize..12,
    ) {
        let n = lists.iter().map(|l| l.len()).min().unwrap();
        let grades: Vec<Vec<Grade>> = lists
            .iter()
            .map(|l| l[..n].iter().map(|&g| Grade::clamped(g as f64 / 8.0)).collect())
            .collect();
        let k = k.min(n);

        let mem: Vec<CountingSource<MemorySource>> = grades
            .iter()
            .map(|g| CountingSource::new(MemorySource::from_grades(g)))
            .collect();
        let cache = Arc::new(BlockCache::new(64));
        let seg: Vec<CountingSource<SegmentSource>> = grades
            .iter()
            .map(|g| {
                let path = case_path();
                SegmentWriter::with_block_size(48)
                    .unwrap()
                    .write_grades(&path, g)
                    .unwrap();
                CountingSource::new(SegmentSource::open(&path, Arc::clone(&cache)).unwrap())
            })
            .collect();

        let agg = min_agg();
        let from_mem = fagin_topk(&mem, &agg, k).unwrap();
        let from_seg = fagin_topk(&seg, &agg, k).unwrap();

        prop_assert_eq!(from_seg.entries(), from_mem.entries(), "same answers, same tie order");
        for (s, m) in seg.iter().zip(&mem) {
            prop_assert_eq!(s.stats(), m.stats(), "same per-source access counts");
        }
    }

    /// Threshold-hinted reads — with an arbitrary, possibly dirty hint —
    /// emit the exact unbounded stream on either format: the hint is
    /// advisory and no segment stops early, so nothing is withheld, no
    /// read claims a truncation, the bill is exactly the entries emitted,
    /// and resuming unbounded from the rank reached adds nothing.
    #[test]
    fn hinted_cursors_stay_exact_under_dirty_hints(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        version in version_strategy(),
        bound_num in 0u32..=10,
        batch in 1usize..17,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .with_version(version)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let mem = MemorySource::from_pairs(pairs);
        let full: Vec<GradedEntry> =
            (0..mem.len()).map(|r| mem.sorted_access(r).unwrap()).collect();
        // Grades are quantized to eighths, the hint to tenths: hints land
        // on, between, above, and below every grade in the stream —
        // including hints no entry reaches (dirty-high) and ZERO.
        let bound = Grade::clamped(bound_num as f64 / 10.0);

        let seg = CountingSource::new(reopen(&path));
        let mut emitted = Vec::new();
        let stopped_by_bound = loop {
            let read = seg.sorted_batch_bounded(emitted.len(), batch, bound, &mut emitted);
            if read.truncated || read.appended < batch {
                break read.truncated;
            }
        };

        prop_assert_eq!(&emitted[..], &full[..emitted.len()], "exact prefix");
        prop_assert_eq!(
            seg.stats().sorted,
            emitted.len() as u64,
            "billed exactly the emitted entries"
        );
        prop_assert!(!stopped_by_bound, "no segment stops early");
        prop_assert_eq!(emitted.len(), full.len(), "no stop means the whole stream");

        while seg.sorted_batch(emitted.len(), batch, &mut emitted) > 0 {}
        prop_assert_eq!(emitted, full, "stitched stream equals the unbounded one");
    }

    /// Paging that stops mid-stream and resumes **cold** — a fresh
    /// `SegmentSource` over a fresh cache, positioned by rank alone, as a
    /// process restart would — continues exactly where the warm stream
    /// left off.
    #[test]
    fn paging_resumes_from_a_cold_cursor(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        cut in 0usize..140,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let mem = MemorySource::from_pairs(pairs);
        let cut = cut.min(mem.len());

        // First process: page up to `cut` entries, remember only the rank.
        let mut first_leg: Vec<GradedEntry> = Vec::new();
        let resume_at = {
            let seg = reopen(&path);
            loop {
                let want = (cut - first_leg.len()).min(5);
                if want == 0 || seg.sorted_batch(first_leg.len(), want, &mut first_leg) == 0 {
                    break;
                }
            }
            first_leg.len()
        };

        // Second process: reopen cold, resume at the remembered rank.
        let seg = reopen(&path);
        let mut second_leg = first_leg;
        let mut rank = resume_at;
        loop {
            let got = seg.sorted_batch(rank, 7, &mut second_leg);
            if got == 0 {
                break;
            }
            rank += got;
        }

        let reference: Vec<GradedEntry> =
            (0..mem.len()).map(|r| mem.sorted_access(r).unwrap()).collect();
        prop_assert_eq!(second_leg, reference, "stitched stream equals one-shot stream");
    }
}

/// Case count of the v1/v2 equivalence property: 48 locally, like the
/// rest of the suite; CI runs it once more by name with `PROPTEST_CASES`
/// raised, since it pins the one reader both versions go through.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A v1 segment and a v2 segment over the same pairs are observably
    /// one source: identical streams, tie order, random-access answers,
    /// matching sets, and Section-5 bills.
    #[test]
    fn v1_and_v2_formats_are_observably_identical(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        batch in 1usize..17,
    ) {
        let mut segs = Vec::new();
        for version in [FORMAT_V1, FORMAT_VERSION] {
            let path = case_path();
            SegmentWriter::with_block_size(block_size)
                .unwrap()
                .with_version(version)
                .unwrap()
                .write_pairs(&path, pairs.clone())
                .unwrap();
            segs.push(CountingSource::new(reopen(&path)));
        }
        let (v1, v2) = (&segs[0], &segs[1]);
        prop_assert_eq!(v1.inner().version(), FORMAT_V1);
        prop_assert_eq!(v2.inner().version(), FORMAT_VERSION);

        let mut streams = [Vec::new(), Vec::new()];
        for (seg, stream) in segs.iter().zip(streams.iter_mut()) {
            while seg.sorted_batch(stream.len(), batch, stream) > 0 {}
        }
        let [s1, s2] = streams;
        prop_assert_eq!(s1, s2, "identical streams and tie order");
        for probe in 0..220u64 {
            prop_assert_eq!(
                v1.random_access(ObjectId(probe)),
                v2.random_access(ObjectId(probe)),
                "object {}", probe
            );
        }
        prop_assert_eq!(v1.matching_set(), v2.matching_set());
        prop_assert_eq!(v1.stats(), v2.stats(), "identical Section-5 bills");
    }
}
