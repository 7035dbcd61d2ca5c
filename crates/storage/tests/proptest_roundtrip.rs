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
use garlic_storage::format::{Footer, GRADE_DICT_MAX, TRAILER_LEN};
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
    /// emit the exact unbounded stream: the hint is
    /// advisory and no segment stops early, so nothing is withheld, no
    /// read claims a truncation, the bill is exactly the entries emitted,
    /// and resuming unbounded from the rank reached adds nothing.
    #[test]
    fn hinted_cursors_stay_exact_under_dirty_hints(
        pairs in pairs_strategy(),
        block_size in block_size_strategy(),
        bound_num in 0u32..=10,
        batch in 1usize..17,
    ) {
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
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

/// Case count of the two properties below: 48 locally, like the rest of
/// the suite; CI runs each once more by name with `PROPTEST_CASES` raised,
/// since they pin the one reader every segment goes through.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Whether the segment at `path` stores its grades through a dictionary.
fn in_dict_mode(path: &PathBuf) -> bool {
    let bytes = std::fs::read(path).unwrap();
    let trailer = bytes.len() - TRAILER_LEN as usize;
    let at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    !Footer::parse(&bytes[at..trailer])
        .unwrap()
        .grade_dict
        .is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A segment over any pairs is observably the `MemorySource` over
    /// them, at every block size and in both grade modes: the same stream
    /// in `batch`-sized reads (tie order included), the same answer to
    /// every probe, the same matching set and the same Section-5 bills.
    /// In delta mode the pairs are joined by more distinct grades, on ids
    /// from 1 000 up, than a dictionary holds.
    #[test]
    fn segments_in_both_grade_modes_are_observably_memory(
        pairs in pairs_strategy(),
        mode in 0u8..2,
        block_size in block_size_strategy(),
        batch in 1usize..17,
    ) {
        let (mut pairs, delta) = (pairs, mode == 1);
        if delta {
            // (i + 0.5) / 8 194 is never an eighth, nor another's grade.
            pairs.extend((0..=GRADE_DICT_MAX as u64).map(|i| {
                (ObjectId(1_000 + i), Grade::clamped((i as f64 + 0.5) / 8_194.0))
            }));
        }
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        // An empty list has no grades, so no dictionary either.
        prop_assert_eq!(in_dict_mode(&path), !delta && !pairs.is_empty());
        let sources = (
            CountingSource::new(reopen(&path)),
            CountingSource::new(MemorySource::from_pairs(pairs)),
        );
        let probes: Vec<ObjectId> = (0..220).chain(995..1_010).chain(5_090..5_100).map(ObjectId).collect();
        let observe = |seg: &dyn GradedSource, set: &dyn SetAccess| {
            let mut stream = Vec::new();
            while seg.sorted_batch(stream.len(), batch, &mut stream) > 0 {}
            let answers: Vec<_> = probes.iter().map(|&p| seg.random_access(p)).collect();
            (stream, answers, set.matching_set())
        };
        let (seg, mem) = &sources;
        let got = observe(seg, seg);
        let want = observe(mem, mem);
        prop_assert_eq!(&got.0, &want.0, "streams and tie order");
        prop_assert_eq!(&got.1, &want.1, "random access");
        prop_assert_eq!(&got.2, &want.2, "matching set");
        prop_assert_eq!(seg.stats(), mem.stats(), "Section-5 bills");
    }
}

/// Ids in runs of consecutive values separated by gaps, from `start` on,
/// the runs repeated until there are at least `min_len` ids; with `top`,
/// shifted so the last id is `u64::MAX`.
fn run_ids(runs: &[(u64, u64)], start: u64, min_len: usize, top: bool) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut next = start;
    while ids.len() < min_len.max(1) {
        for &(len, gap) in runs {
            ids.extend(next..next + len);
            next += len + gap;
        }
    }
    if top {
        let shift = u64::MAX - ids[ids.len() - 1];
        ids.iter_mut().for_each(|id| *id += shift);
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random access on a segment over ids with gaps — so some table
    /// blocks hold a run of consecutive ids (the probe addresses its
    /// entry by its distance from the block's fence, and the block keeps
    /// no restarts) and others do not (the probe walks the block's id run
    /// from a restart) — answers exactly what a `MemorySource` over the
    /// same pairs answers.
    /// Probes fall below the first fence, on both sides of every run,
    /// inside the gaps, past the largest id (up to `u64::MAX`) and on
    /// duplicates. Grades take each cell width of the grade column: a
    /// 9-grade dictionary (1 byte), a dictionary of up to 1 000 grades (2
    /// bytes) and more distinct grades than a dictionary holds (8 bytes).
    #[test]
    fn probes_over_sparse_ids_answer_like_memory(
        runs in proptest::collection::vec((1u64..40, 1u64..5), 1..12),
        start in 0u64..50,
        mode in 0u8..3,
        top in 0u8..2,
        block_size in block_size_strategy(),
        picks in proptest::collection::vec((0usize..1 << 16, 0u64..7), 0..60),
    ) {
        // Dictionary mode ends past `GRADE_DICT_MAX` distinct grades.
        let min_len = if mode == 2 { 4_200 } else { 0 };
        let ids = run_ids(&runs, start, min_len, top == 1);
        let n = ids.len();
        let pairs: Vec<(ObjectId, Grade)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let grade = match mode {
                    0 => (i * 7 % 9) as f64 / 8.0,
                    1 => (i * 7919 % 1_000) as f64 / 1_000.0,
                    _ => i as f64 / n as f64,
                };
                (ObjectId(id), Grade::clamped(grade))
            })
            .collect();
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let seg = reopen(&path);
        let mem = MemorySource::from_pairs(pairs);

        // Both sides of every id, the ids below the first and past the
        // last, then picked ids shifted into their gaps, each probed twice.
        let mut probes: Vec<u64> = vec![0, 1, u64::MAX - 1, u64::MAX];
        for &id in &ids {
            probes.extend([id.saturating_sub(1), id, id.saturating_add(1)]);
        }
        for &(at, shift) in &picks {
            let id = ids[at % n].saturating_add(shift);
            probes.extend([id, id]);
        }
        let probes: Vec<ObjectId> = probes.into_iter().map(ObjectId).collect();

        let (mut got, mut want) = (Vec::new(), Vec::new());
        seg.random_batch(&probes, &mut got);
        mem.random_batch(&probes, &mut want);
        prop_assert_eq!(&got, &want, "batch");
        for &(at, shift) in &picks {
            let probe = ObjectId(ids[at % n].saturating_add(shift));
            prop_assert_eq!(seg.random_access(probe), mem.random_access(probe), "{:?}", probe);
        }
    }
}

/// Ids for table blocks of `per_block` entries each, block by block: a
/// dense block `(1, _)` holds consecutive ids and runs on to the next
/// block's fence, a gapped block `(0, gap)` skips `gap` ids behind its
/// first. Blocks take their shapes from `shapes` in turn until there are
/// at least `min_len` ids; then comes `last`, the last block, of `last_len`
/// ids (at most `per_block`).
fn shaped_ids(
    shapes: &[(u8, u64)],
    last: (u8, u64),
    per_block: usize,
    last_len: usize,
    min_len: usize,
    start: u64,
) -> Vec<u64> {
    let full = shapes.len().max(min_len.div_ceil(per_block));
    let blocks = shapes.iter().cycle().take(full).map(|&s| (s, per_block));
    let mut ids = Vec::new();
    let mut next = start;
    for ((dense, gap), count) in blocks.chain([(last, last_len)]) {
        for j in 0..count {
            ids.push(next);
            next += 1 + if dense == 0 && j == 0 { gap } else { 0 };
        }
    }
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A segment whose table blocks mix dense runs (stored as their grade
    /// column alone) with gapped ones (an id run in front of the column),
    /// the last block dense or gapped, reads back
    /// as the `MemorySource` of the same pairs, at every block size and in
    /// both grade modes: the same stream in `batch`-sized reads, and the
    /// same answer to every probe — each id, the ids in the gaps, below
    /// the first fence and past the largest id. The writer stores exactly
    /// the blocks whose own ids have no gap, the last included, without an
    /// id run, and the restart index holds restarts for the data blocks
    /// and the gapped table blocks only.
    #[test]
    fn segments_of_mixed_table_block_shapes_answer_like_memory(
        shapes in proptest::collection::vec((0u8..2, 1u64..4), 1..8),
        last in (0u8..2, 1u64..4),
        last_len in 1usize..=256,
        mode in 0u8..2,
        start in 0u64..40,
        block_size in block_size_strategy(),
        batch in 1usize..40,
    ) {
        use garlic_storage::format::{cell_width, Restart, RESTART_INTERVAL};

        let (per_block, delta) = (block_size / 16, mode == 1);
        let last_len = (last_len - 1) % per_block + 1;
        // Delta mode takes more distinct grades than a dictionary holds.
        let min_len = if delta { GRADE_DICT_MAX + 1 } else { 0 };
        let ids = shaped_ids(&shapes, last, per_block, last_len, min_len, start);
        let n = ids.len();
        let pairs: Vec<(ObjectId, Grade)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let grade = if delta { i as f64 / n as f64 } else { (i * 7 % 9) as f64 / 8.0 };
                (ObjectId(id), Grade::clamped(grade))
            })
            .collect();
        let path = case_path();
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        prop_assert_eq!(in_dict_mode(&path), !delta);
        let seg = reopen(&path);
        let mem = MemorySource::from_pairs(pairs);

        let (mut got, mut want) = (Vec::new(), Vec::new());
        while seg.sorted_batch(got.len(), batch, &mut got) > 0 {}
        while mem.sorted_batch(want.len(), batch, &mut want) > 0 {}
        prop_assert_eq!(&got, &want, "stream");

        let max = ids[n - 1];
        let probes: Vec<ObjectId> = (0..=max + 3).chain([u64::MAX - 1, u64::MAX]).map(ObjectId).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        seg.random_batch(&probes, &mut got);
        mem.random_batch(&probes, &mut want);
        prop_assert_eq!(&got, &want, "probes");
        for &probe in probes.iter().step_by(7) {
            prop_assert_eq!(seg.random_access(probe), mem.random_access(probe), "{:?}", probe);
        }

        // Which table blocks are dense: those whose ids are their first id
        // onwards, with no gap (one after the block does not count).
        let blocks: Vec<&[u64]> = ids.chunks(per_block).collect();
        let dense: Vec<bool> = blocks
            .iter()
            .map(|block| block[block.len() - 1] - block[0] + 1 == block.len() as u64)
            .collect();
        let bytes = std::fs::read(&path).unwrap();
        let trailer = bytes.len() - TRAILER_LEN as usize;
        let at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let footer = Footer::parse(&bytes[at..trailer]).unwrap();
        let width = cell_width(footer.grade_dict.len());
        for (i, block) in blocks.iter().enumerate() {
            let len = footer.table_block_lens[i] as usize;
            prop_assert_eq!(len == block.len() * width, dense[i], "table block {}", i);
        }
        let restarts = |count: usize| (count - 1) / RESTART_INTERVAL;
        let data: usize = blocks.iter().map(|b| restarts(b.len())).sum();
        let gapped: usize = blocks
            .iter()
            .zip(&dense)
            .filter(|(_, &dense)| !dense)
            .map(|(b, _)| restarts(b.len()))
            .sum();
        prop_assert_eq!(
            seg.restart_index_bytes(),
            (data + gapped) * std::mem::size_of::<Restart>(),
            "restart index"
        );
    }
}
