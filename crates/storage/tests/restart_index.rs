//! The restart index is invisible: a segment whose reads resume from
//! in-memory restart points (in a table block, into its id run) answers
//! exactly what a [`MemorySource`] answers — for every sorted range and
//! every probe id, in both grade modes, whatever the block geometry is
//! relative to the restart interval. (That a resumed decode equals the
//! decode from a block's start, encoding by encoding, is pinned next to the
//! decoder, in `format.rs`.) The index costs a bounded amount of memory,
//! none for a dense table block, and nothing on disk.

use std::path::PathBuf;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource};
use garlic_core::ObjectId;
use garlic_storage::format::{
    fnv1a64, Footer, Restart, FORMAT_VERSION, GRADE_DICT_MAX, RESTART_INTERVAL, TRAILER_LEN,
};
use garlic_storage::{BlockCache, SegmentSource, SegmentWriter};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-storage-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `n` pairs with sparse ids (every third id from 10 on, so each present id
/// has absent neighbours and ids below the first fence exist). `distinct`
/// caps the number of distinct grades: few selects the writer's dictionary
/// mode and makes ties common, `None` gives `n` distinct grades and the
/// bit-delta mode.
fn pairs(n: usize, distinct: Option<usize>) -> Vec<(ObjectId, Grade)> {
    (0..n)
        .map(|i| {
            let scrambled = i * 7919 % n.max(1);
            let grade = match distinct {
                Some(d) => (scrambled % d) as f64 / d as f64,
                None => scrambled as f64 / n as f64,
            };
            (ObjectId(10 + 3 * i as u64), Grade::clamped(grade))
        })
        .collect()
}

/// Writes `pairs` and opens the segment: with the grade mode its footer
/// records (`"dict"` or `"delta"`).
fn write_and_open(
    name: &str,
    pairs: &[(ObjectId, Grade)],
    block_size: usize,
) -> (SegmentSource, &'static str) {
    let path = temp_path(name);
    SegmentWriter::with_block_size(block_size)
        .unwrap()
        .write_pairs(&path, pairs.to_vec())
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let trailer = bytes.len() - TRAILER_LEN as usize;
    let at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    let footer = Footer::parse(&bytes[at..trailer]).unwrap();
    let mode = if !footer.grade_dict.is_empty() {
        "dict"
    } else {
        "delta"
    };
    let segment = SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap();
    (segment, mode)
}

/// Entries per block below, equal to, just past, not a multiple of, and a
/// multiple of the interval; entry counts that leave a short last block, a
/// last block of one entry, exactly full blocks, and (dictionary mode
/// only, one grade being one dictionary entry) a one-entry segment. The
/// delta column is pushed past the dictionary cap by whole blocks, so its
/// last-block shapes are the dictionary column's. The name is older than
/// the removal of version 1; the reference is `MemorySource` alone.
#[test]
fn every_range_and_every_probe_match_memory_and_v1() {
    let per_block = [
        RESTART_INTERVAL / 4,
        RESTART_INTERVAL,
        RESTART_INTERVAL + 1,
        RESTART_INTERVAL * 5 / 4,
        RESTART_INTERVAL * 3 + 4,
        RESTART_INTERVAL * 8,
    ];
    for entries_per_block in per_block {
        let past_cap = GRADE_DICT_MAX.div_ceil(entries_per_block) * entries_per_block;
        for n in [
            1,
            entries_per_block,
            entries_per_block + 1,
            2 * entries_per_block + RESTART_INTERVAL + 3,
        ] {
            for (mode, distinct, n) in [("dict", Some(9), n), ("delta", None, past_cap + n)] {
                let what = format!("{entries_per_block}/block n={n} {mode}");
                let pairs = pairs(n, distinct);
                let block_size = 16 * entries_per_block;
                let mem = MemorySource::from_pairs(pairs.clone());
                let (seg, written) = write_and_open("sweep.seg", &pairs, block_size);
                assert_eq!(written, mode, "{what}: footer mode");

                let mut want = Vec::new();
                mem.sorted_batch(0, n, &mut want);
                let mut got = Vec::new();
                // Every `from`; past 150 entries, the ranks around the
                // first restarts and blocks, around the start of the last
                // full block, and around the end of the list.
                let last_block = (n - 1) / entries_per_block * entries_per_block;
                let froms: Vec<usize> = if n <= 150 {
                    (0..=n).collect()
                } else {
                    [
                        0,
                        1,
                        RESTART_INTERVAL - 1,
                        RESTART_INTERVAL,
                        RESTART_INTERVAL + 1,
                    ]
                    .into_iter()
                    .chain([entries_per_block - 1, entries_per_block])
                    .chain([entries_per_block + 1, 2 * entries_per_block + 5])
                    .chain([last_block.saturating_sub(1), last_block, last_block + 1])
                    .chain([n - RESTART_INTERVAL - 1, n - 2, n - 1, n])
                    .filter(|&from| from <= n)
                    .collect()
                };
                for from in froms {
                    assert_eq!(seg.sorted_access(from), want.get(from).copied(), "{what}");
                    // Every `to`; past 150 entries, the lengths around the
                    // interval, the block and the end of the list.
                    let lengths = [0, 1, 2, RESTART_INTERVAL - 1, RESTART_INTERVAL]
                        .into_iter()
                        .chain([RESTART_INTERVAL + 1, entries_per_block, n - from, n]);
                    let all = from..=n + 1;
                    let tos: Vec<usize> = if n <= 150 {
                        all.collect()
                    } else {
                        lengths.map(|len| from + len).collect()
                    };
                    for to in tos {
                        got.clear();
                        seg.sorted_batch(from, to - from, &mut got);
                        assert_eq!(got, want[from..to.min(n)], "{what} [{from}, {to})");
                    }
                }

                // Every id from below the first fence to past the maximum:
                // present and absent, first and last of each block, on and
                // next to every restart.
                let max = pairs.last().unwrap().0 .0;
                let probes: Vec<ObjectId> = (0..=max + 3).chain([u64::MAX]).map(ObjectId).collect();
                let mut got = Vec::new();
                seg.random_batch(&probes, &mut got);
                for (probe, got) in probes.iter().zip(&got) {
                    assert_eq!(*got, mem.random_access(*probe), "{what} {probe:?}");
                    assert_eq!(seg.random_access(*probe), *got, "{what} {probe:?}");
                }
            }
        }
    }
}

/// One restart per `RESTART_INTERVAL` entries of each region: at most 2 B
/// per entry, on the default geometry and on an awkward one.
#[test]
fn index_memory_is_bounded_per_entry() {
    let n = 50_000;
    for (block_size, mode, distinct) in [
        (4096, "delta", None),
        (4096, "dict", Some(100)),
        (16 * (RESTART_INTERVAL + 1), "delta", None),
    ] {
        let (seg, written) = write_and_open("memory.seg", &pairs(n, distinct), block_size);
        assert_eq!(written, mode, "{block_size}: footer mode");
        let bytes = seg.restart_index_bytes();
        assert!(
            bytes > 0,
            "{block_size} {mode}: blocks this long have restarts"
        );
        assert!(
            bytes <= 2 * n,
            "{block_size} {mode}: {bytes} B of restarts for {n} entries"
        );
    }
}

/// A dense table block — ids exactly its fence onwards, as in a segment
/// over `0..N` — keeps no restarts, since a probe addresses its entry by
/// its distance from the fence: the index holds the data blocks' restarts
/// alone. A sparse segment (every third id) keeps the table blocks' too,
/// one per interval as in the data blocks. Its probes answering like
/// memory is the sweep above. 10 032 entries leave a last block long
/// enough for a restart (48 entries at 256 a block, 33 at 33), so the
/// last block is covered too.
#[test]
fn dense_table_blocks_keep_no_restarts() {
    let n = 10_032;
    for block_size in [4096, 16 * (RESTART_INTERVAL + 1), 16 * RESTART_INTERVAL] {
        let per_block = block_size / 16;
        // Restarts of one region: one per interval past each block's start.
        let region: usize = (0..n)
            .step_by(per_block)
            .map(|start| (per_block.min(n - start) - 1) / RESTART_INTERVAL)
            .sum();
        let bytes = region * std::mem::size_of::<Restart>();
        let dense: Vec<(ObjectId, Grade)> = pairs(n, Some(100))
            .into_iter()
            .enumerate()
            .map(|(i, (_, grade))| (ObjectId(i as u64), grade))
            .collect();
        let (seg, _) = write_and_open("dense.seg", &dense, block_size);
        assert_eq!(seg.restart_index_bytes(), bytes, "{block_size}: dense");
        let (seg, _) = write_and_open("sparse.seg", &pairs(n, Some(100)), block_size);
        assert_eq!(seg.restart_index_bytes(), 2 * bytes, "{block_size}: sparse");
    }
}

/// A segment over `0..N` whose last table block is short stores that block
/// as its grade column alone, like every block in front of it: its stored
/// length is `count × width`, in both grade modes, and it keeps no
/// restarts although it is long enough for one (48 entries).
#[test]
fn a_short_last_block_over_dense_ids_is_its_column_alone() {
    let n = 10_032;
    let per_block = 256;
    for (distinct, width) in [(Some(100), 1), (None, 8)] {
        let dense: Vec<(ObjectId, Grade)> = pairs(n, distinct)
            .into_iter()
            .enumerate()
            .map(|(i, (_, grade))| (ObjectId(i as u64), grade))
            .collect();
        let (seg, _) = write_and_open("dense-last.seg", &dense, 16 * per_block);
        let bytes = std::fs::read(temp_path("dense-last.seg")).unwrap();
        let trailer = bytes.len() - TRAILER_LEN as usize;
        let at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
        let footer = Footer::parse(&bytes[at..trailer]).unwrap();
        let (last, full) = footer.table_block_lens.split_last().unwrap();
        assert_eq!(*last as usize, (n % per_block) * width, "{distinct:?}");
        assert!(full.iter().all(|&len| len as usize == per_block * width));
        // The data blocks' restarts alone: 7 per full block, 1 in the last.
        let data = (n / per_block) * 7 + 1;
        assert_eq!(
            seg.restart_index_bytes(),
            data * std::mem::size_of::<Restart>(),
            "{distinct:?}"
        );
    }
}

/// The index is built in memory at open; the writer knows nothing of it.
/// The rows were pinned when version 6 came in, from a block-by-block
/// comparison with the version-5 files of the same pairs. The ids of the
/// first two rows are sparse, so every table block keeps its id run in
/// front of its grade column (1-byte cells under the 9-grade dictionary,
/// raw 8-byte bits without one), and the files differ from version 5's in
/// the header's version byte alone. The third row grades the ids `0..333`
/// instead: every table block is dense and stores its grade column alone,
/// the last (33 entries) now included, which is the version-5 block
/// without its 34-byte id run; its length and checksum are the only other
/// footer fields that moved.
#[test]
fn the_file_is_byte_identical_with_and_without_the_index() {
    for (distinct, dense, len, checksum) in [
        (Some(9), false, 1_641, 0x6b7b_a415_4291_a274_u64),
        (None, false, 5_093, 0x4886_f962_32c6_6461_u64),
        (Some(9), true, 1_305, 0xc312_26eb_afaf_e375_u64),
    ] {
        let mut pairs = pairs(333, distinct);
        if dense {
            for (i, (object, _)) in pairs.iter_mut().enumerate() {
                *object = ObjectId(i as u64);
            }
        }
        let path = temp_path("golden.seg");
        SegmentWriter::with_block_size(16 * 100)
            .unwrap()
            .write_pairs(&path, pairs)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4..8], FORMAT_VERSION.to_le_bytes());
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, checksum),
            "distinct grades: {distinct:?}, dense: {dense}"
        );
    }
}
