//! The restart index is invisible: a v2 segment whose reads resume from
//! in-memory restart points answers exactly what a [`MemorySource`] and a
//! v1 segment (fixed slots, no delta chain, no restarts) answer — for every
//! sorted range and every probe id, in both grade modes, whatever the block
//! geometry is relative to the restart interval. (That a resumed decode
//! equals the decode from a block's start, encoding by encoding, is pinned
//! next to the decoder, in `format.rs`.) The index costs a bounded amount of
//! memory and nothing on disk.

use std::path::PathBuf;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource};
use garlic_core::ObjectId;
use garlic_storage::format::{fnv1a64, FORMAT_V1, FORMAT_VERSION, RESTART_INTERVAL};
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

fn write_and_open(
    name: &str,
    pairs: &[(ObjectId, Grade)],
    block_size: usize,
    version: u32,
) -> SegmentSource {
    let path = temp_path(name);
    SegmentWriter::with_block_size(block_size)
        .unwrap()
        .with_version(version)
        .unwrap()
        .write_pairs(&path, pairs.to_vec())
        .unwrap();
    SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap()
}

/// Entries per block below, equal to, just past, not a multiple of, and a
/// multiple of the interval; entry counts that leave a short last block, a
/// last block of one entry, exactly full blocks, and a one-entry segment.
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
        for n in [
            1,
            entries_per_block,
            entries_per_block + 1,
            2 * entries_per_block + RESTART_INTERVAL + 3,
        ] {
            for (mode, distinct) in [("dict", Some(9)), ("delta", None)] {
                let what = format!("{entries_per_block}/block n={n} {mode}");
                let pairs = pairs(n, distinct);
                let block_size = 16 * entries_per_block;
                let mem = MemorySource::from_pairs(pairs.clone());
                let v1 = write_and_open("sweep-v1.seg", &pairs, block_size, FORMAT_V1);
                let v2 = write_and_open("sweep-v2.seg", &pairs, block_size, FORMAT_VERSION);
                assert_eq!(v2.version(), FORMAT_VERSION);
                assert_eq!(
                    v1.restart_index_bytes(),
                    0,
                    "{what}: fixed slots need no index"
                );

                let mut want = Vec::new();
                mem.sorted_batch(0, n, &mut want);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for from in 0..=n {
                    assert_eq!(v2.sorted_access(from), want.get(from).copied(), "{what}");
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
                        a.clear();
                        b.clear();
                        v1.sorted_batch(from, to - from, &mut a);
                        v2.sorted_batch(from, to - from, &mut b);
                        assert_eq!(b, want[from..to.min(n)], "{what} [{from}, {to})");
                        assert_eq!(a, b, "{what} [{from}, {to})");
                    }
                }

                // Every id from below the first fence to past the maximum:
                // present and absent, first and last of each block, on and
                // next to every restart.
                let max = pairs.last().unwrap().0 .0;
                let probes: Vec<ObjectId> = (0..=max + 3).chain([u64::MAX]).map(ObjectId).collect();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                v1.random_batch(&probes, &mut a);
                v2.random_batch(&probes, &mut b);
                assert_eq!(a, b, "{what}");
                for (probe, got) in probes.iter().zip(&b) {
                    assert_eq!(*got, mem.random_access(*probe), "{what} {probe:?}");
                    assert_eq!(v2.random_access(*probe), *got, "{what} {probe:?}");
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
        let seg = write_and_open(
            "memory.seg",
            &pairs(n, distinct),
            block_size,
            FORMAT_VERSION,
        );
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

/// The index is built in memory at open; the writer knows nothing of it.
/// These are the bytes the format produced before restart points existed,
/// and, for v1, the fixed-slot bytes every earlier writer produced.
#[test]
fn the_file_is_byte_identical_with_and_without_the_index() {
    for (version, distinct, len, checksum) in [
        (FORMAT_VERSION, Some(9), 1_737, 0xd0dc_1946_400d_e0ea_u64),
        (FORMAT_VERSION, None, 5_061, 0xe5a0_d96b_4c31_9a07_u64),
        (FORMAT_V1, Some(9), 12_984, 0x5a37_b811_a35e_079e_u64),
    ] {
        let path = temp_path("golden.seg");
        SegmentWriter::with_block_size(16 * 100)
            .unwrap()
            .with_version(version)
            .unwrap()
            .write_pairs(&path, pairs(333, distinct))
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[4..8], version.to_le_bytes());
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, checksum),
            "v{version}, distinct grades: {distinct:?}"
        );
    }
}
