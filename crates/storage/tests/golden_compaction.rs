//! Golden bytes for the live write path: a scripted store with overwrites,
//! tombstones, several freezes per round and a crash-style reopen over
//! sealed logs is compacted three times, and every compacted segment's
//! length and checksum, plus the recovered snapshot's stream and
//! statistics, must match values pinned from an earlier build. Any change
//! to how memtables, recovery or compaction fold layers that alters a
//! single byte on disk or a single rank in the stream fails here.
//!
//! Compaction writes segment format version 6, the one format there is.
//! The three segment rows were re-pinned when version 6 came in, from a
//! block-by-block comparison with the version-5 files of the same script:
//! no table block of these is dense, so every block and the footer are
//! the version-5 file's byte for byte, and only the header's version byte
//! differs. The recovered stream's row did not change.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::GradedSource;
use garlic_core::ObjectId;
use garlic_storage::format::fnv1a64;
use garlic_storage::{BlockCache, LiveOptions, LiveSource, WalOp};

fn store_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-golden-compaction-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> LiveSource {
    let opts = LiveOptions {
        memtable_limit: 160,
        auto_compact: false,
        ..LiveOptions::default()
    };
    LiveSource::open(dir, Arc::new(BlockCache::new(64)), opts).unwrap()
}

/// A fixed 64-bit LCG: the script must not depend on any RNG crate.
struct Script(u64);

impl Script {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }

    /// `ops` writes over ids `0..ids` in batches of five: grades on a
    /// sixteenth grid (ties and grade-1 entries included), about one op
    /// in seven a tombstone.
    fn play(&mut self, live: &LiveSource, ops: usize, ids: u64) {
        let batch: Vec<WalOp> = (0..ops)
            .map(|_| {
                let object = ObjectId(self.next(ids));
                match self.next(19) {
                    step @ 0..=16 => WalOp::Upsert {
                        object,
                        grade: Grade::new(step as f64 / 16.0).unwrap(),
                    },
                    _ => WalOp::Delete { object },
                }
            })
            .collect();
        for chunk in batch.chunks(5) {
            live.write_batch(chunk).unwrap();
        }
    }
}

/// `(length, fnv1a64)` of a file.
fn fingerprint(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a64(&bytes))
}

/// The fingerprint of the one segment file in `dir`.
fn segment_fingerprint(dir: &Path) -> (usize, u64) {
    let segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    assert_eq!(segments.len(), 1, "a flush leaves exactly one segment");
    fingerprint(&segments[0])
}

/// `fnv1a64` over the whole sorted stream, 16 bytes per entry.
fn stream_hash(source: &dyn GradedSource) -> (usize, u64) {
    let mut stream = Vec::new();
    source.sorted_batch(0, source.len() + 1, &mut stream);
    let mut bytes = Vec::with_capacity(stream.len() * 16);
    for entry in &stream {
        bytes.extend_from_slice(&entry.object.0.to_le_bytes());
        bytes.extend_from_slice(&entry.grade.value().to_bits().to_le_bytes());
    }
    (stream.len(), fnv1a64(&bytes))
}

#[test]
fn scripted_store_compacts_to_pinned_bytes() {
    let dir = store_dir();
    let mut script = Script(0x5eed);
    let mut segments = Vec::new();
    {
        let live = open(&dir);
        // Round 1: several freezes from an empty store, then one flush.
        script.play(&live, 1600, 700);
        assert!(live.frozen_layers() >= 2);
        live.flush().unwrap();
        segments.push(segment_fingerprint(&dir));
        // Round 2: overwrites and deletes over the compacted base.
        script.play(&live, 1200, 1000);
        assert!(live.frozen_layers() >= 2);
        live.flush().unwrap();
        segments.push(segment_fingerprint(&dir));
        // Round 3: freezes with no flush; the store closes with sealed
        // logs and a non-empty active log on disk.
        script.play(&live, 900, 1300);
        assert!(live.frozen_layers() >= 2, "at least two sealed logs");
        assert!(live.wal_bytes() > 0, "and an active log with records");
    }
    let live = open(&dir);
    let snapshot = live.snapshot();
    let recovered = (
        stream_hash(&*snapshot),
        snapshot.len(),
        snapshot.exact_match_count(),
        snapshot.is_crisp(),
    );
    live.flush().unwrap();
    segments.push(segment_fingerprint(&dir));
    // A 17-grade dictionary, so the table blocks hold 1-byte cells.
    assert_eq!(
        segments,
        vec![
            (2581, 754_659_314_612_370_817),
            (3602, 4_972_418_465_049_902_549),
            (4384, 17_529_050_870_026_605_844),
        ]
    );
    assert_eq!(
        recovered,
        ((988, 5_948_720_378_464_797_384), 988, 50, false)
    );
    // The compacted file serves the stream recovery served.
    assert_eq!(stream_hash(&*live.snapshot()), recovered.0);
    let _ = std::fs::remove_dir_all(&dir);
}
