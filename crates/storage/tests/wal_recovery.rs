//! Crash-recovery fuzzing: damage the write-ahead log at **arbitrary byte
//! offsets** — truncate it mid-record, flip single bits — and assert that
//! recovery yields *exactly* the committed prefix of acknowledged batches.
//! Never a panic, never silent loss of an undamaged record, never replay
//! of a damaged one. Manifest damage is harsher: the manifest is written
//! atomically (tmp + rename), so an unreadable one is not a crash artifact
//! and must surface as a typed [`StorageError::ManifestCorrupt`] rather
//! than an empty store.
//!
//! Each property builds a real store (every batch is one fsynced WAL
//! record), keeps the model state after every batch, copies the store
//! aside, damages the copy, and reopens it as a [`LiveSource`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource};
use garlic_core::ObjectId;
use garlic_storage::wal::WAL_MAGIC;
use garlic_storage::{std_vfs, BlockCache, LiveOptions, LiveSource, Manifest, StorageError, WalOp};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("garlic-wal-fuzz-{}", std::process::id()))
        .join(format!("{label}-{}", CASE.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(dir: &Path) -> Result<LiveSource, StorageError> {
    LiveSource::open(dir, Arc::new(BlockCache::new(64)), LiveOptions::default())
}

/// One batch of ops: `(object id, grade step)` where a step past the top
/// of the grade scale means a tombstone delete. Ids collide across
/// batches on purpose, so prefixes genuinely differ from the full tape.
type Batch = Vec<(u64, u32)>;

/// Steps `0..=16` quantize grades; `17..=20` are tombstones (~20%).
const GRADE_STEPS: u32 = 16;

fn batches_strategy() -> impl Strategy<Value = Vec<Batch>> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..48, 0u32..=20), 1..6),
        1..10,
    )
}

fn step_op(id: u64, step: u32) -> WalOp {
    if step > GRADE_STEPS {
        WalOp::Delete {
            object: ObjectId(id),
        }
    } else {
        WalOp::Upsert {
            object: ObjectId(id),
            grade: Grade::clamped(step as f64 / GRADE_STEPS as f64),
        }
    }
}

fn to_ops(batch: &Batch) -> Vec<WalOp> {
    batch.iter().map(|&(id, step)| step_op(id, step)).collect()
}

/// Applies the batches to a fresh store at `dir` — one acknowledged WAL
/// record each — and returns the model state after every prefix:
/// `models[j]` is the visible map once batches `0..j` have committed.
fn build_store(dir: &Path, batches: &[Batch]) -> Vec<BTreeMap<ObjectId, Grade>> {
    let live = open(dir).unwrap();
    let mut model = BTreeMap::new();
    let mut models = vec![model.clone()];
    for batch in batches {
        live.write_batch(&to_ops(batch)).unwrap();
        for &(id, step) in batch {
            match step_op(id, step) {
                WalOp::Upsert { object, grade } => {
                    model.insert(object, grade);
                }
                WalOp::Delete { object } => {
                    model.remove(&object);
                }
            }
        }
        models.push(model.clone());
    }
    models
}

/// Cumulative record end offsets in the WAL file: `ends[0]` is the header
/// boundary, `ends[j]` is where batch `j` ends. Parsed purely from the
/// self-delimiting framing (`[len u32][seq u64][payload][crc u64]`).
fn record_ends(wal: &Path) -> Vec<u64> {
    let bytes = std::fs::read(wal).unwrap();
    assert_eq!(&bytes[..8], &WAL_MAGIC);
    let mut ends = vec![8u64];
    let mut offset = 8usize;
    while offset < bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 20 + len;
        ends.push(offset as u64);
    }
    assert_eq!(offset, bytes.len(), "a freshly closed WAL has no torn tail");
    ends
}

/// The single WAL file of a store that has never frozen a memtable.
fn active_wal(dir: &Path) -> PathBuf {
    let manifest = Manifest::load(dir, &std_vfs()).unwrap();
    dir.join(manifest.wals.last().unwrap())
}

fn clone_store(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Recovery must equal the model: same length, same full sorted stream.
fn assert_state(live: &LiveSource, model: &BTreeMap<ObjectId, Grade>, ctx: &str) {
    let snap = live.snapshot();
    let want = MemorySource::from_pairs(model.iter().map(|(&o, &g)| (o, g)));
    assert_eq!(snap.len(), want.len(), "{ctx}: length");
    let (mut got_run, mut want_run) = (Vec::new(), Vec::new());
    snap.sorted_batch(0, snap.len() + 1, &mut got_run);
    want.sorted_batch(0, want.len() + 1, &mut want_run);
    assert_eq!(got_run, want_run, "{ctx}: stream");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Truncating the WAL anywhere yields exactly the batches whose
    /// records survive whole — and the recovered store keeps accepting
    /// durable writes on top of the truncated prefix.
    #[test]
    fn truncation_recovers_exactly_the_committed_prefix(
        batches in batches_strategy(),
        cut in 0.0f64..=1.0,
    ) {
        let src = case_dir("trunc-src");
        let models = build_store(&src, &batches);
        let wal_name = active_wal(&src);
        let ends = record_ends(&wal_name);
        let full = *ends.last().unwrap();
        let cut = (full as f64 * cut) as u64;

        let dst = case_dir("trunc");
        clone_store(&src, &dst);
        let wal = dst.join(wal_name.file_name().unwrap());
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();

        if cut == 0 {
            // A crash between WAL creation and its header sync: the store
            // reinitialises the empty log and recovers nothing.
            let live = open(&dst).unwrap();
            assert_state(&live, &models[0], "empty-log recovery");
        } else if cut < 8 {
            // A torn *header* cannot happen in a crash (it is synced
            // before the first acknowledgement): typed error, no guessing.
            let err = open(&dst).expect_err("torn header must not open");
            prop_assert!(matches!(err, StorageError::WalCorrupt { .. }), "got {err:?}");
        } else {
            let survivors = ends.iter().skip(1).filter(|&&e| e <= cut).count();
            let live = open(&dst).unwrap();
            assert_state(
                &live,
                &models[survivors],
                &format!("cut at byte {cut} of {full} keeps {survivors} batches"),
            );
            // The torn tail was truncated off; new writes land after the
            // committed prefix and survive another reopen.
            live.upsert(ObjectId(999), Grade::ONE).unwrap();
            drop(live);
            let mut expected = models[survivors].clone();
            expected.insert(ObjectId(999), Grade::ONE);
            assert_state(&open(&dst).unwrap(), &expected, "write after recovery");
        }
    }

    /// Flipping one bit anywhere in a record stops replay at that record —
    /// every batch before the damage survives, nothing at or after it is
    /// replayed. A flipped header byte is the typed corruption error.
    #[test]
    fn a_bit_flip_recovers_exactly_the_prefix_before_it(
        batches in batches_strategy(),
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let src = case_dir("flip-src");
        let models = build_store(&src, &batches);
        let wal_name = active_wal(&src);
        let ends = record_ends(&wal_name);
        let full = *ends.last().unwrap();
        let at = ((full as f64 * at) as u64).min(full - 1);

        let dst = case_dir("flip");
        clone_store(&src, &dst);
        let wal = dst.join(wal_name.file_name().unwrap());
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[at as usize] ^= 1 << bit;
        std::fs::write(&wal, &bytes).unwrap();

        if at < 8 {
            let err = open(&dst).expect_err("flipped header must not open");
            prop_assert!(matches!(err, StorageError::WalCorrupt { .. }), "got {err:?}");
        } else {
            // The record whose bytes contain the flip is the first one
            // whose end offset lies beyond it.
            let survivors = ends.iter().skip(1).filter(|&&e| e <= at).count();
            let live = open(&dst).unwrap();
            assert_state(
                &live,
                &models[survivors],
                &format!("flip of bit {bit} at byte {at} keeps {survivors} batches"),
            );
        }
    }

    /// Any damage to the manifest — truncation or a bit flip anywhere —
    /// is a typed [`StorageError::ManifestCorrupt`], never a panic and
    /// never a silently empty store.
    #[test]
    fn manifest_damage_is_always_the_typed_error(
        batches in batches_strategy(),
        at in 0.0f64..1.0,
        bit in 0u8..8,
        damage in 0u32..2,
    ) {
        let dir = case_dir("manifest");
        build_store(&dir, &batches);
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
        if damage == 0 {
            bytes.truncate(at);
        } else {
            bytes[at] ^= 1 << bit;
        }
        std::fs::write(&path, &bytes).unwrap();

        let err = open(&dir).expect_err("a damaged manifest must not open");
        prop_assert!(matches!(err, StorageError::ManifestCorrupt { .. }), "got {err:?}");
    }
}

/// Layered recovery: damage to the *active* WAL's tail must not touch
/// batches that already live in the base segment or a sealed WAL.
#[test]
fn a_torn_active_tail_spares_the_sealed_layers() {
    let dir = case_dir("layered");
    let live = open(&dir).unwrap();
    let mut model = BTreeMap::new();
    let put = |live: &LiveSource, model: &mut BTreeMap<ObjectId, Grade>, id: u64, q: f64| {
        live.upsert(ObjectId(id), Grade::clamped(q)).unwrap();
        model.insert(ObjectId(id), Grade::clamped(q));
    };
    // Layer 1: compacted into the base segment.
    for i in 0..30 {
        put(&live, &mut model, i, (i % 7) as f64 / 7.0);
    }
    assert!(live.flush().unwrap());
    // Layer 2: a sealed (frozen, not yet compacted) WAL.
    for i in 20..40 {
        put(&live, &mut model, i, 0.9);
    }
    assert!(live.freeze().unwrap());
    // Layer 3: the active WAL — two committed batches, then one to tear.
    put(&live, &mut model, 5, 0.123);
    live.delete(ObjectId(25)).unwrap();
    model.remove(&ObjectId(25));
    let committed = model.clone();
    live.upsert(ObjectId(41), Grade::ONE).unwrap(); // will be torn off
    drop(live);

    let manifest = Manifest::load(&dir, &std_vfs()).unwrap();
    assert!(manifest.wals.len() >= 2, "a sealed WAL plus the active one");
    let active = dir.join(manifest.wals.last().unwrap());
    let len = std::fs::metadata(&active).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&active)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let live = open(&dir).unwrap();
    assert_state(&live, &committed, "base + sealed + committed active prefix");
    assert_eq!(live.snapshot().random_access(ObjectId(41)), None);
}
