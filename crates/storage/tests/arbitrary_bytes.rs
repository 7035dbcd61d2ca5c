//! Opening damaged or arbitrary bytes is never a panic. A real live store
//! (base segment, one sealed WAL, the active WAL and the manifest naming
//! them) is built from random ops, some of them on object ids at the top
//! of the `u64` range. Each of its files is then damaged: bytes flipped,
//! cut short, extended, or replaced outright, and the manifest is
//! optionally re-sealed with a fresh checksum so the damage reaches its
//! field parser. Every damaged file is opened as a segment, as a WAL and
//! as a manifest, and the damaged directory as a live store on both sides
//! of its data's universe. Every source that opens is read end to end.
//!
//! Each outcome must be `Ok` or a typed [`StorageError`] under
//! `catch_unwind`. The lint that denies `unwrap`/`expect`/`panic` in this
//! crate cannot see slice-index or arithmetic panics; this property can.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::SetAccess;
use garlic_core::ObjectId;
use garlic_storage::format::fnv1a64;
use garlic_storage::manifest::MANIFEST_NAME;
use garlic_storage::{
    std_vfs, BlockCache, LiveOptions, LiveSource, Manifest, SegmentSource, StorageError, Wal, WalOp,
};
use proptest::prelude::*;

/// Case count: 64 locally; CI runs the property once more by name with
/// `PROPTEST_CASES` raised.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh directory for one case; the case removes it when it passes.
fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("garlic-arbitrary-bytes-{}", std::process::id()))
        .join(CASE.fetch_add(1, Ordering::Relaxed).to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn subdir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// How one file is damaged before it is opened.
#[derive(Debug, Clone)]
enum Damage {
    Intact,
    /// XORs a nonzero byte in at each offset (taken modulo the length).
    Flip(Vec<(usize, u8)>),
    /// Keeps the first `n` bytes (modulo the length + 1).
    Truncate(usize),
    Extend(Vec<u8>),
    Replace(Vec<u8>),
}

impl Damage {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self {
            Damage::Intact => {}
            Damage::Flip(flips) if !out.is_empty() => {
                let len = out.len();
                for &(at, mask) in flips {
                    out[at % len] ^= mask;
                }
            }
            Damage::Flip(_) => {}
            Damage::Truncate(n) => out.truncate(n % (bytes.len() + 1)),
            Damage::Extend(tail) => out.extend_from_slice(tail),
            Damage::Replace(junk) => out.clone_from(junk),
        }
        out
    }
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::Intact),
        proptest::collection::vec((0usize..1 << 16, 1u8..=255), 1..4).prop_map(Damage::Flip),
        (0usize..1 << 16).prop_map(Damage::Truncate),
        proptest::collection::vec(0u8..=255, 1..48).prop_map(Damage::Extend),
        proptest::collection::vec(0u8..=255, 0..160).prop_map(Damage::Replace),
    ]
}

/// Ops on object ids below 64; grade steps above 16 are tombstones.
fn ops() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..64, 0u32..=20), 3..24)
}

/// Object `id`, or with `wide` ids from 60 up moved to the top of the
/// `u64` range.
fn object(id: u64, wide: bool) -> u64 {
    match id.checked_sub(60) {
        Some(top) if wide => u64::MAX - top,
        _ => id,
    }
}

fn to_op(&(id, step): &(u64, u32)) -> WalOp {
    let object = ObjectId(id);
    match step {
        0..=16 => WalOp::Upsert {
            object,
            grade: Grade::clamped(f64::from(step) / 16.0),
        },
        _ => WalOp::Delete { object },
    }
}

fn options(universe: Option<usize>) -> LiveOptions {
    LiveOptions {
        universe,
        ..LiveOptions::default()
    }
}

/// Builds a store whose directory holds a base segment, a sealed WAL and
/// the active WAL, and returns every file's name and bytes.
fn healthy_store(dir: &Path, ops: &[WalOp]) -> Vec<(String, Vec<u8>)> {
    let live = LiveSource::open(dir, Arc::new(BlockCache::new(64)), options(None)).unwrap();
    let third = ops.len() / 3;
    live.write_batch(&ops[..third]).unwrap();
    live.flush().unwrap();
    live.write_batch(&ops[third..2 * third]).unwrap();
    live.freeze().unwrap();
    live.write_batch(&ops[2 * third..]).unwrap();
    drop(live);
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Recomputes the manifest's trailing checksum over its (damaged) body.
fn reseal(manifest: &mut [u8]) {
    if let Some(body_len) = manifest.len().checked_sub(8) {
        let crc = fnv1a64(&manifest[..body_len]);
        manifest[body_len..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Reads a source end to end: the whole sorted stream, a random probe of
/// every streamed object and a few absent ones, and the matching set.
/// Errors are outcomes; only a panic fails the property.
fn read_all(source: &impl SetAccess) {
    let mut sorted = Vec::new();
    let _ = source.try_sorted_batch(0, source.len().saturating_add(1), &mut sorted);
    let mut probes: Vec<ObjectId> = sorted.iter().map(|e| e.object).collect();
    probes.extend([ObjectId(0), ObjectId(63), ObjectId(u64::MAX)]);
    let _ = source.try_random_batch(&probes, &mut Vec::new());
    let _ = source.try_matching_set();
}

/// Runs `step` under `catch_unwind`; a panic fails with `what`.
fn no_panic(what: &str, step: impl FnOnce()) {
    let outcome = catch_unwind(AssertUnwindSafe(step));
    assert!(outcome.is_ok(), "{what} panicked");
}

fn open_as_segment(dir: &Path, bytes: &[u8]) {
    let path = dir.join("as-segment.seg");
    std::fs::write(&path, bytes).unwrap();
    if let Ok(segment) = SegmentSource::open(&path, Arc::new(BlockCache::new(16))) {
        read_all(&segment);
    }
}

fn open_as_wal(dir: &Path, bytes: &[u8]) {
    let path = dir.join("as-wal.wal");
    std::fs::write(&path, bytes).unwrap();
    let _ = Wal::open(&path, &mut Vec::new(), &std_vfs());
}

fn open_as_manifest(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join(MANIFEST_NAME), bytes).unwrap();
    let _ = Manifest::load(dir, &std_vfs());
}

fn open_live(dir: &Path, universe: Option<usize>) -> Result<(), StorageError> {
    let live = LiveSource::open(dir, Arc::new(BlockCache::new(64)), options(universe))?;
    read_all(&*live.snapshot());
    live.flush()?;
    read_all(&*live.snapshot());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Damaged segments, WALs, manifests and live directories open to
    /// `Ok` or a typed error, and what opens reads without a panic.
    #[test]
    fn arbitrary_bytes_open_to_ok_or_a_typed_error(
        tape in ops(),
        target in 0usize..4,
        damage in damage(),
        wide in 0u8..2,
        resealed in 0u8..2,
    ) {
        let tape: Vec<(u64, u32)> =
            tape.into_iter().map(|(id, step)| (object(id, wide == 1), step)).collect();
        let ops: Vec<WalOp> = tape.iter().map(to_op).collect();
        let root = case_dir();
        let files = healthy_store(&subdir(&root, "healthy"), &ops);
        let damaged: Vec<Vec<u8>> = files
            .iter()
            .map(|(name, bytes)| {
                let mut bytes = damage.apply(bytes);
                if name == MANIFEST_NAME && resealed == 1 {
                    reseal(&mut bytes);
                }
                bytes
            })
            .collect();

        // Every file, damaged, opened as each kind.
        let each = subdir(&root, "each");
        for ((name, _), bytes) in files.iter().zip(&damaged) {
            no_panic(&format!("{name} opened as a segment"), || open_as_segment(&each, bytes));
            no_panic(&format!("{name} opened as a WAL"), || open_as_wal(&each, bytes));
            no_panic(&format!("{name} opened as a manifest"), || open_as_manifest(&each, bytes));
        }

        // The largest object the healthy store ever graded: a universe of
        // that size lies below the data, one past it lies above.
        let max = tape.iter().map(|&(id, _)| id).max().unwrap_or(0);
        let max = usize::try_from(max).unwrap_or(usize::MAX);
        for (i, universe) in [Some(max), Some(max.saturating_add(1)), None].into_iter().enumerate() {
            let live = subdir(&root, &format!("live-{i}"));
            // The directory with only the target file damaged.
            for (j, (name, bytes)) in files.iter().enumerate() {
                let bytes = if j == target % files.len() { &damaged[j] } else { bytes };
                std::fs::write(live.join(name), bytes).unwrap();
            }
            no_panic(&format!("live store at universe {universe:?}"), || {
                let _ = open_live(&live, universe);
            });
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
