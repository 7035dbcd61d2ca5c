//! The live store's versioned manifest: which files are current.
//!
//! A [`crate::live::LiveSource`] directory holds one `MANIFEST` file, any
//! number of sealed and active WAL files, and at most one base segment.
//! The manifest is the single source of truth tying them together: it
//! names the base segment (if any), lists the WAL files in replay order,
//! and carries a monotonically increasing **epoch** — bumped by every
//! freeze and every compaction swap, and pinned by snapshots so a reader
//! can tell exactly which store state it observes.
//!
//! The manifest is replaced **atomically**, the same way segments are
//! published: all bytes go to a `MANIFEST.<pid>.<n>.tmp` sibling, the file
//! is fsynced, renamed over `MANIFEST`, and the directory fsynced. A crash
//! therefore always leaves either the old manifest or the new one — never
//! a torn mix — and any file the surviving manifest does not reference is
//! garbage the next open collects.
//!
//! Corruption (bad magic, failed checksum, inconsistent structure) is a
//! typed [`StorageError::ManifestCorrupt`]: the store refuses to guess
//! which files are current, never silently serving a stale or partial
//! state.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::StorageError;
use crate::format::fnv1a64;
use crate::vfs::{std_vfs, Vfs};
use crate::wal::sync_parent_dir;
use crate::writer::{tmp_sibling, TmpGuard};

/// The 8-byte magic the manifest starts with.
pub const MANIFEST_MAGIC: [u8; 8] = *b"GRLCMAN1";

/// The manifest encoding version this build reads and writes.
pub const MANIFEST_VERSION: u32 = 1;

/// The manifest's file name inside a live-store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The decoded manifest: the live store's current file set and epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Store state counter: bumped on every freeze and every compaction
    /// swap. Snapshots pin the epoch they were built against.
    pub epoch: u64,
    /// Allocator for on-disk file names (`wal-<id>.wal`, `seg-<id>.seg`):
    /// the next unused id. Persisted so a recovered store never reuses a
    /// name that an in-flight crash may have left behind.
    pub next_file_id: u64,
    /// File name of the current base segment inside the store directory,
    /// or `None` before the first compaction (or after a delete-everything
    /// compaction).
    pub segment: Option<String>,
    /// WAL file names in replay order, oldest first. The last entry is the
    /// active log; earlier entries back frozen memtables awaiting
    /// compaction.
    pub wals: Vec<String>,
}

impl Manifest {
    /// The manifest a brand-new store starts from: epoch 0, no segment,
    /// one (not yet created) WAL named from id 0.
    pub fn initial() -> Manifest {
        Manifest {
            epoch: 0,
            next_file_id: 1,
            segment: None,
            wals: vec![file_name_for(0, "wal")],
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.next_file_id.to_le_bytes());
        let segment = self.segment.as_deref().unwrap_or("");
        out.extend_from_slice(&(segment.len() as u32).to_le_bytes());
        out.extend_from_slice(segment.as_bytes());
        out.extend_from_slice(&(self.wals.len() as u32).to_le_bytes());
        for wal in &self.wals {
            out.extend_from_slice(&(wal.len() as u32).to_le_bytes());
            out.extend_from_slice(wal.as_bytes());
        }
        let crc = fnv1a64(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Atomically replaces the manifest in `dir` with this value
    /// (tmp sibling + fsync + rename + directory fsync).
    pub fn store(&self, dir: &Path) -> Result<(), StorageError> {
        self.store_with(dir, &std_vfs())
    }

    /// [`store`](Manifest::store) through an explicit [`Vfs`].
    pub fn store_with(&self, dir: &Path, vfs: &Arc<dyn Vfs>) -> Result<(), StorageError> {
        let path = dir.join(MANIFEST_NAME);
        // Same publication as a segment's: a tmp name of this store's own,
        // removed again if anything before the rename fails.
        let tmp = tmp_sibling(&path);
        let mut file = vfs.create(&tmp)?;
        let guard = TmpGuard::new(vfs.as_ref(), &tmp);
        file.write_all(&self.encode())?;
        file.sync_all()?;
        drop(file);
        vfs.rename(&tmp, &path)?;
        guard.disarm();
        sync_parent_dir(vfs.as_ref(), &path)?;
        Ok(())
    }

    /// Loads and verifies the manifest in `dir`. A missing file surfaces
    /// as `Io(NotFound)` (a fresh store); anything unreadable is a typed
    /// [`StorageError::ManifestCorrupt`].
    pub fn load(dir: &Path) -> Result<Manifest, StorageError> {
        Manifest::load_with(dir, &std_vfs())
    }

    /// [`load`](Manifest::load) through an explicit [`Vfs`].
    pub fn load_with(dir: &Path, vfs: &Arc<dyn Vfs>) -> Result<Manifest, StorageError> {
        let bytes = {
            let file = vfs.open_read(&dir.join(MANIFEST_NAME))?;
            let len = file.len()?;
            let mut bytes = vec![0u8; len as usize];
            file.read_exact_at(&mut bytes, 0)?;
            bytes
        };
        let corrupt = |detail: &str| StorageError::ManifestCorrupt {
            detail: detail.to_owned(),
        };
        if bytes.len() < MANIFEST_MAGIC.len() + 4 + 8 + 8 + 4 + 4 + 8 {
            return Err(corrupt("file shorter than the fixed fields"));
        }
        if bytes[..8] != MANIFEST_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let stored_crc = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a64(&bytes[..bytes.len() - 8]) != stored_crc {
            return Err(corrupt("checksum mismatch"));
        }
        let body = &bytes[..bytes.len() - 8];
        let mut off = 8usize;
        let read_u32 = |off: &mut usize| -> Result<u32, StorageError> {
            let end = off.checked_add(4).filter(|&e| e <= body.len());
            let end = end.ok_or_else(|| corrupt("truncated field"))?;
            let v = u32::from_le_bytes(body[*off..end].try_into().expect("4 bytes"));
            *off = end;
            Ok(v)
        };
        let read_u64 = |off: &mut usize| -> Result<u64, StorageError> {
            let end = off.checked_add(8).filter(|&e| e <= body.len());
            let end = end.ok_or_else(|| corrupt("truncated field"))?;
            let v = u64::from_le_bytes(body[*off..end].try_into().expect("8 bytes"));
            *off = end;
            Ok(v)
        };
        let read_name = |off: &mut usize, len: usize| -> Result<String, StorageError> {
            let end = off.checked_add(len).filter(|&e| e <= body.len());
            let end = end.ok_or_else(|| corrupt("name runs past the file"))?;
            let name =
                std::str::from_utf8(&body[*off..end]).map_err(|_| corrupt("name is not UTF-8"))?;
            if name.contains('/') || name.contains('\\') {
                return Err(corrupt("name escapes the store directory"));
            }
            *off = end;
            Ok(name.to_owned())
        };
        let version = read_u32(&mut off)?;
        if version != MANIFEST_VERSION {
            return Err(corrupt(&format!("unsupported manifest version {version}")));
        }
        let epoch = read_u64(&mut off)?;
        let next_file_id = read_u64(&mut off)?;
        let segment_len = read_u32(&mut off)? as usize;
        let segment = if segment_len == 0 {
            None
        } else {
            Some(read_name(&mut off, segment_len)?)
        };
        let wal_count = read_u32(&mut off)? as usize;
        if wal_count == 0 {
            return Err(corrupt("a live store always has an active WAL"));
        }
        if wal_count > 1 << 20 {
            return Err(corrupt("implausible WAL count"));
        }
        let mut wals = Vec::with_capacity(wal_count);
        for _ in 0..wal_count {
            let len = read_u32(&mut off)? as usize;
            wals.push(read_name(&mut off, len)?);
        }
        if off != body.len() {
            return Err(corrupt("trailing bytes after the WAL list"));
        }
        Ok(Manifest {
            epoch,
            next_file_id,
            segment,
            wals,
        })
    }
}

/// The canonical file name for id `id` with extension `ext` inside a
/// live-store directory.
pub(crate) fn file_name_for(id: u64, ext: &str) -> String {
    format!("{ext}-{id:06}.{ext}")
}

/// The set of file names a manifest references (besides `MANIFEST`
/// itself).
pub(crate) fn referenced_files(manifest: &Manifest) -> Vec<String> {
    let mut names: Vec<String> = manifest.wals.clone();
    if let Some(seg) = &manifest.segment {
        names.push(seg.clone());
    }
    names
}

/// Deletes every regular file in `dir` that neither is the manifest nor is
/// referenced by it — the orphans a crash mid-freeze or mid-compaction can
/// leave behind (stale tmp files, unreferenced segments, sealed WALs whose
/// compaction published before the crash).
pub(crate) fn collect_garbage(
    dir: &Path,
    manifest: &Manifest,
    vfs: &Arc<dyn Vfs>,
) -> Result<Vec<PathBuf>, StorageError> {
    let keep = referenced_files(manifest);
    let mut removed = Vec::new();
    for path in vfs.read_dir(dir)? {
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == MANIFEST_NAME || keep.iter().any(|k| k == name) {
            continue;
        }
        let known_kind = name.ends_with(".wal") || name.ends_with(".seg") || name.ends_with(".tmp");
        if !known_kind {
            continue;
        }
        vfs.remove_file(&path)?;
        removed.push(path);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("garlic-storage-manifest-{}", std::process::id()))
            .join(name);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let manifest = Manifest {
            epoch: 7,
            next_file_id: 12,
            segment: Some("seg-000003.seg".into()),
            wals: vec!["wal-000010.wal".into(), "wal-000011.wal".into()],
        };
        manifest.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), manifest);
        // Replacing is atomic: no tmp sibling survives.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [MANIFEST_NAME]);
    }

    #[test]
    fn missing_manifest_is_not_found() {
        let dir = temp_dir("missing");
        match Manifest::load(&dir) {
            Err(StorageError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let dir = temp_dir("corrupt");
        Manifest::initial().store(&dir).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(StorageError::ManifestCorrupt { .. })
        ));
        // Truncation too.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(StorageError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn garbage_collection_spares_referenced_files() {
        let dir = temp_dir("gc");
        let manifest = Manifest {
            epoch: 1,
            next_file_id: 3,
            segment: Some(file_name_for(1, "seg")),
            wals: vec![file_name_for(2, "wal")],
        };
        manifest.store(&dir).unwrap();
        for name in [
            file_name_for(1, "seg"),
            file_name_for(2, "wal"),
            file_name_for(0, "wal"),     // orphaned sealed WAL
            "seg-000000.seg".to_owned(), // orphaned old segment
            "seg-000009.seg.tmp".to_owned(),
            "notes.txt".to_owned(), // foreign file: untouched
        ] {
            fs::write(dir.join(&name), b"x").unwrap();
        }
        let removed = collect_garbage(&dir, &manifest, &std_vfs()).unwrap();
        assert_eq!(removed.len(), 3);
        assert!(dir.join(file_name_for(1, "seg")).exists());
        assert!(dir.join(file_name_for(2, "wal")).exists());
        assert!(dir.join("notes.txt").exists());
        assert!(!dir.join(file_name_for(0, "wal")).exists());
    }
}
