//! Building immutable segment files.
//!
//! [`SegmentWriter`] takes one graded list and lays it down in the
//! [`crate::format`] layout. Segments are written **atomically**: all bytes
//! go to a `<name>.<pid>.<n>.tmp` sibling first, the file is fsynced, then
//! renamed over the final path (and the directory fsynced), so a crash
//! mid-write can leave a stale temp file but never a half-written segment
//! at the published name. The sibling's name is unique to the write, so
//! any number of writers may publish one path at once: each fills a file
//! of its own, every rename publishes a whole segment, and the last one
//! wins. Once published, a segment is never modified — updates
//! are "write a new segment, swap the path", which is what makes the
//! shared block cache trivially coherent.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::{GradedEntry, GradedSet, ObjectId};

use crate::error::StorageError;
use crate::format::{
    check_block_size, checksum, encode_block, Footer, RegionKind, DEFAULT_BLOCK_SIZE, ENTRY_LEN,
    FORMAT_VERSION, GRADE_DICT_MAX, HEADER_MAGIC, TRAILER_MAGIC,
};
use crate::vfs::{std_vfs, Vfs, VfsFile};

/// What a finished write produced — geometry an operator (or a test) can
/// check against expectations. What the grades say (crispness, the
/// exact-match count) the open-time scan learns:
/// [`SegmentSource::is_crisp`](crate::SegmentSource::is_crisp) and
/// [`SegmentSource::exact_match_count`](crate::SegmentSource::exact_match_count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Number of graded entries stored.
    pub entries: u64,
    /// Blocks per region (the data and table regions are the same size).
    pub blocks_per_region: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// One shard of a sharded build: where it was published, the lowest
/// object id it owns (its range fence), and its segment geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// The published segment file.
    pub path: std::path::PathBuf,
    /// Lowest object id in this shard — the fence a [`ShardedSource`]
    /// routes random access by.
    ///
    /// [`ShardedSource`]: garlic_core::ShardedSource
    pub first_id: u64,
    /// The shard segment's geometry.
    pub info: SegmentInfo,
}

/// Serializes graded lists into segment files of format
/// [`FORMAT_VERSION`]: compressed data blocks, table blocks with a
/// fixed-width grade column, xxHash64 checksums, each fact stored once.
#[derive(Debug, Clone)]
pub struct SegmentWriter {
    block_size: usize,
    vfs: Arc<dyn Vfs>,
}

impl SegmentWriter {
    /// A writer with the default 4 KiB block size.
    pub fn new() -> Self {
        SegmentWriter {
            block_size: DEFAULT_BLOCK_SIZE,
            vfs: std_vfs(),
        }
    }

    /// A writer with a custom block size (a positive multiple of the
    /// 16-byte entry). Small blocks make the cache finer-grained; large
    /// blocks amortise per-read overhead on sequential scans. The block
    /// size fixes the *logical* entries-per-block geometry; the encoded
    /// blocks are smaller.
    pub fn with_block_size(block_size: usize) -> Result<Self, StorageError> {
        check_block_size(block_size)?;
        Ok(SegmentWriter {
            block_size,
            vfs: std_vfs(),
        })
    }

    /// Routes every file operation of this writer through `vfs` — the hook
    /// the fault-injection suite uses to fail writes, syncs, and renames
    /// deterministically.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// The block size segments from this writer will use.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Writes `(object, grade)` pairs (any order; each object at most
    /// once) as a segment at `path`.
    pub fn write_pairs(
        &self,
        path: &Path,
        pairs: impl IntoIterator<Item = (ObjectId, Grade)>,
    ) -> Result<SegmentInfo, StorageError> {
        let entries: Vec<GradedEntry> = pairs
            .into_iter()
            .map(|(object, grade)| GradedEntry { object, grade })
            .collect();
        self.write_entries(path, entries)
    }

    /// Writes an already-built [`GradedSet`] as a segment at `path`.
    pub fn write_graded_set(
        &self,
        path: &Path,
        set: &GradedSet,
    ) -> Result<SegmentInfo, StorageError> {
        self.write_entries(path, set.as_slice().to_vec())
    }

    /// Writes a dense grade vector (object `i` gets `grades[i]`) as a
    /// segment at `path`.
    pub fn write_grades(&self, path: &Path, grades: &[Grade]) -> Result<SegmentInfo, StorageError> {
        self.write_pairs(
            path,
            grades
                .iter()
                .enumerate()
                .map(|(i, &g)| (ObjectId::from(i), g)),
        )
    }

    /// Writes `(object, grade)` pairs as an id-range partition of at most
    /// `shards` segment files under `dir`, named `<stem>.<i>.seg` — the
    /// sharded build behind [`ShardedSource`]-backed subsystems. The pairs
    /// are split into contiguous, id-ascending, balanced runs
    /// ([`garlic_core::sharded::partition_pairs`]); each run becomes an
    /// ordinary (atomically published, fully verifiable) segment, and the
    /// run's lowest id is returned as that shard's range fence. Fewer
    /// shard files are produced when there are fewer pairs than `shards`.
    ///
    /// [`ShardedSource`]: garlic_core::ShardedSource
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn write_sharded_pairs(
        &self,
        dir: &Path,
        stem: &str,
        shards: usize,
        pairs: impl IntoIterator<Item = (ObjectId, Grade)>,
    ) -> Result<Vec<ShardInfo>, StorageError> {
        let runs = garlic_core::sharded::partition_pairs(pairs.into_iter().collect(), shards);
        let mut out = Vec::with_capacity(runs.len());
        for (i, run) in runs.into_iter().enumerate() {
            let path = dir.join(format!("{stem}.{i:03}.seg"));
            let first_id = run[0].0 .0;
            let info = self.write_pairs(&path, run)?;
            out.push(ShardInfo {
                path,
                first_id,
                info,
            });
        }
        Ok(out)
    }

    /// Sharded build over a dense grade vector (object `i` gets
    /// `grades[i]`); see [`write_sharded_pairs`](Self::write_sharded_pairs).
    pub fn write_sharded_grades(
        &self,
        dir: &Path,
        stem: &str,
        shards: usize,
        grades: &[Grade],
    ) -> Result<Vec<ShardInfo>, StorageError> {
        self.write_sharded_pairs(
            dir,
            stem,
            shards,
            grades
                .iter()
                .enumerate()
                .map(|(i, &g)| (ObjectId::from(i), g)),
        )
    }

    fn write_entries(
        &self,
        path: &Path,
        mut entries: Vec<GradedEntry>,
    ) -> Result<SegmentInfo, StorageError> {
        // Table order first: ascending object id, which is also where
        // duplicate objects surface.
        entries.sort_by_key(|e| e.object);
        for w in entries.windows(2) {
            if w[0].object == w[1].object {
                return Err(StorageError::DuplicateObject {
                    object: w[0].object,
                    path: path.to_path_buf(),
                });
            }
        }
        let by_object = entries.clone();
        // Data order: the skeleton — descending grade, ties by ascending
        // object id (`entries` is already id-ascending, so a stable sort on
        // the grade key alone preserves exactly that tiebreak).
        entries.sort_by_key(|e| std::cmp::Reverse(e.grade));
        let by_grade = entries;

        let entries_per_block = self.block_size / ENTRY_LEN;
        // Dictionary mode when the distinct grade bit patterns fit the
        // cap — exact by construction, since entries store indices into the
        // very bit patterns recorded in the footer.
        let mut grade_dict: Vec<u64> = by_grade.iter().map(|e| e.grade.value().to_bits()).collect();
        grade_dict.sort_unstable();
        grade_dict.dedup();
        if grade_dict.len() > GRADE_DICT_MAX {
            grade_dict.clear();
        }

        let tmp_path = tmp_sibling(path);
        let file = self.vfs.create(&tmp_path)?;
        // From here until the rename publishes the segment, any error (or
        // panic) leaves a stale tmp sibling — the guard removes it so a
        // failed build cannot leak files an operator has to garbage-collect.
        let guard = TmpGuard::new(self.vfs.as_ref(), &tmp_path);
        let mut out = VfsBufWriter::new(file);

        out.write_all(&HEADER_MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;

        let mut footer = Footer {
            block_size: self.block_size,
            num_entries: by_grade.len() as u64,
            table_first_ids: by_object
                .chunks(entries_per_block)
                .map(|c| c[0].object.0)
                .collect(),
            grade_dict,
            ..Footer::default()
        };
        let mut sums = [Vec::new(), Vec::new()];
        let mut lens = [Vec::new(), Vec::new()];
        for (kind, region) in [
            (RegionKind::Data, &by_grade),
            (RegionKind::Table, &by_object),
        ] {
            for (i, chunk) in region.chunks(entries_per_block).enumerate() {
                let block = encode_block(chunk, footer.encoding(kind, i));
                sums[kind as usize].push(checksum(&block));
                lens[kind as usize].push(block.len() as u64);
                out.write_all(&block)?;
            }
        }
        [footer.data_checksums, footer.table_checksums] = sums;
        [footer.data_block_lens, footer.table_block_lens] = lens;
        let footer_bytes = footer.encode();
        let payload_len: u64 = footer
            .data_block_lens
            .iter()
            .chain(&footer.table_block_lens)
            .sum();
        let footer_offset = crate::format::HEADER_LEN + payload_len;
        out.write_all(&footer_bytes)?;
        out.write_all(&footer_offset.to_le_bytes())?;
        out.write_all(&(footer_bytes.len() as u64).to_le_bytes())?;
        out.write_all(&TRAILER_MAGIC)?;

        let mut file = out.into_file()?;
        file.sync_all()?;
        drop(file);
        self.vfs.rename(&tmp_path, path)?;
        guard.disarm();
        // Make the rename itself durable: fsync the containing directory.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            self.vfs.sync_dir(dir)?;
        }

        let bytes = footer_offset + footer_bytes.len() as u64 + crate::format::TRAILER_LEN;
        Ok(SegmentInfo {
            entries: by_grade.len() as u64,
            blocks_per_region: footer.blocks() as u64,
            bytes,
        })
    }
}

impl Default for SegmentWriter {
    fn default() -> Self {
        SegmentWriter::new()
    }
}

/// A sibling of `path` to build its next version in: `<name>.<pid>.<n>.tmp`,
/// with `n` drawn from a process-wide counter. No two publications share a
/// name — not two threads of this process, not two processes — so one
/// writer can neither truncate the file another is filling nor rename or
/// remove it from under it.
pub(crate) fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// Removes the tmp sibling on drop unless the rename published it first —
/// so an error (or panic) anywhere in the build leaves no stray files.
pub(crate) struct TmpGuard<'a> {
    vfs: &'a dyn Vfs,
    path: &'a Path,
    armed: bool,
}

impl<'a> TmpGuard<'a> {
    pub(crate) fn new(vfs: &'a dyn Vfs, path: &'a Path) -> Self {
        TmpGuard {
            vfs,
            path,
            armed: true,
        }
    }

    /// The rename has published the file: there is nothing left to remove.
    pub(crate) fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for TmpGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Best-effort: the file may never have been created, and the
            // cleanup itself may be what the fault plan fails.
            let _ = self.vfs.remove_file(self.path);
        }
    }
}

/// Batches small writes into ~64 KiB flushes — [`std::io::BufWriter`]
/// rebuilt over the [`VfsFile`] seam so injected write faults still see a
/// realistic number of distinct write operations.
struct VfsBufWriter {
    file: Box<dyn VfsFile>,
    buf: Vec<u8>,
}

const WRITE_BUF: usize = 64 * 1024;

impl VfsBufWriter {
    fn new(file: Box<dyn VfsFile>) -> Self {
        VfsBufWriter {
            file,
            buf: Vec::with_capacity(WRITE_BUF),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= WRITE_BUF {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn into_file(mut self) -> io::Result<Box<dyn VfsFile>> {
        self.flush()?;
        Ok(self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultRule, FaultVfs};
    use std::fs;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    /// Whether any `<name>.….tmp` sibling of `path` is lying around.
    fn tmp_debris(path: &Path) -> bool {
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        fs::read_dir(path.parent().unwrap()).unwrap().any(|entry| {
            let sibling = entry.unwrap().file_name().into_string().unwrap();
            sibling.starts_with(&format!("{name}.")) && sibling.ends_with(".tmp")
        })
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("garlic-storage-writer-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writes_expected_geometry() {
        let path = temp_path("geometry.seg");
        // 80-byte blocks hold 5 entries; 7 entries need 2 blocks per region.
        let writer = SegmentWriter::with_block_size(80).unwrap();
        let grades: Vec<Grade> = [1.0, 0.5, 0.0, 1.0, 0.25, 0.75, 0.125]
            .iter()
            .map(|&v| g(v))
            .collect();
        let info = writer.write_grades(&path, &grades).unwrap();
        assert_eq!(info.entries, 7);
        assert_eq!(info.blocks_per_region, 2);
        let opened =
            crate::SegmentSource::open(&path, Arc::new(crate::BlockCache::new(4))).unwrap();
        assert_eq!(opened.exact_match_count(), 2);
        assert!(!opened.is_crisp());
        let bytes = fs::read(&path).unwrap();
        assert_eq!(info.bytes, bytes.len() as u64);
        // Header + 4 blocks + footer + trailer.
        let footer_at = crate::format::read_u64(&bytes, bytes.len() - 24) as usize;
        let footer = Footer::parse(&bytes[footer_at..bytes.len() - 24]).unwrap();
        assert_eq!(footer.table_first_ids, [0, 5]);
        let blocks: u64 = footer
            .data_block_lens
            .iter()
            .chain(&footer.table_block_lens)
            .sum();
        assert_eq!(info.bytes, 8 + blocks + footer.encode().len() as u64 + 24);
    }

    #[test]
    fn duplicate_objects_are_a_typed_error() {
        let path = temp_path("dup.seg");
        let writer = SegmentWriter::new();
        let result = writer.write_pairs(&path, vec![(ObjectId(1), g(0.5)), (ObjectId(1), g(0.7))]);
        match result {
            Err(StorageError::DuplicateObject { object, path: p }) => {
                assert_eq!(object, ObjectId(1));
                assert_eq!(p, path, "the error names the destination segment");
            }
            other => panic!("expected DuplicateObject, got {other:?}"),
        }
    }

    #[test]
    fn crisp_lists_are_flagged() {
        let path = temp_path("crisp.seg");
        SegmentWriter::new()
            .write_grades(&path, &[g(1.0), g(0.0), g(1.0)])
            .unwrap();
        let opened =
            crate::SegmentSource::open(&path, Arc::new(crate::BlockCache::new(4))).unwrap();
        assert!(opened.is_crisp());
        assert_eq!(opened.exact_match_count(), 2);
    }

    #[test]
    fn no_tmp_file_survives_a_successful_write() {
        let path = temp_path("clean.seg");
        SegmentWriter::new().write_grades(&path, &[g(0.5)]).unwrap();
        assert!(path.exists());
        assert!(!tmp_debris(&path));
    }

    /// The RAII guard's real job: a build that *fails* must not leak its
    /// tmp sibling either — for a write fault, a sync fault, and a rename
    /// fault (the three distinct failure points of the publication dance).
    #[test]
    fn no_tmp_file_survives_a_failed_write() {
        let grades: Vec<Grade> = (0..2000).map(|i| g((i % 100) as f64 / 100.0)).collect();
        for (name, op) in [
            ("fail-write.seg", FaultOp::Write),
            ("fail-sync.seg", FaultOp::Sync),
            ("fail-rename.seg", FaultOp::Rename),
        ] {
            let path = temp_path(name);
            let vfs = FaultVfs::new();
            vfs.push_rule(FaultRule {
                path_contains: name.to_owned(),
                op,
                nth: 0,
                kind: FaultKind::Permanent,
            });
            let err = SegmentWriter::new()
                .with_vfs(Arc::new(vfs))
                .write_grades(&path, &grades)
                .unwrap_err();
            assert!(matches!(err, StorageError::Io(_)), "{name}: {err}");
            assert!(!path.exists(), "{name}: nothing published");
            assert!(!tmp_debris(&path), "{name}: tmp cleaned up");
        }
    }

    /// A torn write is the nastiest failure: half the bytes really land.
    /// The guard still removes the torn tmp file and nothing is published.
    #[test]
    fn torn_write_leaves_no_debris() {
        let path = temp_path("torn.seg");
        let vfs = FaultVfs::new();
        vfs.push_rule(FaultRule {
            path_contains: "torn.seg".to_owned(),
            op: FaultOp::Write,
            nth: 0,
            kind: FaultKind::TornWrite { keep: 17 },
        });
        let err = SegmentWriter::new()
            .with_vfs(Arc::new(vfs))
            .write_grades(&path, &[g(0.5), g(0.25)])
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(!path.exists());
        assert!(!tmp_debris(&path));
    }

    /// ROADMAP item 0: writers racing on one target used to share one
    /// `<name>.tmp`, so one truncated, renamed or removed the file another
    /// was filling — `Io(NotFound)` for the loser at best, a torn segment
    /// published at worst. Every write now builds in a file of its own:
    /// all of them succeed, and whatever the path holds after each rename
    /// is one writer's whole segment.
    #[test]
    fn racing_writers_on_one_target_each_publish_a_whole_segment() {
        use crate::{BlockCache, SegmentSource};
        use garlic_core::access::GradedSource;
        use std::sync::Barrier;

        const WRITERS: usize = 8;
        const ROUNDS: usize = 6;
        let path = temp_path("raced.seg");
        // Writer `w` publishes `1000 + w` entries, all graded `w / WRITERS`,
        // so a published file names its writer and a mix of two is invalid.
        let lists: Vec<Vec<Grade>> = (0..WRITERS)
            .map(|w| vec![g(w as f64 / WRITERS as f64); 1000 + w])
            .collect();
        let barrier = Barrier::new(WRITERS);
        std::thread::scope(|scope| {
            for grades in &lists {
                let (path, barrier, lists) = (&path, &barrier, &lists);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        barrier.wait();
                        SegmentWriter::with_block_size(256)
                            .unwrap()
                            .write_grades(path, grades)
                            .unwrap_or_else(|e| panic!("round {round}: {e}"));
                        let seg = SegmentSource::open(path, Arc::new(BlockCache::new(4)))
                            .unwrap_or_else(|e| panic!("round {round}: published torn: {e}"));
                        let w = seg.len() - 1000;
                        let mut out = Vec::new();
                        seg.sorted_batch(0, usize::MAX, &mut out);
                        assert!(out.iter().all(|e| e.grade == lists[w][0]), "mixed writers");
                    }
                });
            }
        });
        assert!(!tmp_debris(&path));
    }

    #[test]
    fn sharded_build_partitions_by_id_range() {
        let dir = temp_path("sharded-build");
        fs::create_dir_all(&dir).unwrap();
        let grades: Vec<Grade> = (0..10).map(|i| g(i as f64 / 10.0)).collect();
        let shards = SegmentWriter::new()
            .write_sharded_grades(&dir, "attr", 4, &grades)
            .unwrap();
        assert_eq!(shards.len(), 4);
        // Balanced contiguous ranges: 3+3+3+1 over ids 0..10.
        assert_eq!(
            shards.iter().map(|s| s.first_id).collect::<Vec<_>>(),
            vec![0, 3, 6, 9]
        );
        let total: u64 = shards.iter().map(|s| s.info.entries).sum();
        assert_eq!(total, 10);
        for shard in &shards {
            assert!(shard.path.exists(), "{} published", shard.path.display());
        }
        // More shards than entries: every produced shard is non-empty.
        let tiny = SegmentWriter::new()
            .write_sharded_grades(&dir, "tiny", 8, &grades[..3])
            .unwrap();
        assert_eq!(tiny.len(), 3);
        assert!(tiny.iter().all(|s| s.info.entries == 1));
    }

    #[test]
    fn rejected_block_sizes() {
        assert!(matches!(
            SegmentWriter::with_block_size(17),
            Err(StorageError::InvalidBlockSize { requested: 17 })
        ));
    }

    /// Compressed blocks take at most half the bytes of 16-byte entries
    /// in full blocks, on a realistic corpus.
    #[test]
    fn dictionary_blocks_take_at_most_half_of_full_entries() {
        let path = temp_path("quantized.seg");
        // 1000 quantization levels → dictionary mode.
        let grades: Vec<Grade> = (0..5000)
            .map(|i| g((i * 37 % 1000) as f64 / 1000.0))
            .collect();
        let info = SegmentWriter::new().write_grades(&path, &grades).unwrap();
        let slots = 2 * info.blocks_per_region * DEFAULT_BLOCK_SIZE as u64;
        assert!(
            info.bytes * 2 <= slots,
            "{} B not ≥2× smaller than the {slots} B of full 16-byte slots",
            info.bytes
        );
    }
}
