//! Reading segments: [`SegmentSource`], a disk-backed [`GradedSource`].
//!
//! `SegmentSource::open` is where durability is enforced: it parses the
//! header, dispatches on the format version (v1 fixed-slot or v2
//! compressed — see [`crate::format`]), then makes one streaming pass
//! over the whole file verifying every block checksum, every grade, both
//! sort orders, and (v2) every varint frame and footer fence, so a
//! corrupted or truncated segment fails with a typed [`StorageError`]
//! *before* it can serve a single wrong entry. After a successful open
//! the source is an ordinary `Send + Sync` graded source: sorted access
//! streams data blocks through the shared [`BlockCache`], random access
//! routes through the footer's fence index to exactly one table block,
//! and `SetAccess` enumerates the grade-1 prefix — bit-identical
//! behaviour to a [`MemorySource`] over the same pairs, in either
//! version (the round-trip property suite holds it to that).
//!
//! On v2 segments the per-block grade fences additionally power
//! [`GradedSource::try_sorted_batch_bounded`]: a threshold-hinted scan stops
//! *before loading* the first block whose `grade_max` falls below the
//! bound, skipping the cache, the I/O, and the decode for the entire
//! remaining region.
//!
//! [`MemorySource`]: garlic_core::access::MemorySource

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{BoundedBatch, GradedSource, SetAccess, SourceError};
use garlic_core::{GradedEntry, ObjectId};

use crate::cache::{BlockCache, BlockKey};
use crate::error::StorageError;
use crate::format::{
    decode_raw, encode_entry, fnv1a64, read_u64, BlockV2, Footer, FooterV2, RegionKind, Restart,
    ENTRY_LEN, FLAG_CRISP, FLAG_GRADE_DICT, FORMAT_V1, FORMAT_VERSION, HEADER_LEN, HEADER_MAGIC,
    RESTART_INTERVAL, TRAILER_LEN, TRAILER_MAGIC,
};
use crate::vfs::{std_vfs, Vfs, VfsRead};

/// Process-wide id well for opened segments, so any number of segments can
/// share one [`BlockCache`] without key collisions.
static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(0);

/// How a [`SegmentSource`] reacts to a failing block read: how many
/// attempts before giving up, and how the exponential backoff between
/// them is shaped. The delay before attempt `n + 1` is
/// `min(base_delay_us << n, max_delay_us)` plus a deterministic jitter of
/// up to half that value, so retrying readers of one struggling disk do
/// not stampede in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per block read, the first included. `1` disables
    /// retries.
    pub attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_delay_us: u64,
    /// Backoff ceiling, in microseconds.
    pub max_delay_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay_us: 100,
            max_delay_us: 5_000,
        }
    }
}

/// An immutable on-disk graded list, verified at open, read through a
/// shared block cache.
///
/// # Runtime failures
///
/// `open` verifies the entire file, so a file that is left alone never
/// fails afterwards. If the *medium* fails later (dying disk, segment
/// deleted or rewritten underneath the source), the `try_*` reads this
/// source implements retry transiently failing block loads per the
/// [`RetryPolicy`], then — once the budget is exhausted — **quarantine**
/// the source: the failure surfaces as a typed [`SourceError`] with
/// `quarantined` set and every later read fails fast with
/// [`StorageError::Quarantined`]. Only the trait's provided *infallible*
/// adaptors panic on such a failure, and nothing in the query execution
/// or write path uses them against disk-backed sources.
pub struct SegmentSource {
    file: Box<dyn VfsRead>,
    path: PathBuf,
    cache: Arc<BlockCache>,
    segment_id: u64,
    version: u32,
    /// See [`RetryPolicy`]; applied inside the cache's single-flight load,
    /// so concurrent readers of one failing block share one retry loop.
    retry: RetryPolicy,
    /// Transiently failed block reads that a retry then served.
    io_retries: AtomicU64,
    /// Block reads that exhausted the whole retry budget.
    io_gave_up: AtomicU64,
    /// Set once a block read exhausts its retry budget; every later read
    /// fails fast with [`StorageError::Quarantined`].
    poisoned: AtomicBool,
    /// xorshift state feeding the backoff jitter.
    jitter: AtomicU64,
    /// Data blocks decoded by threshold-hinted scans.
    fence_loaded: AtomicU64,
    /// Data blocks a threshold-hinted scan proved irrelevant and never
    /// loaded (grade fence below the bound, or past a decoded block that
    /// ended below it).
    fence_skipped: AtomicU64,
    footer: Footer,
    /// Present for v2 segments: block addressing, grade dictionary, and
    /// the data-region skip fences. `None` means the fixed-slot v1 layout.
    layout: Option<V2Layout>,
    entries_per_block: usize,
    max_object: Option<ObjectId>,
}

/// Cumulative block outcomes of a segment's threshold-hinted scans — see
/// [`SegmentSource::fence_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceStats {
    /// Data blocks decoded by bounded scans.
    pub blocks_loaded: u64,
    /// Data blocks bounded scans proved irrelevant before loading them.
    pub blocks_skipped: u64,
}

impl FenceStats {
    /// Fraction of fence-checked blocks the scans never had to load
    /// (0 when no bounded scan ran).
    pub fn skip_rate(&self) -> f64 {
        let total = self.blocks_loaded + self.blocks_skipped;
        if total == 0 {
            0.0
        } else {
            self.blocks_skipped as f64 / total as f64
        }
    }
}

/// The extra reader state a v2 segment carries beyond the shared footer
/// geometry.
struct V2Layout {
    /// `(absolute file offset, encoded byte length)` of every file-wide
    /// block, data region first then table region — v2 blocks are
    /// variable-length, so offsets are prefix sums of the footer's
    /// per-block lengths.
    locs: Vec<(u64, u32)>,
    /// The sorted grade-bit dictionary (dictionary mode), else `None`
    /// (per-block bit-delta mode).
    dict: Option<Vec<u64>>,
    /// Each data block's greatest grade — the fence consulted before a
    /// threshold-hinted scan loads the block.
    grade_max: Vec<Grade>,
    /// The restart points of every data block, block after block: the
    /// decoder state in front of every [`RESTART_INTERVAL`]-th entry, noted
    /// down by the open-time scan, so a read resumes next to its first
    /// entry instead of at the block's start.
    data_restarts: Vec<Restart>,
    /// The same for the table region.
    table_restarts: Vec<Restart>,
}

impl SegmentSource {
    /// Opens and fully verifies the segment at `path` on the real
    /// filesystem; see [`open_with`](Self::open_with).
    pub fn open(path: impl AsRef<Path>, cache: Arc<BlockCache>) -> Result<Self, StorageError> {
        Self::open_with(path, cache, &std_vfs())
    }

    /// Opens and fully verifies the segment at `path` through `vfs`,
    /// attaching it to `cache`. The verification pass streams the file
    /// once without populating the cache, so a freshly opened segment is
    /// *cold*.
    pub fn open_with(
        path: impl AsRef<Path>,
        cache: Arc<BlockCache>,
        vfs: &Arc<dyn Vfs>,
    ) -> Result<Self, StorageError> {
        let path = path.as_ref().to_path_buf();
        let file = vfs.open_read(&path)?;
        let file_len = file.len()?;
        if file_len < HEADER_LEN + TRAILER_LEN {
            return Err(StorageError::Truncated {
                expected: HEADER_LEN + TRAILER_LEN,
                actual: file_len,
            });
        }

        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)?;
        if header[..4] != HEADER_MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4-byte field"));
        if !(FORMAT_V1..=FORMAT_VERSION).contains(&version) {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                oldest_supported: FORMAT_V1,
                newest_supported: FORMAT_VERSION,
            });
        }

        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut trailer, file_len - TRAILER_LEN)?;
        if trailer[16..24] != TRAILER_MAGIC {
            return Err(StorageError::FooterCorrupt {
                detail: "trailer magic missing (interrupted or truncated write?)".to_owned(),
            });
        }
        let footer_offset = read_u64(&trailer, 0);
        let footer_len = read_u64(&trailer, 8);
        let expected_len = footer_offset
            .checked_add(footer_len)
            .and_then(|v| v.checked_add(TRAILER_LEN))
            .ok_or_else(|| StorageError::FooterCorrupt {
                detail: "footer offset/length overflow".to_owned(),
            })?;
        if footer_offset < HEADER_LEN || expected_len != file_len {
            return Err(StorageError::Truncated {
                expected: expected_len,
                actual: file_len,
            });
        }

        let mut footer_bytes = vec![0u8; footer_len as usize];
        file.read_exact_at(&mut footer_bytes, footer_offset)?;
        let (footer, layout, max_object) = if version == FORMAT_V1 {
            let footer = Footer::parse(&footer_bytes)?;
            // All footer geometry is untrusted until it survives these
            // checks: overflow in a forged footer must be an error, not a
            // wrap/panic.
            let region_end = footer
                .data_blocks
                .checked_add(footer.table_blocks)
                .and_then(|blocks| blocks.checked_mul(footer.block_size as u64))
                .and_then(|bytes| bytes.checked_add(HEADER_LEN))
                .ok_or_else(|| StorageError::FooterCorrupt {
                    detail: "region geometry overflows".to_owned(),
                })?;
            if region_end != footer_offset {
                return Err(StorageError::FooterCorrupt {
                    detail: format!(
                        "blocks end at {region_end} but footer starts at {footer_offset}"
                    ),
                });
            }
            let stats = verify_blocks(file.as_ref(), &footer)?;
            (footer, None, stats.max_object)
        } else {
            let v2 = FooterV2::parse(&footer_bytes)?;
            // v2 blocks are variable-length: their file offsets are prefix
            // sums of the footer's (already sanity-bounded) byte lengths,
            // and the regions must end exactly where the footer starts.
            let mut locs =
                Vec::with_capacity((v2.data_blocks + v2.table_blocks).min(1 << 32) as usize);
            let mut offset = HEADER_LEN;
            for &len in v2.data_block_lens.iter().chain(&v2.table_block_lens) {
                locs.push((offset, len as u32));
                offset = offset
                    .checked_add(len)
                    .ok_or_else(|| StorageError::FooterCorrupt {
                        detail: "region geometry overflows".to_owned(),
                    })?;
            }
            if offset != footer_offset {
                return Err(StorageError::FooterCorrupt {
                    detail: format!("blocks end at {offset} but footer starts at {footer_offset}"),
                });
            }
            let stats = verify_blocks_v2(file.as_ref(), &v2)?;
            let layout = V2Layout {
                locs,
                dict: (v2.flags & FLAG_GRADE_DICT != 0).then(|| v2.grade_dict.clone()),
                grade_max: v2
                    .grade_max_bits
                    .iter()
                    .map(|&bits| Grade::clamped(f64::from_bits(bits)))
                    .collect(),
                data_restarts: stats.data_restarts,
                table_restarts: stats.table_restarts,
            };
            let footer = Footer {
                flags: v2.flags,
                block_size: v2.block_size,
                num_entries: v2.num_entries,
                ones: v2.ones,
                data_blocks: v2.data_blocks,
                table_blocks: v2.table_blocks,
                data_checksums: v2.data_checksums,
                table_checksums: v2.table_checksums,
                table_first_ids: v2.table_first_ids,
            };
            (footer, Some(layout), stats.max_object)
        };

        let segment_id = NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed);
        Ok(SegmentSource {
            file,
            path,
            cache,
            segment_id,
            version,
            retry: RetryPolicy::default(),
            io_retries: AtomicU64::new(0),
            io_gave_up: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            jitter: AtomicU64::new(segment_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            fence_loaded: AtomicU64::new(0),
            fence_skipped: AtomicU64::new(0),
            entries_per_block: footer.block_size / ENTRY_LEN,
            footer,
            layout,
            max_object,
        })
    }

    /// Replaces the block-read [`RetryPolicy`] (do this before sharing the
    /// source across threads).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active block-read retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Transiently failed block reads that a retry then served.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Block reads that exhausted the whole retry budget (each also
    /// quarantined the source).
    pub fn io_gave_up(&self) -> u64 {
        self.io_gave_up.load(Ordering::Relaxed)
    }

    /// Whether the source has been quarantined by an exhausted retry
    /// budget — every read now fails fast.
    pub fn is_quarantined(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The on-disk format version this segment was written in.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The file this source reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether every grade is exactly 0 or 1 (recorded by the writer and
    /// re-verified at open) — the segment then supports set access.
    pub fn is_crisp(&self) -> bool {
        self.footer.flags & FLAG_CRISP != 0
    }

    /// Number of grade-1 entries — the exact-match count, free selectivity
    /// information for the planner.
    pub fn exact_match_count(&self) -> u64 {
        self.footer.ones
    }

    /// The largest object id graded (`None` for an empty segment), learned
    /// during the open-time scan. Together with [`len`](GradedSource::len)
    /// and the verified id uniqueness this pins the universe: `len == N`
    /// and `max_object < N` imply the segment grades exactly `0..N`.
    pub fn max_object(&self) -> Option<ObjectId> {
        self.max_object
    }

    /// The smallest object id graded (`None` for an empty segment) — the
    /// first fence of the footer's block index, since the table region is
    /// id-ascending. This is a shard's range fence when segments are
    /// opened as an id-range partition of one logical list.
    pub fn min_object(&self) -> Option<ObjectId> {
        self.footer.table_first_ids.first().map(|&id| ObjectId(id))
    }

    /// The segment's block size in bytes.
    pub fn block_size(&self) -> usize {
        self.footer.block_size
    }

    /// Blocks per region (sorted-order data and object-order table regions
    /// are the same size).
    pub fn blocks_per_region(&self) -> u64 {
        self.footer.data_blocks
    }

    /// The cache this source reads through.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Cumulative block outcomes of every threshold-hinted scan
    /// ([`try_sorted_batch_bounded`](GradedSource::try_sorted_batch_bounded)) this
    /// source served: blocks decoded vs blocks the grade fence (or a
    /// decoded block ending below the bound) let the scan skip. Plain
    /// relaxed counters, bumped once per *block*, never per entry.
    pub fn fence_stats(&self) -> FenceStats {
        FenceStats {
            blocks_loaded: self.fence_loaded.load(Ordering::Relaxed),
            blocks_skipped: self.fence_skipped.load(Ordering::Relaxed),
        }
    }

    /// Bytes of memory the restart index holds (0 for a v1 segment, whose
    /// fixed slots need none): one [`Restart`] per [`RESTART_INTERVAL`]
    /// entries of each region.
    pub fn restart_index_bytes(&self) -> usize {
        self.layout.as_ref().map_or(0, |layout| {
            (layout.data_restarts.capacity() + layout.table_restarts.capacity())
                * std::mem::size_of::<Restart>()
        })
    }

    /// This source's process-unique cache namespace: the `segment` half of
    /// every cache key (`BlockKey`) it inserts. Pass it to
    /// [`BlockCache::retire`](crate::BlockCache::retire) once the segment
    /// is replaced (compaction does) so its dead blocks stop occupying
    /// residency.
    pub fn segment_id(&self) -> u64 {
        self.segment_id
    }

    /// Number of entries in block `index` of a region (`blocks` total over
    /// `self.len()` entries): full except possibly the last.
    fn entries_in_block(&self, index: u64) -> usize {
        let n = self.footer.num_entries as usize;
        let start = index as usize * self.entries_per_block;
        (n - start).min(self.entries_per_block)
    }

    /// Draws the next deterministic jitter value (xorshift64*, seeded per
    /// segment) so retry delays desynchronize across concurrent readers
    /// without any global randomness source.
    fn next_jitter(&self) -> u64 {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        x
    }

    fn fetch(&self, file_block: u64, checksum: u64) -> Result<Arc<[u8]>, StorageError> {
        if self.poisoned.load(Ordering::Acquire) {
            // Fail fast: a quarantined segment never re-enters its retry
            // loop, so one dead disk cannot stall every query on it.
            return Err(StorageError::Quarantined {
                path: self.path.clone(),
            });
        }
        let key = BlockKey {
            segment: self.segment_id,
            block: file_block,
        };
        let result = self.cache.get_or_load(key, || {
            // v1 blocks are fixed slots; v2 blocks live wherever the
            // footer's prefix sums put them.
            let (offset, len) = match &self.layout {
                None => (
                    HEADER_LEN + file_block * self.footer.block_size as u64,
                    self.footer.block_size,
                ),
                Some(layout) => {
                    let (offset, len) = layout.locs[file_block as usize];
                    (offset, len as usize)
                }
            };
            // Retry inside the single-flight closure so concurrent readers
            // of the same block share one retry budget, and a block that
            // eventually loads is billed as one miss.
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                let mut buf = vec![0u8; len];
                let outcome = self
                    .file
                    .read_exact_at(&mut buf, offset)
                    .map_err(StorageError::Io)
                    .and_then(|()| {
                        if fnv1a64(&buf) != checksum {
                            Err(StorageError::ChecksumMismatch { block: file_block })
                        } else {
                            Ok(())
                        }
                    });
                match outcome {
                    Ok(()) => {
                        return Ok(Arc::from(buf.into_boxed_slice()));
                    }
                    Err(e) if attempt < self.retry.attempts => {
                        // Transient-looking failure (I/O error or a read
                        // that raced a torn write): back off and retry.
                        self.io_retries.fetch_add(1, Ordering::Relaxed);
                        let shift = (attempt - 1).min(20);
                        let base = self
                            .retry
                            .base_delay_us
                            .checked_shl(shift)
                            .unwrap_or(u64::MAX)
                            .min(self.retry.max_delay_us);
                        let jitter = self.next_jitter() % (base / 2 + 1);
                        std::thread::sleep(std::time::Duration::from_micros(base + jitter));
                        let _ = e;
                    }
                    Err(e) => return Err(e),
                }
            }
        });
        if let Err(e) = &result {
            if !matches!(e, StorageError::Quarantined { .. })
                && !self.poisoned.swap(true, Ordering::AcqRel)
            {
                // The full retry budget is gone: quarantine the segment so
                // later reads fail fast with a typed error.
                self.io_gave_up.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Fetches data block `index` through the retry loop; a typed error
    /// means the retry budget is exhausted (segment now quarantined) or
    /// the segment was already quarantined.
    fn try_data_block(&self, index: u64) -> Result<Arc<[u8]>, StorageError> {
        self.fetch(index, self.footer.data_checksums[index as usize])
    }

    /// Fetches table block `index` (same policy).
    fn try_table_block(&self, index: u64) -> Result<Arc<[u8]>, StorageError> {
        self.fetch(
            self.footer.data_blocks + index,
            self.footer.table_checksums[index as usize],
        )
    }

    /// Lifts a storage failure into the access layer's typed error,
    /// flagging it quarantined when the segment has poisoned itself.
    fn source_error(&self, e: StorageError) -> SourceError {
        SourceError {
            source: self.path.display().to_string(),
            detail: e.to_string(),
            quarantined: matches!(e, StorageError::Quarantined { .. })
                || self.poisoned.load(Ordering::Acquire),
        }
    }

    /// Block `index` of a v2 region as the decoder takes it: its bytes, its
    /// entry count, and its slice of the region's restart points (every
    /// block but the last holds the same number of them).
    fn block_v2<'a>(
        &'a self,
        layout: &'a V2Layout,
        kind: RegionKind,
        bytes: &'a [u8],
        index: u64,
    ) -> BlockV2<'a> {
        let count = self.entries_in_block(index);
        let region = match kind {
            RegionKind::Data => &layout.data_restarts,
            RegionKind::Table => &layout.table_restarts,
        };
        let start = index as usize * ((self.entries_per_block - 1) / RESTART_INTERVAL);
        BlockV2 {
            bytes,
            count,
            kind,
            dict: layout.dict.as_deref(),
            restarts: &region[start..start + (count - 1) / RESTART_INTERVAL],
        }
    }

    /// Appends slots `[from, to)` of data block `index` to `out`,
    /// dispatching on the block encoding. A decode failure (a v2 block
    /// mutated after open) is a typed error, not a panic.
    fn decode_data_range(
        &self,
        block: &[u8],
        index: u64,
        from: usize,
        to: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<(), StorageError> {
        match &self.layout {
            None => crate::format::decode_entries(block, from, to, out),
            Some(layout) => self
                .block_v2(layout, RegionKind::Data, block, index)
                .decode_range(from, to, out)
                .map_err(|detail| StorageError::CorruptBlock {
                    block: index,
                    detail,
                })?,
        }
        Ok(())
    }

    /// Binary search for `object` in table block `index`: over the slots
    /// (v1), or over the restart points and then a walk of at most
    /// [`RESTART_INTERVAL`] entries (v2). Grade bits are trusted on both
    /// paths for the same reason: the block came through a
    /// checksum-verified load of bytes `open` validated. A decode failure
    /// (a block mutated after open) is a typed error, not a panic.
    fn lookup_in_table(
        &self,
        block: &[u8],
        index: u64,
        object: ObjectId,
    ) -> Result<Option<Grade>, StorageError> {
        match &self.layout {
            None => Ok(lookup_in_table_block(
                block,
                self.entries_in_block(index),
                object,
            )),
            Some(layout) => self
                .block_v2(layout, RegionKind::Table, block, index)
                .lookup(object.0)
                .map_err(|detail| StorageError::CorruptBlock {
                    block: self.footer.data_blocks + index,
                    detail,
                }),
        }
    }

    /// Body of [`GradedSource::try_random_batch`]: on error the slice
    /// `out[base..]` may hold partial answers — the caller truncates.
    pub(crate) fn random_batch_impl(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), StorageError> {
        let base = out.len();
        out.resize(base + objects.len(), None);
        let fences = &self.footer.table_first_ids;
        // Pair each probe with its candidate table block; probes below the
        // first fence have no candidate and stay `None`.
        let mut probes: Vec<(u64, u32)> = Vec::with_capacity(objects.len());
        for (position, object) in objects.iter().enumerate() {
            let candidate = fences.partition_point(|&first| first <= object.0);
            if candidate > 0 {
                probes.push(((candidate - 1) as u64, position as u32));
            }
        }
        // Group by block (stable within a block by input position).
        probes.sort_unstable();
        let mut index = 0usize;
        while index < probes.len() {
            let block_index = probes[index].0;
            let block = self.try_table_block(block_index)?;
            while index < probes.len() && probes[index].0 == block_index {
                let position = probes[index].1 as usize;
                out[base + position] =
                    self.lookup_in_table(&block, block_index, objects[position])?;
                index += 1;
            }
        }
        Ok(())
    }

    /// The one sorted scan, behind both
    /// [`GradedSource::try_sorted_batch`] (which passes [`Grade::ZERO`]: no
    /// grade is below it, so nothing is ever fenced out) and
    /// [`GradedSource::try_sorted_batch_bounded`] — the grade-fence
    /// skipping logic lives here; see that method's docs. The fence
    /// counters only count scans that carry a real bound. On error `out`
    /// may hold a partial append — the caller truncates.
    fn sorted_scan(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, StorageError> {
        let n = self.footer.num_entries as usize;
        let start = start.min(n);
        let end = start.saturating_add(count).min(n);
        let base = out.len();
        let hinted = bound > Grade::ZERO;
        if !hinted {
            out.reserve(end - start);
        }
        let mut rank = start;
        let mut truncated = false;
        // Last block the unbounded scan would touch — the denominator for
        // the loaded-vs-skipped fence accounting.
        let last_block = if end > start {
            ((end - 1) / self.entries_per_block) as u64
        } else {
            0
        };
        while rank < end {
            let block_index = (rank / self.entries_per_block) as u64;
            if let Some(layout) = &self.layout {
                if layout.grade_max[block_index as usize] < bound {
                    truncated = true;
                    self.fence_skipped
                        .fetch_add(last_block - block_index + 1, Ordering::Relaxed);
                    break;
                }
            }
            let block = self.try_data_block(block_index)?;
            if hinted {
                self.fence_loaded.fetch_add(1, Ordering::Relaxed);
            }
            let in_block = rank % self.entries_per_block;
            let take = (end - rank).min(self.entries_per_block - in_block);
            self.decode_data_range(&block, block_index, in_block, in_block + take, out)?;
            rank += take;
            if out.last().is_some_and(|entry| entry.grade < bound) {
                truncated = true;
                self.fence_skipped
                    .fetch_add(last_block - block_index, Ordering::Relaxed);
                break;
            }
        }
        Ok(BoundedBatch {
            appended: out.len() - base,
            truncated,
        })
    }
}

impl GradedSource for SegmentSource {
    fn len(&self) -> usize {
        self.footer.num_entries as usize
    }

    /// Decodes each touched data block once, straight into `out`; `out` is
    /// restored to its pre-call length on failure, so a caller can retry
    /// (or fail over) without double-billed or duplicated entries.
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        self.try_sorted_batch_bounded(start, count, Grade::ZERO, out)
            .map(|batch| batch.appended)
    }

    /// Probes are grouped by table block (sorted by the footer's fence
    /// index), so each touched block is fetched from the shared cache — and
    /// its checksum re-verified on a miss — **once per batch**, not once
    /// per probe. Results land positionally aligned with `objects`, and
    /// misses/duplicates are answered probe by probe.
    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        let base = out.len();
        self.random_batch_impl(objects, out).map_err(|e| {
            out.truncate(base);
            self.source_error(e)
        })
    }

    /// Threshold-hinted streaming. On a v2 segment the footer's
    /// `grade_max` fences answer "can this block still matter?" *before*
    /// the block is loaded: the scan stops at the first block whose fence
    /// falls below `bound`, skipping its cache request, its I/O, and its
    /// decode — and everything after it, since blocks are grade-descending.
    /// On v1 the fence check is unavailable, but the scan still stops at
    /// block granularity once a decoded block ends below the bound. Either
    /// way the emitted entries are an exact prefix of the unbounded
    /// stream, and `truncated` is only reported when every remaining entry
    /// provably grades below `bound`.
    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        let base = out.len();
        self.sorted_scan(start, count, bound, out).map_err(|e| {
            out.truncate(base);
            self.source_error(e)
        })
    }
}

impl SetAccess for SegmentSource {
    /// The grade-1 prefix of the sorted order — identical semantics to
    /// [`MemorySource`](garlic_core::access::MemorySource)'s.
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        let mut out = Vec::with_capacity(self.footer.ones as usize);
        let mut batch = Vec::new();
        let mut rank = 0usize;
        'scan: while self.try_sorted_batch(rank, self.entries_per_block.max(1), &mut batch)? > 0 {
            rank += batch.len();
            for entry in batch.drain(..) {
                if entry.grade != Grade::ONE {
                    break 'scan;
                }
                out.push(entry.object);
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for SegmentSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentSource")
            .field("path", &self.path)
            .field("entries", &self.footer.num_entries)
            .field("block_size", &self.footer.block_size)
            .field("blocks_per_region", &self.footer.data_blocks)
            .field("crisp", &self.is_crisp())
            .finish()
    }
}

/// Binary search for `object` among the first `count` object-ordered slots
/// of a table block. Grade bits are trusted for the same reason
/// [`crate::format::decode_entries`] trusts them — the block came through
/// a checksum-verified load of bytes the open-time scan validated — so
/// both access paths behave identically on any block the cache can serve.
fn lookup_in_table_block(block: &[u8], count: usize, object: ObjectId) -> Option<Grade> {
    let mut lo = 0usize;
    let mut hi = count;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (id, value) = decode_raw(block, mid);
        match id.cmp(&object.0) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(Grade::clamped(value)),
        }
    }
    None
}

/// What the integrity scan learned beyond "the file is sound".
struct VerifiedStats {
    /// The largest object id graded, `None` for an empty segment.
    max_object: Option<ObjectId>,
    /// The restart points of every data block, in order (v2 only).
    data_restarts: Vec<Restart>,
    /// The restart points of every table block, in order (v2 only).
    table_restarts: Vec<Restart>,
}

/// The open-time integrity scan: one sequential pass over both regions,
/// checking every block checksum, every grade, both sort orders, the
/// footer's derived statistics (crisp flag, match count, fence ids), and —
/// via an order-independent digest of the entry slots — that the two
/// regions hold the *same* entries, so sorted access and random access can
/// never disagree on a file that passed.
fn verify_blocks(file: &dyn VfsRead, footer: &Footer) -> Result<VerifiedStats, StorageError> {
    let entries_per_block = footer.block_size / ENTRY_LEN;
    let mut buf = vec![0u8; footer.block_size];
    let mut pos = HEADER_LEN;

    let mut prev: Option<GradedEntry> = None;
    let mut ones = 0u64;
    let mut crisp = true;
    let mut data_digest = 0u64;
    for (i, &expected) in footer.data_checksums.iter().enumerate() {
        file.read_exact_at(&mut buf, pos)?;
        pos += buf.len() as u64;
        if fnv1a64(&buf) != expected {
            return Err(StorageError::ChecksumMismatch { block: i as u64 });
        }
        let count = (footer.num_entries as usize - i * entries_per_block).min(entries_per_block);
        for slot in 0..count {
            let (object, value) = decode_raw(&buf, slot);
            let grade = Grade::new(value).map_err(|e| StorageError::CorruptBlock {
                block: i as u64,
                detail: format!("entry {slot}: {e}"),
            })?;
            let entry = GradedEntry::new(object, grade);
            if let Some(p) = prev {
                if (entry.grade, std::cmp::Reverse(entry.object))
                    > (p.grade, std::cmp::Reverse(p.object))
                {
                    return Err(StorageError::CorruptBlock {
                        block: i as u64,
                        detail: format!("entry {slot} breaks the descending skeleton order"),
                    });
                }
            }
            prev = Some(entry);
            if grade == Grade::ONE {
                ones += 1;
            }
            crisp &= grade.is_crisp();
            data_digest ^= fnv1a64(&buf[slot * ENTRY_LEN..(slot + 1) * ENTRY_LEN]);
        }
    }
    if ones != footer.ones {
        return Err(StorageError::FooterCorrupt {
            detail: format!("footer says {} exact matches, data has {ones}", footer.ones),
        });
    }
    if crisp != (footer.flags & FLAG_CRISP != 0) {
        return Err(StorageError::FooterCorrupt {
            detail: "crisp flag disagrees with the data region".to_owned(),
        });
    }

    let mut prev_id: Option<u64> = None;
    let mut table_digest = 0u64;
    for (i, &expected) in footer.table_checksums.iter().enumerate() {
        file.read_exact_at(&mut buf, pos)?;
        pos += buf.len() as u64;
        let file_block = footer.data_blocks + i as u64;
        if fnv1a64(&buf) != expected {
            return Err(StorageError::ChecksumMismatch { block: file_block });
        }
        let count = (footer.num_entries as usize - i * entries_per_block).min(entries_per_block);
        for slot in 0..count {
            let (object, value) = decode_raw(&buf, slot);
            Grade::new(value).map_err(|e| StorageError::CorruptBlock {
                block: file_block,
                detail: format!("entry {slot}: {e}"),
            })?;
            if slot == 0 && object != footer.table_first_ids[i] {
                return Err(StorageError::FooterCorrupt {
                    detail: format!(
                        "table block {i} starts at object {object}, fence says {}",
                        footer.table_first_ids[i]
                    ),
                });
            }
            if let Some(p) = prev_id {
                if object <= p {
                    return Err(StorageError::CorruptBlock {
                        block: file_block,
                        detail: format!("entry {slot} breaks the ascending object order"),
                    });
                }
            }
            prev_id = Some(object);
            table_digest ^= fnv1a64(&buf[slot * ENTRY_LEN..(slot + 1) * ENTRY_LEN]);
        }
    }
    // Both regions are internally consistent; now they must agree with
    // each other. XOR of per-entry hashes is order-independent, so equal
    // digests ⇔ (up to hash collisions) equal entry sets.
    if data_digest != table_digest {
        return Err(StorageError::RegionMismatch);
    }
    Ok(VerifiedStats {
        max_object: prev_id.map(ObjectId),
        data_restarts: Vec::new(),
        table_restarts: Vec::new(),
    })
}

/// The v2 integrity scan: everything [`verify_blocks`] checks, plus full
/// varint-frame decoding of every block and validation of the footer's
/// per-block grade fences against the actual first/last entries. The two
/// regions use different encodings, so the cross-region digest hashes each
/// entry's *canonical* 16-byte slot rather than its encoded bytes. This is
/// the one place a block is decoded from its start, and the decode notes
/// down the restart points every later read resumes from.
fn verify_blocks_v2(file: &dyn VfsRead, footer: &FooterV2) -> Result<VerifiedStats, StorageError> {
    let entries_per_block = footer.block_size / ENTRY_LEN;
    let dict = (footer.flags & FLAG_GRADE_DICT != 0).then_some(footer.grade_dict.as_slice());
    let mut buf = Vec::new();
    let mut slot = [0u8; ENTRY_LEN];
    let mut pos = HEADER_LEN;

    let mut data_restarts = Vec::new();
    let mut table_restarts = Vec::new();

    let mut prev: Option<GradedEntry> = None;
    let mut ones = 0u64;
    let mut crisp = true;
    let mut data_digest = 0u64;
    let checks = footer.data_checksums.iter().zip(&footer.data_block_lens);
    for (i, (&expected, &len)) in checks.enumerate() {
        buf.clear();
        buf.resize(len as usize, 0);
        file.read_exact_at(&mut buf, pos)?;
        pos += buf.len() as u64;
        if fnv1a64(&buf) != expected {
            return Err(StorageError::ChecksumMismatch { block: i as u64 });
        }
        let count = (footer.num_entries as usize - i * entries_per_block).min(entries_per_block);
        let pairs = BlockV2::from_start(&buf, count, RegionKind::Data, dict)
            .decode_all(&mut data_restarts)
            .map_err(|detail| StorageError::CorruptBlock {
                block: i as u64,
                detail,
            })?;
        for (index, &(object, bits)) in pairs.iter().enumerate() {
            let grade =
                Grade::new(f64::from_bits(bits)).map_err(|e| StorageError::CorruptBlock {
                    block: i as u64,
                    detail: format!("entry {index}: {e}"),
                })?;
            let entry = GradedEntry::new(object, grade);
            if let Some(p) = prev {
                if (entry.grade, std::cmp::Reverse(entry.object))
                    > (p.grade, std::cmp::Reverse(p.object))
                {
                    return Err(StorageError::CorruptBlock {
                        block: i as u64,
                        detail: format!("entry {index} breaks the descending skeleton order"),
                    });
                }
            }
            prev = Some(entry);
            if index == 0 && bits != footer.grade_max_bits[i] {
                return Err(StorageError::FooterCorrupt {
                    detail: format!("data block {i} grade_max fence disagrees with the block"),
                });
            }
            if index == count - 1 && bits != footer.grade_min_bits[i] {
                return Err(StorageError::FooterCorrupt {
                    detail: format!("data block {i} grade_min fence disagrees with the block"),
                });
            }
            if grade == Grade::ONE {
                ones += 1;
            }
            crisp &= grade.is_crisp();
            encode_entry(&mut slot, entry);
            data_digest ^= fnv1a64(&slot);
        }
    }
    if ones != footer.ones {
        return Err(StorageError::FooterCorrupt {
            detail: format!("footer says {} exact matches, data has {ones}", footer.ones),
        });
    }
    if crisp != (footer.flags & FLAG_CRISP != 0) {
        return Err(StorageError::FooterCorrupt {
            detail: "crisp flag disagrees with the data region".to_owned(),
        });
    }

    let mut prev_id: Option<u64> = None;
    let mut table_digest = 0u64;
    let checks = footer.table_checksums.iter().zip(&footer.table_block_lens);
    for (i, (&expected, &len)) in checks.enumerate() {
        buf.clear();
        buf.resize(len as usize, 0);
        file.read_exact_at(&mut buf, pos)?;
        pos += buf.len() as u64;
        let file_block = footer.data_blocks + i as u64;
        if fnv1a64(&buf) != expected {
            return Err(StorageError::ChecksumMismatch { block: file_block });
        }
        let count = (footer.num_entries as usize - i * entries_per_block).min(entries_per_block);
        let pairs = BlockV2::from_start(&buf, count, RegionKind::Table, dict)
            .decode_all(&mut table_restarts)
            .map_err(|detail| StorageError::CorruptBlock {
                block: file_block,
                detail,
            })?;
        for (index, &(object, bits)) in pairs.iter().enumerate() {
            let grade =
                Grade::new(f64::from_bits(bits)).map_err(|e| StorageError::CorruptBlock {
                    block: file_block,
                    detail: format!("entry {index}: {e}"),
                })?;
            if index == 0 && object != footer.table_first_ids[i] {
                return Err(StorageError::FooterCorrupt {
                    detail: format!(
                        "table block {i} starts at object {object}, fence says {}",
                        footer.table_first_ids[i]
                    ),
                });
            }
            // The table encoding already rejects non-increasing deltas, so
            // this only guards the first entry of each block against its
            // predecessor block.
            if let Some(p) = prev_id {
                if object <= p {
                    return Err(StorageError::CorruptBlock {
                        block: file_block,
                        detail: format!("entry {index} breaks the ascending object order"),
                    });
                }
            }
            prev_id = Some(object);
            encode_entry(&mut slot, GradedEntry::new(object, grade));
            table_digest ^= fnv1a64(&slot);
        }
    }
    if data_digest != table_digest {
        return Err(StorageError::RegionMismatch);
    }
    data_restarts.shrink_to_fit();
    table_restarts.shrink_to_fit();
    Ok(VerifiedStats {
        max_object: prev_id.map(ObjectId),
        data_restarts,
        table_restarts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultRule, FaultVfs};
    use crate::writer::SegmentWriter;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("garlic-storage-segment-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_and_open(name: &str, grades: &[Grade], block_size: usize) -> SegmentSource {
        let path = temp_path(name);
        SegmentWriter::with_block_size(block_size)
            .unwrap()
            .write_grades(&path, grades)
            .unwrap();
        SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap()
    }

    #[test]
    fn round_trips_the_sorted_order() {
        let grades = [0.2, 0.9, 0.5, 1.0, 0.5].map(g);
        let seg = write_and_open("sorted.seg", &grades, 48);
        let mem = garlic_core::access::MemorySource::from_grades(&grades);
        assert_eq!(seg.len(), 5);
        for rank in 0..6 {
            assert_eq!(
                seg.sorted_access(rank),
                mem.sorted_access(rank),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn random_access_matches_memory() {
        let grades = [0.2, 0.9, 0.5, 1.0, 0.5].map(g);
        let seg = write_and_open("random.seg", &grades, 48);
        for (i, &grade) in grades.iter().enumerate() {
            assert_eq!(seg.random_access(ObjectId(i as u64)), Some(grade));
        }
        assert_eq!(seg.random_access(ObjectId(99)), None);
    }

    #[test]
    fn sparse_ids_route_through_the_fence_index() {
        let path = temp_path("sparse.seg");
        let pairs: Vec<(ObjectId, Grade)> = (0..40u64)
            .map(|i| (ObjectId(i * 1000 + 7), Grade::clamped(i as f64 / 40.0)))
            .collect();
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_pairs(&path, pairs.clone())
            .unwrap();
        let seg = SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap();
        for &(object, grade) in &pairs {
            assert_eq!(seg.random_access(object), Some(grade));
        }
        // Misses on every side of every fence.
        assert_eq!(seg.random_access(ObjectId(0)), None);
        assert_eq!(seg.random_access(ObjectId(1006)), None);
        assert_eq!(seg.random_access(ObjectId(1008)), None);
        assert_eq!(seg.random_access(ObjectId(u64::MAX)), None);
    }

    #[test]
    fn random_batch_agrees_with_per_object_probes() {
        let path = temp_path("batch.seg");
        let pairs: Vec<(ObjectId, Grade)> = (0..60u64)
            .map(|i| (ObjectId(i * 17 + 3), Grade::clamped((i % 9) as f64 / 8.0)))
            .collect();
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_pairs(&path, pairs)
            .unwrap();
        let seg = SegmentSource::open(&path, Arc::new(BlockCache::new(64))).unwrap();
        // Scattered probes: hits, misses on every side of the fences, a
        // below-first-fence miss, and duplicates — out of id order.
        let probes: Vec<ObjectId> = vec![
            ObjectId(3 + 17 * 40),
            ObjectId(0),
            ObjectId(3),
            ObjectId(4),
            ObjectId(3 + 17 * 59),
            ObjectId(3),
            ObjectId(u64::MAX),
            ObjectId(3 + 17 * 12),
        ];
        let mut batched = Vec::new();
        seg.random_batch(&probes, &mut batched);
        let looped: Vec<Option<Grade>> = probes.iter().map(|&p| seg.random_access(p)).collect();
        assert_eq!(batched, looped);
    }

    #[test]
    fn random_batch_fetches_each_block_once() {
        let cache = Arc::new(BlockCache::new(64));
        let path = temp_path("batch-blocks.seg");
        let grades: Vec<Grade> = (0..90).map(|i| Grade::clamped(i as f64 / 90.0)).collect();
        SegmentWriter::with_block_size(48) // 3 entries per block
            .unwrap()
            .write_grades(&path, &grades)
            .unwrap();
        let seg = SegmentSource::open(&path, Arc::clone(&cache)).unwrap();
        // 30 probes spread over exactly 10 of the 30 table blocks.
        let probes: Vec<ObjectId> = (0..30u64)
            .map(|i| ObjectId((i % 10) * 9 + i / 10))
            .collect();
        let before = cache.stats();
        let mut out = Vec::new();
        seg.random_batch(&probes, &mut out);
        assert!(out.iter().all(Option::is_some));
        let after = cache.stats();
        assert_eq!(
            (after.hits + after.misses) - (before.hits + before.misses),
            10,
            "one cache request per distinct touched block, not per probe"
        );
    }

    #[test]
    fn matching_set_is_the_grade_one_prefix() {
        let seg = write_and_open("matching.seg", &[1.0, 0.0, 1.0, 0.5].map(g), 48);
        assert_eq!(seg.matching_set(), vec![ObjectId(0), ObjectId(2)]);
        assert!(!seg.is_crisp());
        assert_eq!(seg.exact_match_count(), 2);
    }

    #[test]
    fn crisp_segments_report_crisp() {
        let seg = write_and_open("crisp.seg", &[1.0, 0.0, 1.0].map(g), 48);
        assert!(seg.is_crisp());
        assert_eq!(seg.matching_set(), vec![ObjectId(0), ObjectId(2)]);
    }

    #[test]
    fn empty_segment_is_valid_and_empty() {
        let seg = write_and_open("empty.seg", &[], 48);
        assert_eq!(seg.len(), 0);
        assert!(seg.is_empty());
        assert_eq!(seg.sorted_access(0), None);
        assert_eq!(seg.random_access(ObjectId(0)), None);
        assert_eq!(seg.matching_set(), Vec::<ObjectId>::new());
    }

    #[test]
    fn open_leaves_the_cache_cold_then_reads_warm_it() {
        let cache = Arc::new(BlockCache::new(64));
        let path = temp_path("warmth.seg");
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_grades(
                &path,
                &(0..30)
                    .map(|i| Grade::clamped(i as f64 / 30.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let seg = SegmentSource::open(&path, Arc::clone(&cache)).unwrap();
        assert_eq!(
            cache.stats().resident,
            0,
            "verification must not warm the cache"
        );
        let mut out = Vec::new();
        seg.sorted_batch(0, 30, &mut out);
        let after_scan = cache.stats();
        assert_eq!(after_scan.misses as usize, after_scan.resident);
        assert!(after_scan.resident > 0);
        out.clear();
        seg.sorted_batch(0, 30, &mut out);
        assert!(
            cache.stats().hits >= after_scan.resident as u64,
            "second scan hits"
        );
    }

    #[test]
    fn two_segments_share_one_cache_without_collisions() {
        let cache = Arc::new(BlockCache::new(64));
        let a_path = temp_path("share-a.seg");
        let b_path = temp_path("share-b.seg");
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_grades(&a_path, &[g(0.1), g(0.2), g(0.3)])
            .unwrap();
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_grades(&b_path, &[g(0.9), g(0.8), g(0.7)])
            .unwrap();
        let a = SegmentSource::open(&a_path, Arc::clone(&cache)).unwrap();
        let b = SegmentSource::open(&b_path, Arc::clone(&cache)).unwrap();
        assert_eq!(a.sorted_access(0).unwrap().grade, g(0.3));
        assert_eq!(b.sorted_access(0).unwrap().grade, g(0.9));
        assert_eq!(
            a.sorted_access(0).unwrap().grade,
            g(0.3),
            "still a's data after b"
        );
    }

    #[test]
    fn default_writer_produces_v2_and_reader_reports_it() {
        let seg = write_and_open("version.seg", &[0.5, 0.25].map(g), 48);
        assert_eq!(seg.version(), FORMAT_VERSION);
    }

    #[test]
    fn v1_and_v2_segments_serve_bit_identical_entries() {
        let grades: Vec<Grade> = (0..120)
            .map(|i| Grade::clamped((i % 11) as f64 / 10.0))
            .collect();
        let v1_path = temp_path("equiv-v1.seg");
        let v2_path = temp_path("equiv-v2.seg");
        SegmentWriter::with_block_size(48)
            .unwrap()
            .with_version(crate::format::FORMAT_V1)
            .unwrap()
            .write_grades(&v1_path, &grades)
            .unwrap();
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_grades(&v2_path, &grades)
            .unwrap();
        let v1 = SegmentSource::open(&v1_path, Arc::new(BlockCache::new(64))).unwrap();
        let v2 = SegmentSource::open(&v2_path, Arc::new(BlockCache::new(64))).unwrap();
        assert_eq!(v1.version(), crate::format::FORMAT_V1);
        for rank in 0..=grades.len() {
            assert_eq!(
                v1.sorted_access(rank),
                v2.sorted_access(rank),
                "rank {rank}"
            );
        }
        for id in 0..grades.len() as u64 + 2 {
            assert_eq!(
                v1.random_access(ObjectId(id)),
                v2.random_access(ObjectId(id)),
                "object {id}"
            );
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        v1.sorted_batch(7, 100, &mut a);
        v2.sorted_batch(7, 100, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_scan_skips_loading_fenced_out_blocks() {
        // 30 entries, 3 per block: grades descend from 1.0, so a bound of
        // 0.7 fences out every data block past the first ~third.
        let cache = Arc::new(BlockCache::new(64));
        let path = temp_path("fence-skip.seg");
        let grades: Vec<Grade> = (0..30)
            .map(|i| Grade::clamped((30 - i) as f64 / 30.0))
            .collect();
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_grades(&path, &grades)
            .unwrap();
        let seg = SegmentSource::open(&path, Arc::clone(&cache)).unwrap();
        let before = cache.stats();
        let mut bounded = Vec::new();
        let result = seg.sorted_batch_bounded(0, 30, g(0.7), &mut bounded);
        assert!(result.truncated);
        assert_eq!(result.appended, bounded.len());
        let after = cache.stats();
        let touched = (after.hits + after.misses) - (before.hits + before.misses);
        assert!(
            touched < 10,
            "fences must stop the scan before loading all 10 data blocks (touched {touched})"
        );
        // The emitted entries are an exact prefix of the unbounded stream.
        let mut full = Vec::new();
        seg.sorted_batch(0, 30, &mut full);
        assert_eq!(bounded, full[..bounded.len()]);
        // Everything withheld really does grade below the bound.
        assert!(full[bounded.len()..].iter().all(|e| e.grade < g(0.7)));
    }

    #[test]
    fn bounded_scan_without_a_binding_bound_is_the_full_stream() {
        let seg = write_and_open("fence-nobound.seg", &[0.9, 0.8, 0.7, 0.6].map(g), 48);
        let mut bounded = Vec::new();
        let result = seg.sorted_batch_bounded(0, 10, Grade::ZERO, &mut bounded);
        assert_eq!(result.appended, 4);
        assert!(!result.truncated);
        let mut full = Vec::new();
        seg.sorted_batch(0, 10, &mut full);
        assert_eq!(bounded, full);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SegmentSource::open(
            temp_path("does-not-exist.seg"),
            Arc::new(BlockCache::new(4)),
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    /// Writes through the std VFS, then reopens through a [`FaultVfs`] so a
    /// test can inject read faults after the (fault-free) open has verified
    /// the checksums.
    fn open_with_faults(name: &str, grades: &[Grade]) -> (SegmentSource, Arc<FaultVfs>) {
        let path = temp_path(name);
        SegmentWriter::with_block_size(48)
            .unwrap()
            .write_grades(&path, grades)
            .unwrap();
        let fault = Arc::new(FaultVfs::new());
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as Arc<dyn Vfs>;
        let seg = SegmentSource::open_with(&path, Arc::new(BlockCache::new(64)), &vfs).unwrap();
        (seg, fault)
    }

    #[test]
    fn transient_read_faults_are_retried_and_counted() {
        let grades = [0.2, 0.9, 0.5, 1.0, 0.5].map(g);
        let (seg, fault) = open_with_faults("retry.seg", &grades);
        // Fail the next 2 reads, then recover: well inside the 4-attempt
        // retry budget.
        fault.push_rule(FaultRule {
            path_contains: "retry.seg".to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Transient { times: 2 },
        });
        assert!(seg.sorted_access(0).is_some());
        assert_eq!(seg.io_retries(), 2);
        assert_eq!(seg.io_gave_up(), 0);
        assert!(!seg.is_quarantined());
    }

    #[test]
    fn permanent_read_faults_quarantine_the_segment() {
        let grades = [0.2, 0.9, 0.5, 1.0, 0.5].map(g);
        let (mut seg, fault) = open_with_faults("quarantine.seg", &grades);
        seg.set_retry_policy(RetryPolicy {
            attempts: 3,
            base_delay_us: 0,
            max_delay_us: 0,
        });
        fault.push_rule(FaultRule {
            path_contains: "quarantine.seg".to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Permanent,
        });
        let mut out = Vec::new();
        let err = seg.try_sorted_batch(0, 5, &mut out).unwrap_err();
        assert!(err.quarantined, "exhausted retries must quarantine: {err}");
        assert!(out.is_empty(), "out must be unchanged on error");
        assert!(seg.is_quarantined());
        assert_eq!(seg.io_gave_up(), 1);
        assert_eq!(seg.io_retries(), 2, "attempts - 1 retries before giving up");
        // Fail-fast: later reads return the typed quarantine error without
        // touching the disk again.
        let before = fault.injected();
        let err = seg.try_sorted_batch(0, 5, &mut out).unwrap_err();
        assert!(err.quarantined);
        assert_eq!(fault.injected(), before, "quarantined probe hit the disk");
        // The infallible random path still answers misses from the fence
        // index without I/O, and cached state stays coherent.
        assert!(seg.try_matching_set().is_err());
    }

    #[test]
    fn recovered_transient_fault_leaves_identical_answers() {
        let grades = [0.2, 0.9, 0.5, 1.0, 0.5].map(g);
        let (seg, fault) = open_with_faults("identical.seg", &grades);
        fault.push_rule(FaultRule {
            path_contains: "identical.seg".to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Transient { times: 1 },
        });
        let clean = write_and_open("identical-clean.seg", &grades, 48);
        for rank in 0..6 {
            assert_eq!(seg.sorted_access(rank), clean.sorted_access(rank));
        }
        for i in 0..5u64 {
            assert_eq!(
                seg.random_access(ObjectId(i)),
                clean.random_access(ObjectId(i))
            );
        }
    }
}
