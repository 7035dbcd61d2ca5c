//! Reading segments: [`SegmentSource`], a disk-backed [`GradedSource`].
//!
//! `SegmentSource::open` is where durability is enforced: it checks the
//! header names [`FORMAT_VERSION`] (any other version is a typed
//! [`StorageError::UnsupportedVersion`]), parses the footer (see
//! [`crate::format`]), locates every block by the footer's byte lengths,
//! then makes one streaming integrity scan over the whole file verifying
//! every block checksum, every varint frame and grade column, every grade,
//! both sort orders and every fence id, so a corrupted or truncated
//! segment fails with a typed [`StorageError`] *before* it can serve a
//! single wrong entry. The same scan counts the grade-1 entries and learns
//! whether the list is crisp, which the file does not store. After a
//! successful open the source is an ordinary `Send + Sync` graded source:
//! sorted access streams data blocks through the shared [`BlockCache`],
//! and random access routes through the footer's fence index to exactly
//! one table block — bit-identical behaviour to a [`MemorySource`] over the
//! same pairs (the round-trip property suite holds it to that). The match
//! set is `SetAccess`'s one provided body over those sorted reads, so it is
//! the same grade-1 prefix a `MemorySource` returns. Every sorted read
//! decodes the blocks its ranks fall in.
//!
//! ## The random-access path
//!
//! A batch of probes makes one binary search over the footer's fences per
//! probe, which names the one table block that can hold the id (a probe
//! below the first fence is answered `None` there), then groups the probes
//! by block, so each touched block is fetched from the cache once per
//! batch. Within a block a probe finds its entry's *index*, and reads one
//! grade cell (raw bits, or a dictionary index) from the block's grade
//! column:
//!
//! * **Dense blocks.** A block whose ids are `fence..fence + count` stores
//!   no id run ([`crate::format`]), and says so by that alone. The index is
//!   `object − fence`, and no id is decoded; an index past the block's
//!   count (a probe past the block's last id) is `None`. A segment over
//!   `0..N`, and every id-range shard of one, is dense in every block, the
//!   last included, and a dense block keeps no restart points.
//! * **Other blocks** find the index by a walk over the block's id run from
//!   the nearest restart point that stops at the first id not below the
//!   probe: at most [`RESTART_INTERVAL`] id varints.
//!
//! [`MemorySource`]: garlic_core::access::MemorySource
//! [`RESTART_INTERVAL`]: crate::format::RESTART_INTERVAL

use std::cmp::Reverse;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, SetAccess, SourceError};
use garlic_core::{GradedEntry, ObjectId};

use crate::cache::{BlockCache, BlockKey};
use crate::error::StorageError;
use crate::format::{
    checksum, read_u64, Block, Footer, RegionKind, Restart, ENTRY_LEN, FORMAT_VERSION, HEADER_LEN,
    HEADER_MAGIC, TRAILER_LEN, TRAILER_MAGIC,
};
use crate::vfs::{std_vfs, Vfs, VfsRead};

/// Process-wide id well for opened segments, so any number of segments can
/// share one [`BlockCache`] without key collisions.
static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(0);

/// Attempts per block read, the first included, before the source gives up
/// and quarantines itself.
const READ_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in microseconds; it doubles per retry.
const RETRY_BASE_DELAY_US: u64 = 100;
/// Backoff ceiling, in microseconds.
const RETRY_MAX_DELAY_US: u64 = 5_000;

/// An immutable on-disk graded list, verified at open, read through a
/// shared block cache.
///
/// # Runtime failures
///
/// `open` verifies the entire file, so a file that is left alone never
/// fails afterwards. If the *medium* fails later (dying disk, segment
/// deleted or rewritten underneath the source), the `try_*` reads this
/// source implements retry a failing block load up to four times, with
/// exponential backoff (100 µs doubling, capped at 5 ms) plus a
/// deterministic jitter of up to half the delay, so retrying readers of
/// one struggling disk do not stampede in lockstep. Once the attempts are
/// spent the source is **quarantined**: the failure surfaces as a typed
/// [`SourceError`] with `quarantined` set and every later read fails fast
/// with [`StorageError::Quarantined`]. Only the trait's provided
/// *infallible* adaptors panic on such a failure, and nothing in the query
/// execution or write path uses them against disk-backed sources.
pub struct SegmentSource {
    file: Box<dyn VfsRead>,
    path: PathBuf,
    cache: Arc<BlockCache>,
    segment_id: u64,
    /// Transiently failed block reads that a retry then served.
    io_retries: AtomicU64,
    /// Block reads that exhausted the whole retry budget.
    io_gave_up: AtomicU64,
    /// Set once a block read exhausts its retry budget; every later read
    /// fails fast with [`StorageError::Quarantined`].
    poisoned: AtomicBool,
    /// xorshift state feeding the backoff jitter.
    jitter: AtomicU64,
    footer: Footer,
    /// Where every file-wide block lives, data region first then table
    /// region.
    locs: Vec<Loc>,
    /// The restart points of every block, in file order (each block's run
    /// starts at its `Loc::restarts`): the decoder state in front of
    /// every [`RESTART_INTERVAL`]-th entry, noted down by the open-time
    /// scan, so a read resumes next to its first entry instead of at the
    /// block's start (in a table block, next to its id in the id run). A
    /// dense table block, which a probe addresses by its distance from the
    /// fence, keeps none.
    ///
    /// [`RESTART_INTERVAL`]: crate::format::RESTART_INTERVAL
    restarts: Vec<Restart>,
    entries_per_block: usize,
    max_object: Option<ObjectId>,
    /// Grade-1 entries, counted by the open-time scan.
    ones: u64,
    /// Whether every grade is 0 or 1, learned by the open-time scan.
    crisp: bool,
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
        #[allow(clippy::expect_used, reason = "a 4-byte range of the header")]
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4-byte field"));
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
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
        let footer = Footer::parse(&footer_bytes)?;
        // Block offsets are prefix sums of the footer's (already
        // sanity-bounded) byte lengths, and the regions must end exactly
        // where the footer starts. The geometry is untrusted until it
        // survives this: overflow in a forged footer is an error, not a
        // wrap or a panic.
        let mut locs = Vec::with_capacity(2 * footer.blocks());
        let mut offset = HEADER_LEN;
        for &len in footer
            .data_block_lens
            .iter()
            .chain(&footer.table_block_lens)
        {
            locs.push(Loc {
                offset,
                len: len as u32,
                restarts: 0,
            });
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
        let scan = verify_blocks(file.as_ref(), &footer, &mut locs)?;

        let segment_id = NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed);
        Ok(SegmentSource {
            file,
            path,
            cache,
            segment_id,
            io_retries: AtomicU64::new(0),
            io_gave_up: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            jitter: AtomicU64::new(segment_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            entries_per_block: footer.block_size / ENTRY_LEN,
            footer,
            locs,
            restarts: scan.restarts,
            max_object: scan.max_object,
            ones: scan.ones,
            crisp: scan.crisp,
        })
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

    /// The file this source reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether every grade is exactly 0 or 1 (learned by the open-time
    /// scan, which reads every grade) — the segment then supports set
    /// access.
    pub fn is_crisp(&self) -> bool {
        self.crisp
    }

    /// Number of grade-1 entries — the exact-match count, counted by the
    /// open-time scan: free selectivity information for the planner.
    pub fn exact_match_count(&self) -> u64 {
        self.ones
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
        self.footer.blocks() as u64
    }

    /// The cache this source reads through.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Bytes of memory the restart index holds: one [`Restart`] per
    /// [`RESTART_INTERVAL`] entries of each data block and of each table
    /// block that is not dense (none for the table region of a segment
    /// over `0..N`).
    ///
    /// [`RESTART_INTERVAL`]: crate::format::RESTART_INTERVAL
    pub fn restart_index_bytes(&self) -> usize {
        self.restarts.capacity() * std::mem::size_of::<Restart>()
    }

    /// This source's process-unique cache namespace: the `segment` half of
    /// every cache key (`BlockKey`) it inserts. Pass it to
    /// [`BlockCache::retire`](crate::BlockCache::retire) once the segment
    /// is replaced (compaction does) so its dead blocks stop occupying
    /// residency.
    pub fn segment_id(&self) -> u64 {
        self.segment_id
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

    fn fetch(&self, file_block: u64, expected: u64) -> Result<Arc<[u8]>, StorageError> {
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
            let Loc { offset, len, .. } = self.locs[file_block as usize];
            // Retry inside the single-flight closure so concurrent readers
            // of the same block share one retry budget, and a block that
            // eventually loads is billed as one miss.
            let mut attempt = 0u32;
            loop {
                attempt += 1;
                let mut buf = vec![0u8; len as usize];
                let outcome = self
                    .file
                    .read_exact_at(&mut buf, offset)
                    .map_err(StorageError::Io)
                    .and_then(|()| {
                        if checksum(&buf) != expected {
                            Err(StorageError::ChecksumMismatch { block: file_block })
                        } else {
                            Ok(())
                        }
                    });
                match outcome {
                    Ok(()) => {
                        return Ok(Arc::from(buf.into_boxed_slice()));
                    }
                    Err(_) if attempt < READ_ATTEMPTS => {
                        // Transient-looking failure (I/O error or a read
                        // that raced a torn write): back off and retry.
                        self.io_retries.fetch_add(1, Ordering::Relaxed);
                        let base = (RETRY_BASE_DELAY_US << (attempt - 1)).min(RETRY_MAX_DELAY_US);
                        let jitter = self.next_jitter() % (base / 2 + 1);
                        std::thread::sleep(std::time::Duration::from_micros(base + jitter));
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
            self.blocks_per_region() + index,
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

    /// Block `index` of a region as the decoder takes it: its bytes, its
    /// entry count, and its run of the restart points.
    fn block<'a>(&'a self, kind: RegionKind, bytes: &'a [u8], index: u64) -> Block<'a> {
        let file_block = match kind {
            RegionKind::Data => index,
            RegionKind::Table => self.blocks_per_region() + index,
        } as usize;
        let start = self.locs[file_block].restarts;
        let end = self
            .locs
            .get(file_block + 1)
            .map_or(self.restarts.len(), |next| next.restarts);
        Block {
            restarts: self.restarts.get(start..end).unwrap_or_default(),
            ..self.footer.block(kind, index as usize, bytes)
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
            let bytes = self.try_table_block(block_index)?;
            let block = self.block(RegionKind::Table, &bytes, block_index);
            while index < probes.len() && probes[index].0 == block_index {
                let position = probes[index].1 as usize;
                // A decode failure (a block mutated after open) is a typed
                // error, not a panic.
                out[base + position] = block.lookup(objects[position].0).map_err(|detail| {
                    StorageError::CorruptBlock {
                        block: self.blocks_per_region() + block_index,
                        detail,
                    }
                })?;
                index += 1;
            }
        }
        Ok(())
    }

    /// The one sorted scan, behind [`GradedSource::try_sorted_batch`] and
    /// compaction's read of the base: appends ranks `start..start + count`
    /// (clipped to the segment) to `out`, decoding each touched data block
    /// once, and returns how many it appended. On error `out` may hold a
    /// partial append — the caller truncates.
    pub(crate) fn sorted_scan(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, StorageError> {
        let n = self.footer.num_entries as usize;
        let start = start.min(n);
        let end = start.saturating_add(count).min(n);
        out.reserve(end - start);
        let mut rank = start;
        while rank < end {
            let block_index = (rank / self.entries_per_block) as u64;
            let bytes = self.try_data_block(block_index)?;
            let in_block = rank % self.entries_per_block;
            let take = (end - rank).min(self.entries_per_block - in_block);
            self.block(RegionKind::Data, &bytes, block_index)
                .decode_range(in_block, in_block + take, out)
                .map_err(|detail| StorageError::CorruptBlock {
                    block: block_index,
                    detail,
                })?;
            rank += take;
        }
        Ok(end - start)
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
        let base = out.len();
        self.sorted_scan(start, count, out).map_err(|e| {
            out.truncate(base);
            self.source_error(e)
        })
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
}

impl SetAccess for SegmentSource {}

impl std::fmt::Debug for SegmentSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentSource")
            .field("path", &self.path)
            .field("entries", &self.footer.num_entries)
            .field("block_size", &self.footer.block_size)
            .field("blocks_per_region", &self.blocks_per_region())
            .field("crisp", &self.is_crisp())
            .finish()
    }
}

/// Where one block lives: its absolute file offset and stored byte length
/// (prefix sums of the footer's per-block lengths), and where its run of
/// restart points starts in [`SegmentSource`]'s restart index — the run
/// ends where the next block's starts.
#[derive(Debug, Clone, Copy)]
struct Loc {
    offset: u64,
    len: u32,
    restarts: usize,
}

/// What the integrity scan learned beyond "the file is sound".
struct Verified {
    /// The largest object id graded, `None` for an empty segment.
    max_object: Option<ObjectId>,
    /// The restart points of every block, in file order.
    restarts: Vec<Restart>,
    /// Grade-1 entries.
    ones: u64,
    /// Whether every grade is 0 or 1.
    crisp: bool,
}

/// The open-time integrity scan: one sequential pass over both regions
/// that reads every block once, checks its checksum and decodes it (with
/// every framing check) from its start into one buffer reused across
/// blocks, because this runs at every open. It notes down the restart
/// points later reads resume from, and where each block's run of them
/// starts in its `locs` entry; a dense table block keeps none. Each rule
/// is applied once:
///
/// * every grade lies in `[0, 1]`;
/// * the data region follows the descending skeleton order, ties
///   included;
/// * the table region ascends by object id and starts each block at the
///   footer's fence id (a dense block's ids are its fence onwards, so a
///   forged fence surfaces in the order checks or the digest);
/// * an order-independent digest (an XOR of [`checksum`]s, in memory only)
///   of each entry's canonical 16-byte slot is equal over the two regions,
///   so they hold the *same* entries and sorted access and random access
///   can never disagree on a file that passed.
///
/// Along the way it counts the data region's grade-1 entries and whether
/// every grade is crisp, which the footer does not store.
fn verify_blocks(
    file: &dyn VfsRead,
    footer: &Footer,
    locs: &mut [Loc],
) -> Result<Verified, StorageError> {
    let mut buf = Vec::new();
    let mut scratch = Vec::new();
    let mut restarts = Vec::new();
    let mut digests = [0u64; 2];
    let mut prev: Option<GradedEntry> = None;
    let mut prev_id: Option<u64> = None;
    let (mut ones, mut crisp) = (0u64, true);
    for kind in [RegionKind::Data, RegionKind::Table] {
        let (first_block, checksums) = match kind {
            RegionKind::Data => (0, &footer.data_checksums),
            RegionKind::Table => (footer.blocks() as u64, &footer.table_checksums),
        };
        for (i, &expected) in checksums.iter().enumerate() {
            let block = first_block + i as u64;
            let loc = &mut locs[block as usize];
            buf.resize(loc.len as usize, 0);
            file.read_exact_at(&mut buf, loc.offset)?;
            if checksum(&buf) != expected {
                return Err(StorageError::ChecksumMismatch { block });
            }
            let corrupt = |detail| StorageError::CorruptBlock { block, detail };
            loc.restarts = restarts.len();
            let slots = footer
                .block(kind, i, &buf)
                .decode_all(&mut restarts, &mut scratch)
                .map_err(corrupt)?;
            for (index, slot) in slots.iter().enumerate() {
                let (object, bits) = (read_u64(slot, 0), read_u64(slot, 8));
                let grade = Grade::new(f64::from_bits(bits))
                    .map_err(|e| corrupt(format!("entry {index}: {e}")))?;
                match kind {
                    RegionKind::Data => {
                        let entry = GradedEntry::new(object, grade);
                        if prev.is_some_and(|p| {
                            (grade, Reverse(entry.object)) > (p.grade, Reverse(p.object))
                        }) {
                            return Err(corrupt(format!(
                                "entry {index} breaks the descending skeleton order"
                            )));
                        }
                        prev = Some(entry);
                        ones += u64::from(grade == Grade::ONE);
                        crisp &= grade.is_crisp();
                    }
                    RegionKind::Table => {
                        let fence = footer.table_first_ids[i];
                        if index == 0 && object != fence {
                            return Err(StorageError::FooterCorrupt {
                                detail: format!(
                                    "table block {i} starts at object {object}, fence says {fence}"
                                ),
                            });
                        }
                        if prev_id.is_some_and(|p| object <= p) {
                            return Err(corrupt(format!(
                                "entry {index} breaks the ascending object order"
                            )));
                        }
                        prev_id = Some(object);
                    }
                }
                digests[kind as usize] ^= checksum(slot);
            }
        }
    }
    // XOR of per-entry hashes is order-independent, so equal digests ⇔ (up
    // to hash collisions) equal entry sets.
    if digests[0] != digests[1] {
        return Err(StorageError::RegionMismatch);
    }
    restarts.shrink_to_fit();
    Ok(Verified {
        max_object: prev_id.map(ObjectId),
        restarts,
        ones,
        crisp,
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
        // Seven ones at 3 entries a block: the prefix crosses two data-block
        // boundaries and ends inside the third block.
        let grades = [1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 1.0, 0.5, 1.0, 1.0].map(g);
        let seg = write_and_open("matching-blocks.seg", &grades, 48);
        let ones: Vec<ObjectId> = (0..grades.len() as u64)
            .filter(|&i| grades[i as usize] == Grade::ONE)
            .map(ObjectId)
            .collect();
        assert_eq!(ones.len(), 7);
        assert_eq!(seg.matching_set(), ones);
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

    /// The default writer writes the one version the reader opens.
    #[test]
    fn default_writer_writes_the_version_the_reader_opens() {
        write_and_open("version.seg", &[0.5, 0.25].map(g), 48);
        let bytes = std::fs::read(temp_path("version.seg")).unwrap();
        assert_eq!(bytes[4..8], FORMAT_VERSION.to_le_bytes());
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
        let (seg, fault) = open_with_faults("quarantine.seg", &grades);
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
        assert_eq!(
            seg.io_retries(),
            u64::from(READ_ATTEMPTS - 1),
            "attempts - 1 retries before giving up"
        );
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
