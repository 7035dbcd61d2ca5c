//! The on-disk segment format (versions 1 and 2).
//!
//! A segment is one immutable graded list — the durable answer to one
//! atomic query — laid out for the two access kinds of the paper's
//! Section 4 interface:
//!
//! ```text
//! ┌────────────────────┐
//! │ header (8 B)       │  magic "GSEG" + format version
//! ├────────────────────┤
//! │ data block 0       │  entries in descending-grade order (ties by
//! │ data block 1       │  ascending object id — the fixed skeleton), i.e.
//! │ ...                │  exactly the sorted-access stream
//! ├────────────────────┤
//! │ table block 0      │  the same entries sorted by ascending object id
//! │ ...                │  — the random-access ("object → grade") table
//! ├────────────────────┤
//! │ footer             │  geometry, flags, per-block checksums, the first
//! │                    │  object id of every table block, own checksum
//! ├────────────────────┤
//! │ trailer (24 B)     │  footer offset + length + magic "GSEGEND1"
//! └────────────────────┘
//! ```
//!
//! In **version 1** every block is exactly `block_size` bytes
//! (zero-padded), holding `block_size / 16` entries of 16 bytes each:
//! object id (`u64` LE) followed by grade (`f64` LE bit pattern).
//!
//! **Version 2** keeps the same logical geometry — a block still holds
//! `block_size / 16` entries, so ranks, fences, and cache keys mean the
//! same thing in both versions — but each block is stored *compressed*
//! as a back-to-back variable-length byte run, with per-block byte
//! lengths recorded in the footer:
//!
//! * entries are interleaved `[id][grade]` varint streams. The first id
//!   of a block is a plain LEB128 varint; later ids are encoded as the
//!   delta from the previous id (zigzag-varint with wrapping arithmetic
//!   in data blocks where ids arrive in skeleton order, plain varint of
//!   the strictly-positive delta in the ascending table blocks);
//! * grades use one of two segment-wide modes. When the list has at
//!   most [`GRADE_DICT_MAX`] distinct grade bit patterns the footer
//!   carries a sorted dictionary of raw `f64` bit patterns and each
//!   entry stores a varint dictionary index — the exact bit pattern
//!   round-trips by construction, so quantized corpora pay one or two
//!   bytes per grade with zero loss. Otherwise
//!   ([`FLAG_GRADE_DICT`] clear) the first grade of a block is stored
//!   as raw bits and later grades as bit-pattern deltas (plain varint
//!   of the non-negative decrease in data blocks, zigzag in table
//!   blocks) — also bit-exact, because the IEEE-754 bit patterns of the
//!   non-negative grades order exactly like their values;
//! * the footer grows per-data-block `grade_max`/`grade_min` fences so
//!   a reader holding a stop-threshold can prove a block (and every
//!   block after it) cannot contribute *before loading it*, plus the
//!   per-block encoded byte lengths that locate each block in the file.
//!
//! Both versions checksum every block (FNV-1a 64) in a self-checksummed
//! footer found via the trailer, and both get the same full open-time
//! verification; a decoder never trusts a varint stream past the bytes
//! its checksum covered.
//!
//! A v2 block is a delta chain, so reading entry `i` means decoding the
//! `i` entries in front of it. The reader shortens that walk with
//! **restart points** ([`Restart`]): the decoder's state — byte offset,
//! previous object id, previous grade bits — in front of every
//! [`RESTART_INTERVAL`]-th entry, noted down while `open` decodes each
//! block to verify it. They live in memory only; the file holds none and
//! its bytes are the same with or without them. [`BlockV2`] is the one
//! decoder: it resumes from a restart (or from a block's start, which is
//! the zero state) and applies every framing check wherever it starts.

use garlic_agg::Grade;
use garlic_core::GradedEntry;

use crate::error::StorageError;

/// Magic bytes opening every segment file.
pub const HEADER_MAGIC: [u8; 4] = *b"GSEG";
/// Magic bytes closing every segment file.
pub const TRAILER_MAGIC: [u8; 8] = *b"GSEGEND1";
/// The current format version — what [`crate::SegmentWriter`] produces by
/// default. This build reads versions [`FORMAT_V1`]..=[`FORMAT_VERSION`].
pub const FORMAT_VERSION: u32 = 2;
/// The original fixed-slot format, still fully readable (and writable via
/// [`crate::SegmentWriter::with_version`] for compatibility testing).
pub const FORMAT_V1: u32 = 1;
/// Bytes of one encoded entry: object id (u64) + grade bits (f64).
pub const ENTRY_LEN: usize = 16;
/// Header length: magic + version.
pub const HEADER_LEN: u64 = 8;
/// Trailer length: footer offset + footer length + magic.
pub const TRAILER_LEN: u64 = 24;
/// Default block size — one classic filesystem page.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;
/// Largest accepted block size (16 MiB). An upper bound keeps a forged
/// footer from driving multi-gigabyte buffer allocations before its
/// blocks can be verified.
pub const MAX_BLOCK_SIZE: usize = 1 << 24;

/// Footer flag bit: every grade in the segment is exactly 0 or 1, so the
/// list is crisp and eligible for set access / the filtered strategy.
pub const FLAG_CRISP: u64 = 1;

/// FNV-1a 64-bit — the format's checksum. Not cryptographic; it guards
/// against torn writes, bit rot, and truncation, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one entry into a 16-byte slot.
pub fn encode_entry(slot: &mut [u8], entry: GradedEntry) {
    slot[..8].copy_from_slice(&entry.object.0.to_le_bytes());
    slot[8..ENTRY_LEN].copy_from_slice(&entry.grade.value().to_bits().to_le_bytes());
}

/// Decodes the raw `(object id, grade bits)` of the 16-byte slot at
/// `index` within a block. Grade validity is the caller's concern (it is
/// checked once, at open time).
pub fn decode_raw(block: &[u8], index: usize) -> (u64, f64) {
    let off = index * ENTRY_LEN;
    let object = u64::from_le_bytes(block[off..off + 8].try_into().expect("8-byte slot"));
    let bits = u64::from_le_bytes(
        block[off + 8..off + ENTRY_LEN]
            .try_into()
            .expect("8-byte slot"),
    );
    (object, f64::from_bits(bits))
}

/// Decodes the entries in slots `[from, to)` of an open-time-verified v1
/// block, appending to `out` — the hot path of sequential streaming.
/// `chunks_exact` hands the compiler fixed 16-byte windows, so the loop
/// compiles without per-entry bounds checks — and without a per-entry
/// panic edge: grade validity needs no re-check here, because every block
/// reaching this function came through a checksum-verified load of bytes
/// the open-time scan already validated grade by grade (a post-open
/// mutation fails the load's checksum and panics there, per the same
/// torn-write/bit-rot — not adversary — trust model as the checksums
/// themselves). [`Grade::clamped`] still upholds the `[0, 1]` type
/// invariant unconditionally, so every read path behaves identically on
/// any block a verified load can produce.
pub fn decode_entries(block: &[u8], from: usize, to: usize, out: &mut Vec<GradedEntry>) {
    let payload = &block[from * ENTRY_LEN..to * ENTRY_LEN];
    out.reserve(to - from);
    out.extend(payload.chunks_exact(ENTRY_LEN).map(|chunk| {
        let object = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte slot"));
        let bits = u64::from_le_bytes(chunk[8..ENTRY_LEN].try_into().expect("8-byte slot"));
        GradedEntry::new(object, Grade::clamped(f64::from_bits(bits)))
    }));
}

/// Reads a little-endian `u64` at `off`.
pub fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte field"))
}

/// The parsed footer: everything needed to address and verify the blocks.
#[derive(Debug, Clone)]
pub struct Footer {
    /// Flag bits ([`FLAG_CRISP`], ...).
    pub flags: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Number of graded entries.
    pub num_entries: u64,
    /// Number of entries with grade exactly 1 (the crisp match count).
    pub ones: u64,
    /// Number of data (sorted-order) blocks.
    pub data_blocks: u64,
    /// Number of table (object-order) blocks.
    pub table_blocks: u64,
    /// FNV-1a checksum of every data block, in order.
    pub data_checksums: Vec<u64>,
    /// FNV-1a checksum of every table block, in order.
    pub table_checksums: Vec<u64>,
    /// The first object id stored in each table block — the in-memory
    /// fence index that routes a random access to a single block.
    pub table_first_ids: Vec<u64>,
}

impl Footer {
    /// Fixed-length prefix of the footer (all scalar fields).
    const SCALARS: usize = 6 * 8;

    /// Serialized length in bytes (including the trailing self-checksum).
    pub fn encoded_len(&self) -> u64 {
        (Self::SCALARS
            + 8 * (self.data_checksums.len()
                + self.table_checksums.len()
                + self.table_first_ids.len())
            + 8) as u64
    }

    /// Serializes the footer, appending its own FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        for v in [
            self.flags,
            self.block_size as u64,
            self.num_entries,
            self.ones,
            self.data_blocks,
            self.table_blocks,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for list in [
            &self.data_checksums,
            &self.table_checksums,
            &self.table_first_ids,
        ] {
            for v in list {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and verifies a serialized footer.
    pub fn parse(bytes: &[u8]) -> Result<Footer, StorageError> {
        if bytes.len() < Self::SCALARS + 8 {
            return Err(StorageError::FooterCorrupt {
                detail: format!("footer too short ({} bytes)", bytes.len()),
            });
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = read_u64(tail, 0);
        if fnv1a64(body) != stored {
            return Err(StorageError::FooterCorrupt {
                detail: "footer checksum mismatch".to_owned(),
            });
        }
        let flags = read_u64(body, 0);
        let block_size = read_u64(body, 8);
        let num_entries = read_u64(body, 16);
        let ones = read_u64(body, 24);
        let data_blocks = read_u64(body, 32);
        let table_blocks = read_u64(body, 40);
        if block_size == 0
            || block_size > MAX_BLOCK_SIZE as u64
            || !block_size.is_multiple_of(ENTRY_LEN as u64)
        {
            return Err(StorageError::FooterCorrupt {
                detail: format!("invalid block size {block_size}"),
            });
        }
        let lists = data_blocks
            .checked_add(table_blocks)
            .and_then(|v| v.checked_add(table_blocks))
            .and_then(|v| v.checked_mul(8))
            .and_then(|v| v.checked_add(Self::SCALARS as u64))
            .ok_or_else(|| StorageError::FooterCorrupt {
                detail: "block counts overflow".to_owned(),
            })?;
        if body.len() as u64 != lists {
            return Err(StorageError::FooterCorrupt {
                detail: format!(
                    "footer length {} disagrees with block counts {data_blocks}+{table_blocks}",
                    bytes.len()
                ),
            });
        }
        let entries_per_block = block_size / ENTRY_LEN as u64;
        let expected_blocks = num_entries.div_ceil(entries_per_block);
        if data_blocks != expected_blocks || table_blocks != expected_blocks {
            return Err(StorageError::FooterCorrupt {
                detail: format!(
                    "{num_entries} entries at {entries_per_block}/block need {expected_blocks} \
                     blocks per region, footer says {data_blocks}/{table_blocks}"
                ),
            });
        }
        let mut off = Self::SCALARS;
        let mut take = |count: u64| {
            let mut out = Vec::with_capacity(count as usize);
            for _ in 0..count {
                out.push(read_u64(body, off));
                off += 8;
            }
            out
        };
        let data_checksums = take(data_blocks);
        let table_checksums = take(table_blocks);
        let table_first_ids = take(table_blocks);
        if !table_first_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(StorageError::FooterCorrupt {
                detail: "table fence ids not strictly ascending".to_owned(),
            });
        }
        Ok(Footer {
            flags,
            block_size: block_size as usize,
            num_entries,
            ones,
            data_blocks,
            table_blocks,
            data_checksums,
            table_checksums,
            table_first_ids,
        })
    }
}

/// Validates a requested writer/reader block size.
pub fn check_block_size(block_size: usize) -> Result<(), StorageError> {
    if block_size == 0 || block_size > MAX_BLOCK_SIZE || !block_size.is_multiple_of(ENTRY_LEN) {
        return Err(StorageError::InvalidBlockSize {
            requested: block_size,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Version 2: varint codecs, compressed blocks, fenced footer.
// ---------------------------------------------------------------------------

/// Footer flag bit (v2): grades are stored as indices into the footer's
/// grade dictionary rather than as per-block bit-pattern deltas.
pub const FLAG_GRADE_DICT: u64 = 2;
/// Most distinct grade bit patterns the dictionary mode accepts. Past
/// this the writer falls back to bit-pattern delta encoding (still
/// exact), keeping the footer small and the index varints short.
pub const GRADE_DICT_MAX: usize = 4096;
/// Longest legal LEB128 encoding of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `v` as a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint at `*off`, advancing it. Returns `None` when
/// the buffer ends mid-varint or the encoding overflows 64 bits — the
/// typed-corruption path for a forged or truncated v2 block.
pub fn read_varint(bytes: &[u8], off: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    for i in 0..MAX_VARINT_LEN {
        let &b = bytes.get(*off + i)?;
        let payload = u64::from(b & 0x7f);
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            return None; // 10th byte may only carry the top bit of a u64.
        }
        value |= payload << (7 * i);
        if b & 0x80 == 0 {
            *off += i + 1;
            return Some(value);
        }
    }
    None
}

/// [`read_varint`] specialised for the decode hot loop: when at least 8
/// bytes remain, one aligned-load word covers every varint of up to 4
/// bytes (28 payload bits — all id deltas and dictionary indices a
/// block-sized run produces) without per-byte bounds checks. Longer
/// varints and buffer tails fall back to the byte-at-a-time reader, so
/// the accepted encodings are exactly [`read_varint`]'s.
#[inline(always)]
fn read_varint_hot(bytes: &[u8], off: &mut usize) -> Option<u64> {
    if let Some(run) = bytes.get(*off..*off + 8) {
        let word = u64::from_le_bytes(run.try_into().expect("8-byte run"));
        let mut value = word & 0x7f;
        if word & 0x80 == 0 {
            *off += 1;
            return Some(value);
        }
        value |= (word >> 8 & 0x7f) << 7;
        if word & 0x8000 == 0 {
            *off += 2;
            return Some(value);
        }
        value |= (word >> 16 & 0x7f) << 14;
        if word & 0x80_0000 == 0 {
            *off += 3;
            return Some(value);
        }
        value |= (word >> 24 & 0x7f) << 21;
        if word & 0x8000_0000 == 0 {
            *off += 4;
            return Some(value);
        }
    }
    read_varint(bytes, off)
}

/// Zigzag-maps a signed delta onto a small unsigned varint.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Which region a v2 block belongs to — the two regions delta-encode
/// differently because their sort orders differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Descending-grade skeleton order: ids are arbitrary (zigzag
    /// deltas), grades non-increasing (plain varint of the decrease).
    Data,
    /// Ascending-object order: ids strictly increase (plain varint of
    /// the positive delta), grades are arbitrary (zigzag bit deltas).
    Table,
}

/// Encodes one v2 block. `dict` is the sorted grade dictionary when the
/// segment uses dictionary mode ([`FLAG_GRADE_DICT`]); entries' grade
/// bits must then all be present in it.
pub fn encode_block_v2(entries: &[GradedEntry], kind: RegionKind, dict: Option<&[u64]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 4);
    let mut prev_id: u64 = 0;
    let mut prev_bits: u64 = 0;
    for (i, entry) in entries.iter().enumerate() {
        let id = entry.object.0;
        let bits = entry.grade.value().to_bits();
        if i == 0 {
            write_varint(&mut out, id);
        } else {
            match kind {
                RegionKind::Data => write_varint(&mut out, zigzag(id.wrapping_sub(prev_id) as i64)),
                RegionKind::Table => write_varint(&mut out, id - prev_id),
            }
        }
        match dict {
            Some(dict) => {
                let index = dict.binary_search(&bits).expect("grade bits in dictionary");
                write_varint(&mut out, index as u64);
            }
            None if i == 0 => out.extend_from_slice(&bits.to_le_bytes()),
            None => match kind {
                RegionKind::Data => write_varint(&mut out, prev_bits - bits),
                RegionKind::Table => write_varint(&mut out, zigzag(bits as i64 - prev_bits as i64)),
            },
        }
        prev_id = id;
        prev_bits = bits;
    }
    out
}

/// Entries between two restart points of a v2 block. A constant, not an
/// option: it trades index memory (one [`Restart`] per interval, about
/// 1.5 B per entry over both regions) against the longest walk a probe or
/// a one-entry read can make, and no caller in the repository wants a
/// different trade.
pub const RESTART_INTERVAL: usize = 32;

/// The v2 decoder's state in front of one entry: where its bytes start
/// and what the previous entry decoded to, which is all a delta chain
/// needs to resume. The default value is the state at a block's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Restart {
    /// Object id of the previous entry.
    pub prev_id: u64,
    /// Grade bits of the previous entry.
    pub prev_bits: u64,
    /// Byte offset of the entry within the block.
    pub offset: u32,
}

#[cold]
fn fault(index: usize, what: &str) -> String {
    format!("entry {index}: {what}")
}

/// A checksum-verified v2 block together with what decoding it needs.
/// Every read of a v2 block — the full decode `open` verifies with, a
/// sorted range, a table probe — is one resumable walk (the private `run`):
/// start state in, entries out.
#[derive(Debug, Clone, Copy)]
pub struct BlockV2<'a> {
    /// The block's encoded bytes.
    pub bytes: &'a [u8],
    /// Number of entries the block holds.
    pub count: usize,
    /// Which region's encoding the bytes use.
    pub kind: RegionKind,
    /// The sorted grade dictionary in dictionary mode
    /// ([`FLAG_GRADE_DICT`]), else `None`.
    pub dict: Option<&'a [u64]>,
    /// The block's restart points: element `r` stands in front of entry
    /// `(r + 1) * RESTART_INTERVAL`. Empty means "decode from the start",
    /// which is always correct and is what `open` does.
    pub restarts: &'a [Restart],
}

impl<'a> BlockV2<'a> {
    /// The block with no restart points, so every read decodes from its
    /// start — what `open` verifies with, before any restart exists.
    pub fn from_start(
        bytes: &'a [u8],
        count: usize,
        kind: RegionKind,
        dict: Option<&'a [u64]>,
    ) -> Self {
        BlockV2 {
            bytes,
            count,
            kind,
            dict,
            restarts: &[],
        }
    }

    /// Walks the entries from `first` on, whose decoder state is `state`,
    /// handing each `(index, object id, grade bits, end offset)` to
    /// `visit`; `visit` returns `false` to stop early. Verifies the
    /// framing as it goes: mid-varint truncation, zero or overflowing
    /// table id deltas, grade delta underflow, out-of-range dictionary
    /// indices, and — when the walk reaches the block's end — trailing
    /// bytes all return a detail string for
    /// [`StorageError::CorruptBlock`].
    #[inline(always)]
    fn run(
        &self,
        first: usize,
        state: Restart,
        visit: impl FnMut(usize, u64, u64, usize) -> bool,
    ) -> Result<(), String> {
        // One instantiation per (region, grade mode) pair, so the encoding
        // dispatch is resolved outside the per-entry loop.
        match (self.kind, self.dict) {
            (RegionKind::Data, Some(d)) => self.run_as::<true, true>(d, first, state, visit),
            (RegionKind::Data, None) => self.run_as::<true, false>(&[], first, state, visit),
            (RegionKind::Table, Some(d)) => self.run_as::<false, true>(d, first, state, visit),
            (RegionKind::Table, None) => self.run_as::<false, false>(&[], first, state, visit),
        }
    }

    #[inline(always)]
    fn run_as<const DATA: bool, const DICT: bool>(
        &self,
        dict: &[u64],
        first: usize,
        state: Restart,
        mut visit: impl FnMut(usize, u64, u64, usize) -> bool,
    ) -> Result<(), String> {
        let bytes = self.bytes;
        let mut off = state.offset as usize;
        let mut prev_id = state.prev_id;
        let mut prev_bits = state.prev_bits;
        for i in first..self.count {
            let raw_id =
                read_varint_hot(bytes, &mut off).ok_or_else(|| fault(i, "id varint truncated"))?;
            let id = if i == 0 {
                raw_id
            } else if DATA {
                prev_id.wrapping_add(unzigzag(raw_id) as u64)
            } else {
                if raw_id == 0 {
                    return Err(fault(i, "zero table id delta"));
                }
                prev_id
                    .checked_add(raw_id)
                    .ok_or_else(|| fault(i, "table id delta overflows"))?
            };
            let bits = if DICT {
                let index = read_varint_hot(bytes, &mut off)
                    .ok_or_else(|| fault(i, "grade index truncated"))?;
                *dict
                    .get(index as usize)
                    .ok_or_else(|| fault(i, &format!("grade index {index} out of dictionary")))?
            } else if i == 0 {
                let slot = bytes
                    .get(off..off + 8)
                    .ok_or_else(|| fault(i, "first grade truncated"))?;
                off += 8;
                u64::from_le_bytes(slot.try_into().expect("8-byte slot"))
            } else {
                let delta = read_varint_hot(bytes, &mut off)
                    .ok_or_else(|| fault(i, "grade delta truncated"))?;
                if DATA {
                    prev_bits
                        .checked_sub(delta)
                        .ok_or_else(|| fault(i, "grade delta underflows"))?
                } else {
                    prev_bits.wrapping_add(unzigzag(delta) as u64)
                }
            };
            prev_id = id;
            prev_bits = bits;
            if !visit(i, id, bits, off) {
                return Ok(());
            }
        }
        if off != bytes.len() {
            return Err(format!(
                "{} trailing bytes after last entry",
                bytes.len() - off
            ));
        }
        Ok(())
    }

    /// The last restart at or before entry `slot`, as `run` takes it.
    fn resume_at(&self, slot: usize) -> (usize, Restart) {
        match (slot / RESTART_INTERVAL).min(self.restarts.len()) {
            0 => (0, Restart::default()),
            r => (r * RESTART_INTERVAL, self.restarts[r - 1]),
        }
    }

    /// Decodes the whole block from its start into raw `(object id, grade
    /// bits)` pairs, appending its restart points to `restarts` — the
    /// verification-time path. Grade *validity* is the caller's concern,
    /// mirroring [`decode_raw`].
    pub fn decode_all(&self, restarts: &mut Vec<Restart>) -> Result<Vec<(u64, u64)>, String> {
        let mut out = Vec::with_capacity(self.count);
        self.run(0, Restart::default(), |i, id, bits, end| {
            out.push((id, bits));
            if (i + 1) % RESTART_INTERVAL == 0 && i + 1 < self.count {
                restarts.push(Restart {
                    prev_id: id,
                    prev_bits: bits,
                    // Block lengths are bounded by 2 × MAX_BLOCK_SIZE.
                    offset: end as u32,
                });
            }
            true
        })?;
        Ok(out)
    }

    /// Decodes entries `[from, to)`, appending to `out` — the v2
    /// counterpart of [`decode_entries`]. The walk resumes at the restart
    /// in front of `from`, so a short read costs at most
    /// [`RESTART_INTERVAL`] entries of skipping, wherever in the block it
    /// lands. Grade bits are trusted for the reason [`decode_entries`]
    /// trusts them; a framing error (a block mutated after open) is a
    /// typed detail, never a panic.
    pub fn decode_range(
        &self,
        from: usize,
        to: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<(), String> {
        let to = to.min(self.count);
        if from >= to {
            return Ok(());
        }
        out.reserve(to - from);
        let (first, state) = self.resume_at(from);
        self.run(first, state, |i, id, bits, _| {
            if i >= from {
                out.push(GradedEntry::new(id, Grade::clamped(f64::from_bits(bits))));
            }
            // A range ending with the block walks off its end, where the
            // trailing-bytes check sits.
            i + 1 < to || to == self.count
        })
    }

    /// Looks `object` up in a table block: binary search over the restart
    /// points' previous ids, then a walk of at most [`RESTART_INTERVAL`]
    /// entries that stops at the first id past the probe.
    pub fn lookup(&self, object: u64) -> Result<Option<Grade>, String> {
        debug_assert_eq!(
            self.kind,
            RegionKind::Table,
            "only table blocks are id-ordered"
        );
        let r = self.restarts.partition_point(|r| r.prev_id < object);
        let (first, state) = self.resume_at(r * RESTART_INTERVAL);
        let mut hit = None;
        self.run(first, state, |_, id, bits, _| {
            if id == object {
                hit = Some(Grade::clamped(f64::from_bits(bits)));
            }
            id < object
        })?;
        Ok(hit)
    }
}

/// The parsed v2 footer: v1's geometry plus the per-block byte lengths
/// that locate variable-length blocks, the data-region grade fences,
/// and the optional grade dictionary.
#[derive(Debug, Clone)]
pub struct FooterV2 {
    /// Flag bits ([`FLAG_CRISP`], [`FLAG_GRADE_DICT`], ...).
    pub flags: u64,
    /// *Logical* block size in bytes — fixes entries-per-block geometry;
    /// encoded blocks are smaller.
    pub block_size: usize,
    /// Number of graded entries.
    pub num_entries: u64,
    /// Number of entries with grade exactly 1 (the crisp match count).
    pub ones: u64,
    /// Number of data (sorted-order) blocks.
    pub data_blocks: u64,
    /// Number of table (object-order) blocks.
    pub table_blocks: u64,
    /// FNV-1a checksum of every data block's encoded bytes, in order.
    pub data_checksums: Vec<u64>,
    /// FNV-1a checksum of every table block's encoded bytes, in order.
    pub table_checksums: Vec<u64>,
    /// The first object id stored in each table block — the fence index
    /// that routes a random access (or skips a non-matching id range).
    pub table_first_ids: Vec<u64>,
    /// Encoded byte length of every data block, in order.
    pub data_block_lens: Vec<u64>,
    /// Encoded byte length of every table block, in order.
    pub table_block_lens: Vec<u64>,
    /// Grade bits of each data block's first (greatest) entry — the
    /// fence a threshold-hinted scan compares before loading the block.
    pub grade_max_bits: Vec<u64>,
    /// Grade bits of each data block's last (least) entry.
    pub grade_min_bits: Vec<u64>,
    /// Sorted distinct grade bit patterns (dictionary mode only; empty
    /// when [`FLAG_GRADE_DICT`] is clear).
    pub grade_dict: Vec<u64>,
}

impl FooterV2 {
    /// Fixed-length prefix of the v2 footer (all scalar fields).
    const SCALARS: usize = 7 * 8;

    /// Serialized length in bytes (including the trailing self-checksum).
    pub fn encoded_len(&self) -> u64 {
        (Self::SCALARS
            + 8 * (self.data_checksums.len()
                + self.table_checksums.len()
                + self.table_first_ids.len()
                + self.data_block_lens.len()
                + self.table_block_lens.len()
                + self.grade_max_bits.len()
                + self.grade_min_bits.len()
                + self.grade_dict.len())
            + 8) as u64
    }

    /// Serializes the footer, appending its own FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        for v in [
            self.flags,
            self.block_size as u64,
            self.num_entries,
            self.ones,
            self.data_blocks,
            self.table_blocks,
            self.grade_dict.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for list in [
            &self.data_checksums,
            &self.table_checksums,
            &self.table_first_ids,
            &self.data_block_lens,
            &self.table_block_lens,
            &self.grade_max_bits,
            &self.grade_min_bits,
            &self.grade_dict,
        ] {
            for v in list {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and verifies a serialized v2 footer. Like v1, everything a
    /// forged footer could abuse downstream — geometry, list lengths,
    /// block byte lengths, fence ordering, dictionary shape — is checked
    /// here with overflow-safe arithmetic before any block is read.
    pub fn parse(bytes: &[u8]) -> Result<FooterV2, StorageError> {
        let corrupt = |detail: String| StorageError::FooterCorrupt { detail };
        if bytes.len() < Self::SCALARS + 8 {
            return Err(corrupt(format!("footer too short ({} bytes)", bytes.len())));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if fnv1a64(body) != read_u64(tail, 0) {
            return Err(corrupt("footer checksum mismatch".to_owned()));
        }
        let flags = read_u64(body, 0);
        let block_size = read_u64(body, 8);
        let num_entries = read_u64(body, 16);
        let ones = read_u64(body, 24);
        let data_blocks = read_u64(body, 32);
        let table_blocks = read_u64(body, 40);
        let dict_len = read_u64(body, 48);
        if block_size == 0
            || block_size > MAX_BLOCK_SIZE as u64
            || !block_size.is_multiple_of(ENTRY_LEN as u64)
        {
            return Err(corrupt(format!("invalid block size {block_size}")));
        }
        if dict_len > GRADE_DICT_MAX as u64 {
            return Err(corrupt(format!(
                "grade dictionary of {dict_len} exceeds the {GRADE_DICT_MAX} cap"
            )));
        }
        let want = [
            data_blocks,
            table_blocks,
            table_blocks,
            data_blocks,
            table_blocks,
            data_blocks,
            data_blocks,
            dict_len,
        ]
        .iter()
        .try_fold(0u64, |acc, &n| acc.checked_add(n))
        .and_then(|v| v.checked_mul(8))
        .and_then(|v| v.checked_add(Self::SCALARS as u64))
        .ok_or_else(|| corrupt("block counts overflow".to_owned()))?;
        if body.len() as u64 != want {
            return Err(corrupt(format!(
                "footer length {} disagrees with block counts {data_blocks}+{table_blocks}",
                bytes.len()
            )));
        }
        let entries_per_block = block_size / ENTRY_LEN as u64;
        let expected_blocks = num_entries.div_ceil(entries_per_block);
        if data_blocks != expected_blocks || table_blocks != expected_blocks {
            return Err(corrupt(format!(
                "{num_entries} entries at {entries_per_block}/block need {expected_blocks} \
                 blocks per region, footer says {data_blocks}/{table_blocks}"
            )));
        }
        let mut off = Self::SCALARS;
        let mut take = |count: u64| {
            let mut out = Vec::with_capacity(count as usize);
            for _ in 0..count {
                out.push(read_u64(body, off));
                off += 8;
            }
            out
        };
        let data_checksums = take(data_blocks);
        let table_checksums = take(table_blocks);
        let table_first_ids = take(table_blocks);
        let data_block_lens = take(data_blocks);
        let table_block_lens = take(table_blocks);
        let grade_max_bits = take(data_blocks);
        let grade_min_bits = take(data_blocks);
        let grade_dict = take(dict_len);
        if !table_first_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("table fence ids not strictly ascending".to_owned()));
        }
        // An encoded block can exceed its logical size only modestly (a
        // worst-case varint entry is 20 bytes vs 16 raw, plus one raw
        // first grade); 2× bounds every read buffer a forged length
        // could request before its checksum is consulted.
        let max_len = 2 * block_size;
        for (region, lens) in [("data", &data_block_lens), ("table", &table_block_lens)] {
            if let Some(bad) = lens.iter().find(|&&len| len == 0 || len > max_len) {
                return Err(corrupt(format!("{region} block length {bad} out of range")));
            }
        }
        let valid_grade_bits = |bits: u64| Grade::new(f64::from_bits(bits)).is_ok();
        for (i, (&max, &min)) in grade_max_bits.iter().zip(&grade_min_bits).enumerate() {
            if !valid_grade_bits(max) || !valid_grade_bits(min) {
                return Err(corrupt(format!("data block {i} grade fence out of [0, 1]")));
            }
            // Non-negative f64 bit patterns order like their values, so
            // fence ordering is a plain integer comparison.
            if max < min {
                return Err(corrupt(format!("data block {i} grade fence inverted")));
            }
            if i + 1 < grade_max_bits.len() && min < grade_max_bits[i + 1] {
                return Err(corrupt(format!(
                    "grade fences of data blocks {i} and {} violate descending order",
                    i + 1
                )));
            }
        }
        let dict_mode = flags & FLAG_GRADE_DICT != 0;
        if dict_mode != (dict_len > 0) && num_entries > 0 {
            return Err(corrupt(format!(
                "dictionary flag {dict_mode} disagrees with dictionary length {dict_len}"
            )));
        }
        if !grade_dict.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt(
                "grade dictionary not strictly ascending".to_owned(),
            ));
        }
        if let Some(&bad) = grade_dict.iter().find(|&&bits| !valid_grade_bits(bits)) {
            return Err(corrupt(format!(
                "grade dictionary entry {bad:#x} outside [0, 1]"
            )));
        }
        Ok(FooterV2 {
            flags,
            block_size: block_size as usize,
            num_entries,
            ones,
            data_blocks,
            table_blocks,
            data_checksums,
            table_checksums,
            table_first_ids,
            data_block_lens,
            table_block_lens,
            grade_max_bits,
            grade_min_bits,
            grade_dict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garlic_core::ObjectId;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn entry_round_trips() {
        let mut slot = [0u8; ENTRY_LEN];
        let entry = GradedEntry::new(ObjectId(42), Grade::new(0.625).unwrap());
        encode_entry(&mut slot, entry);
        let mut decoded = Vec::new();
        decode_entries(&slot, 0, 1, &mut decoded);
        assert_eq!(decoded, [entry]);
    }

    fn footer() -> Footer {
        Footer {
            flags: FLAG_CRISP,
            block_size: 64,
            num_entries: 7,
            ones: 2,
            data_blocks: 2,
            table_blocks: 2,
            data_checksums: vec![1, 2],
            table_checksums: vec![3, 4],
            table_first_ids: vec![0, 9],
        }
    }

    #[test]
    fn footer_round_trips() {
        let f = footer();
        let bytes = f.encode();
        assert_eq!(bytes.len() as u64, f.encoded_len());
        let parsed = Footer::parse(&bytes).unwrap();
        assert_eq!(parsed.num_entries, 7);
        assert_eq!(parsed.ones, 2);
        assert_eq!(parsed.flags, FLAG_CRISP);
        assert_eq!(parsed.data_checksums, vec![1, 2]);
        assert_eq!(parsed.table_first_ids, vec![0, 9]);
    }

    #[test]
    fn footer_detects_flipped_bits() {
        let mut bytes = footer().encode();
        bytes[3] ^= 0x40;
        assert!(matches!(
            Footer::parse(&bytes),
            Err(StorageError::FooterCorrupt { .. })
        ));
    }

    #[test]
    fn footer_rejects_inconsistent_geometry() {
        let mut f = footer();
        f.data_blocks = 3; // 7 entries in 64-byte blocks need exactly 2.
        f.data_checksums.push(5);
        assert!(matches!(
            Footer::parse(&f.encode()),
            Err(StorageError::FooterCorrupt { .. })
        ));
    }

    #[test]
    fn varint_round_trips_and_rejects_truncation() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut off = 0;
            assert_eq!(read_varint(&buf, &mut off), Some(v));
            assert_eq!(off, buf.len());
            // Every strict prefix is a typed truncation, not a panic.
            for cut in 0..buf.len() {
                let mut off = 0;
                assert_eq!(read_varint(&buf[..cut], &mut off), None);
            }
        }
        // An 11-byte continuation run and an overflowing 10th byte both fail.
        let mut off = 0;
        assert_eq!(read_varint(&[0x80; 11], &mut off), None);
        let mut overlong = vec![0x80u8; 9];
        overlong.push(0x02); // would set bit 64
        let mut off = 0;
        assert_eq!(read_varint(&overlong, &mut off), None);
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    fn v2_entries(kind: RegionKind) -> Vec<GradedEntry> {
        let mut entries = vec![
            GradedEntry::new(ObjectId(900), Grade::new(0.875).unwrap()),
            GradedEntry::new(ObjectId(3), Grade::new(0.875).unwrap()),
            GradedEntry::new(ObjectId(u64::MAX - 1), Grade::new(0.5).unwrap()),
            GradedEntry::new(ObjectId(42), Grade::ZERO),
        ];
        if kind == RegionKind::Table {
            entries.sort_by_key(|e| e.object);
        }
        entries
    }

    fn block<'a>(
        bytes: &'a [u8],
        count: usize,
        kind: RegionKind,
        dict: Option<&'a [u64]>,
        restarts: &'a [Restart],
    ) -> BlockV2<'a> {
        BlockV2 {
            restarts,
            ..BlockV2::from_start(bytes, count, kind, dict)
        }
    }

    fn dict_of(entries: &[GradedEntry]) -> Vec<u64> {
        let mut dict: Vec<u64> = entries.iter().map(|e| e.grade.value().to_bits()).collect();
        dict.sort_unstable();
        dict.dedup();
        dict
    }

    #[test]
    fn v2_block_round_trips_both_regions_and_modes() {
        for kind in [RegionKind::Data, RegionKind::Table] {
            let entries = v2_entries(kind);
            let dict = dict_of(&entries);
            for dict in [None, Some(dict.as_slice())] {
                let bytes = encode_block_v2(&entries, kind, dict);
                let block = block(&bytes, entries.len(), kind, dict, &[]);
                let mut restarts = Vec::new();
                let raw = block.decode_all(&mut restarts).unwrap();
                assert!(restarts.is_empty(), "four entries need no restart");
                let decoded: Vec<GradedEntry> = raw
                    .iter()
                    .map(|&(id, bits)| {
                        GradedEntry::new(id, Grade::new(f64::from_bits(bits)).unwrap())
                    })
                    .collect();
                assert_eq!(decoded, entries, "{kind:?} dict={}", dict.is_some());
                let mut partial = Vec::new();
                block.decode_range(1, 3, &mut partial).unwrap();
                assert_eq!(partial, entries[1..3]);
            }
        }
    }

    /// `count` entries in skeleton (data) or id (table) order, with ties,
    /// id gaps of every varint width, and few enough distinct grades for
    /// dictionary mode.
    fn long_entries(kind: RegionKind, count: usize) -> Vec<GradedEntry> {
        let mut entries: Vec<GradedEntry> = (0..count as u64)
            .map(|i| {
                let id = 5 + i * 3 + (i % 7) * 1000 + (i / 50) * 70_000;
                GradedEntry::new(ObjectId(id), Grade::clamped((i * 37 % 11) as f64 / 10.0))
            })
            .collect();
        match kind {
            RegionKind::Data => {
                entries.sort_by_key(|e| (std::cmp::Reverse(e.grade), e.object));
            }
            RegionKind::Table => entries.sort_by_key(|e| e.object),
        }
        entries
    }

    /// The restart index's defining property: a decode resumed from any
    /// restart equals the decode from the block's start — for every
    /// `(from, to)` range and every probe id, on all four region × grade
    /// mode encodings, with block lengths below, at, just past, and well
    /// past a multiple of the interval.
    #[test]
    fn resumed_decode_equals_decode_from_the_start() {
        let counts = [
            1,
            RESTART_INTERVAL - 1,
            RESTART_INTERVAL,
            RESTART_INTERVAL + 1,
            2 * RESTART_INTERVAL,
            3 * RESTART_INTERVAL + 5,
        ];
        for kind in [RegionKind::Data, RegionKind::Table] {
            for count in counts {
                let entries = long_entries(kind, count);
                let dict = dict_of(&entries);
                for dict in [None, Some(dict.as_slice())] {
                    let what = format!("{kind:?} count={count} dict={}", dict.is_some());
                    let bytes = encode_block_v2(&entries, kind, dict);
                    let from_zero = block(&bytes, count, kind, dict, &[]);
                    let mut restarts = Vec::new();
                    from_zero.decode_all(&mut restarts).unwrap();
                    assert_eq!(restarts.len(), (count - 1) / RESTART_INTERVAL, "{what}");
                    let resumed = block(&bytes, count, kind, dict, &restarts);
                    for from in 0..=count {
                        for to in from..=count + 1 {
                            let (mut a, mut b) = (Vec::new(), Vec::new());
                            from_zero.decode_range(from, to, &mut a).unwrap();
                            resumed.decode_range(from, to, &mut b).unwrap();
                            assert_eq!(a, entries[from..to.min(count)], "{what} [{from}, {to})");
                            assert_eq!(a, b, "{what} [{from}, {to})");
                        }
                    }
                    if kind == RegionKind::Table {
                        // Every present id (first, last, and both sides of
                        // every restart among them), each id's absent
                        // neighbours, below the first and above the last.
                        let mut probes = vec![0, u64::MAX];
                        for e in &entries {
                            probes.extend([e.object.0 - 1, e.object.0, e.object.0 + 1]);
                        }
                        for probe in probes {
                            let want = entries
                                .iter()
                                .find(|e| e.object.0 == probe)
                                .map(|e| e.grade);
                            assert_eq!(from_zero.lookup(probe).unwrap(), want, "{what} {probe}");
                            assert_eq!(resumed.lookup(probe).unwrap(), want, "{what} {probe}");
                        }
                    }
                }
            }
        }
    }

    /// Every framing check holds wherever the walk starts: a block whose
    /// bytes change behind a restart is a typed detail from a resumed
    /// range and a resumed probe alike, never a panic.
    #[test]
    fn resumed_decode_keeps_every_framing_check() {
        let count = 2 * RESTART_INTERVAL + 8;
        let entries = long_entries(RegionKind::Table, count);
        let last = entries[count - 1].object.0;
        let dict = dict_of(&entries);
        let bytes = encode_block_v2(&entries, RegionKind::Table, Some(&dict));
        let mut restarts = Vec::new();
        block(&bytes, count, RegionKind::Table, Some(&dict), &[])
            .decode_all(&mut restarts)
            .unwrap();
        let tail = restarts[1].offset as usize;

        // Trailing bytes: seen by the walks that reach the block's end.
        let mut padded = bytes.clone();
        padded.push(0);
        let b = block(&padded, count, RegionKind::Table, Some(&dict), &restarts);
        let err = b
            .decode_range(count - 1, count, &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        assert!(b.lookup(last + 1).unwrap_err().contains("trailing"));
        assert_eq!(b.lookup(last).unwrap(), Some(entries[count - 1].grade));

        // Truncation inside the last run.
        let b = block(
            &bytes[..bytes.len() - 1],
            count,
            RegionKind::Table,
            Some(&dict),
            &restarts,
        );
        assert!(b.lookup(last).unwrap_err().contains("truncated"));

        // A zero id delta right behind the second restart.
        let mut zeroed = bytes.clone();
        let mut off = tail;
        let delta = read_varint(&bytes, &mut off).unwrap();
        assert!(delta < 0x80, "one-byte delta expected");
        zeroed[tail] = 0;
        let b = block(&zeroed, count, RegionKind::Table, Some(&dict), &restarts);
        let err = b.lookup(last).unwrap_err();
        assert!(err.contains("zero table id delta"), "{err}");
        let err = b
            .decode_range(2 * RESTART_INTERVAL, count, &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("zero table id delta"), "{err}");

        // A dictionary index past the dictionary, same place.
        let b = block(
            &bytes,
            count,
            RegionKind::Table,
            Some(&dict[..1]),
            &restarts,
        );
        assert!(b.lookup(last).unwrap_err().contains("dictionary"));

        // An overflowing id delta: the previous id sits at the top.
        let top = [
            GradedEntry::new(ObjectId(u64::MAX - 1), Grade::HALF),
            GradedEntry::new(ObjectId(u64::MAX), Grade::HALF),
        ];
        let mut bytes = encode_block_v2(&top, RegionKind::Table, Some(&dict_of(&top)));
        let n = bytes.len();
        bytes[n - 2] = 2; // delta 1 -> 2
        let err = block(&bytes, 2, RegionKind::Table, Some(&dict_of(&top)), &[])
            .lookup(u64::MAX)
            .unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn v2_block_decode_flags_framing_corruption() {
        let entries = v2_entries(RegionKind::Data);
        let bytes = encode_block_v2(&entries, RegionKind::Data, None);
        let decode = |bytes: &[u8]| {
            block(bytes, entries.len(), RegionKind::Data, None, &[]).decode_all(&mut Vec::new())
        };
        // Every truncation point either fails or yields fewer entries.
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode cleanly"
            );
        }
        // Trailing garbage after the last entry is caught too.
        let mut padded = bytes.clone();
        padded.push(0);
        let err = decode(&padded).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        // A dictionary index past the dictionary is typed, not a panic.
        let dict = [Grade::HALF.value().to_bits()];
        let two = [
            GradedEntry::new(ObjectId(1), Grade::HALF),
            GradedEntry::new(ObjectId(2), Grade::HALF),
        ];
        let encoded = encode_block_v2(&two, RegionKind::Table, Some(&dict));
        let err = block(&encoded, 2, RegionKind::Table, Some(&[]), &[])
            .decode_all(&mut Vec::new())
            .unwrap_err();
        assert!(err.contains("dictionary"), "{err}");
    }

    fn footer_v2() -> FooterV2 {
        FooterV2 {
            flags: FLAG_GRADE_DICT,
            block_size: 64,
            num_entries: 7,
            ones: 0,
            data_blocks: 2,
            table_blocks: 2,
            data_checksums: vec![1, 2],
            table_checksums: vec![3, 4],
            table_first_ids: vec![0, 9],
            data_block_lens: vec![17, 11],
            table_block_lens: vec![19, 13],
            grade_max_bits: vec![Grade::ONE.value().to_bits(), Grade::HALF.value().to_bits()],
            grade_min_bits: vec![Grade::HALF.value().to_bits(), Grade::ZERO.value().to_bits()],
            grade_dict: vec![
                Grade::ZERO.value().to_bits(),
                Grade::HALF.value().to_bits(),
                Grade::ONE.value().to_bits(),
            ],
        }
    }

    #[test]
    fn footer_v2_round_trips() {
        let f = footer_v2();
        let bytes = f.encode();
        assert_eq!(bytes.len() as u64, f.encoded_len());
        let parsed = FooterV2::parse(&bytes).unwrap();
        assert_eq!(parsed.num_entries, 7);
        assert_eq!(parsed.data_block_lens, vec![17, 11]);
        assert_eq!(parsed.grade_max_bits, f.grade_max_bits);
        assert_eq!(parsed.grade_dict, f.grade_dict);
    }

    #[test]
    fn footer_v2_rejects_forgeries() {
        type Forgery = (&'static str, fn(&mut FooterV2));
        let checks: [Forgery; 6] = [
            ("inverted fence", |f| {
                f.grade_max_bits[0] = Grade::ZERO.value().to_bits()
            }),
            ("fence outside [0, 1]", |f| {
                f.grade_min_bits[1] = f64::to_bits(2.0)
            }),
            ("fences out of descending order", |f| {
                f.grade_min_bits[0] = Grade::ZERO.value().to_bits();
                f.grade_max_bits[1] = Grade::ONE.value().to_bits();
            }),
            ("zero block length", |f| f.data_block_lens[1] = 0),
            ("oversized block length", |f| {
                f.table_block_lens[0] = (3 * f.block_size) as u64
            }),
            ("unsorted dictionary", |f| f.grade_dict.swap(0, 1)),
        ];
        for (what, tweak) in checks {
            let mut f = footer_v2();
            tweak(&mut f);
            assert!(
                matches!(
                    FooterV2::parse(&f.encode()),
                    Err(StorageError::FooterCorrupt { .. })
                ),
                "forged v2 footer accepted: {what}"
            );
        }
        let mut bytes = footer_v2().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(
            FooterV2::parse(&bytes),
            Err(StorageError::FooterCorrupt { .. })
        ));
    }

    #[test]
    fn block_size_must_be_entry_multiple() {
        assert!(check_block_size(4096).is_ok());
        assert!(check_block_size(16).is_ok());
        assert!(matches!(
            check_block_size(0),
            Err(StorageError::InvalidBlockSize { requested: 0 })
        ));
        assert!(matches!(
            check_block_size(100),
            Err(StorageError::InvalidBlockSize { requested: 100 })
        ));
    }
}
