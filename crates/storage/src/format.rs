//! The on-disk segment format (version 6, the one version this build
//! writes and reads).
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
//! │ footer             │  block size, entry count, per-block checksums,
//! │                    │  lengths and fence ids, grade dictionary, own
//! │                    │  checksum
//! ├────────────────────┤
//! │ trailer (24 B)     │  footer offset + length + magic "GSEGEND1"
//! └────────────────────┘
//! ```
//!
//! A file stores each fact once. What follows from other stored facts —
//! the number of blocks, whether the list is crisp, how many grades are 1,
//! the ids of a table block with no gap — is derived, not written, so no
//! open-time check exists only to compare a stored copy with its original.
//!
//! A block holds `block_size / 16` entries, so block counts, ranks, fences
//! and cache keys follow from the footer's logical block size and entry
//! count; each block is stored as a variable-length byte run, and the
//! footer records every block's length. Grades use one of two segment-wide
//! modes. When the list has at most [`GRADE_DICT_MAX`] distinct grade bit
//! patterns, the footer carries a sorted dictionary of raw `f64` bit
//! patterns, which blocks index — the exact bit pattern round-trips by
//! construction. Otherwise the dictionary is empty and blocks hold grade
//! bits themselves — also bit-exact.
//!
//! * A **data block** ([`Encoding::Delta`] or [`Encoding::Dict`]) is an
//!   interleaved `[id][grade]` varint stream. The first id is a plain
//!   LEB128 varint, later ids the zigzag-varint of the (wrapping) delta
//!   from the previous id. Under a dictionary each grade is a varint index
//!   into it; without one the first grade is its raw 8 bytes and later
//!   grades the plain varint of the non-negative decrease of the bit
//!   pattern, exact because the IEEE-754 bit patterns of non-negative
//!   grades order like their values.
//! * A **table block** ([`Encoding::Column`]) is an id run — the first id
//!   a plain varint, then the strictly positive deltas — followed by a
//!   fixed-width **grade column**: one cell per entry, in id order. A cell
//!   is the grade's raw 8 bytes without a dictionary, else the entry's
//!   dictionary index in 1 byte (at most 256 dictionary entries) or 2 bytes
//!   (up to [`GRADE_DICT_MAX`]), little-endian ([`cell_width`]). The column
//!   is the block's last `count × width` bytes, so a probe that knows an
//!   entry's index reads its grade in one load.
//! * A **dense table block** — one whose ids are `fence..fence + count`,
//!   the last block included — stores no id run: it is the grade column
//!   alone. The writer decides that from the block's own entries, and an
//!   empty id run is the one sign a reader takes of it: the ids are then
//!   `fence + index`, and an entry's index is its distance from the fence.
//!
//! Every block and the footer itself are checksummed with xxHash64
//! ([`checksum`]), and every open verifies the whole file; a decoder never
//! trusts a varint stream past the bytes its checksum covered.
//!
//! [`Block`] is the one block decoder. A column cell is addressed
//! directly, but a data block is a delta chain, so reading entry `i` means
//! decoding the `i` entries in front of it, and a table block's id run is
//! one too. The reader shortens that walk with **restart points**
//! ([`Restart`]): the decoder's state — byte offset, previous object id,
//! previous grade bits — in front of every [`RESTART_INTERVAL`]-th entry,
//! noted down while `open` decodes each block to verify it. They live in
//! memory only; the file holds none and its bytes are the same with or
//! without them. A walk resumes from a restart (or from a block's start,
//! which is the zero state) and applies every framing check wherever it
//! starts; in a table block it walks the id run only, which must end
//! exactly where the grade column starts.

use garlic_agg::Grade;
use garlic_core::GradedEntry;

use crate::error::StorageError;

/// Magic bytes opening every segment file.
pub const HEADER_MAGIC: [u8; 4] = *b"GSEG";
/// Magic bytes closing every segment file.
pub const TRAILER_MAGIC: [u8; 8] = *b"GSEGEND1";
/// The format version [`crate::SegmentWriter`] writes and the only one
/// [`crate::SegmentSource`] opens: compressed data blocks, table blocks of
/// a fixed-width grade column behind an id run (none in a dense block, the
/// last included), a footer that stores each fact once, xxHash64
/// checksums.
pub const FORMAT_VERSION: u32 = 6;
/// Bytes of one entry in the logical block geometry: object id (u64) +
/// grade bits (f64).
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

/// FNV-1a 64-bit — the checksum of WAL and manifest records.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const XXH_PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

/// One xxHash64 round: folds an 8-byte lane into an accumulator.
#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

/// The checksum a segment stores for each block and for its footer:
/// xxHash64 with seed 0, as specified in the xxHash repository's
/// `doc/xxhash_spec.md` — four independent accumulators over 32-byte
/// stripes, then the 8-, 4- and 1-byte tails and the final avalanche. It is
/// not cryptographic; it guards against torn writes, bit rot and
/// truncation, not adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut acc = if stripes.is_empty() {
        XXH_PRIME_5
    } else {
        let mut v = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            XXH_PRIME_1.wrapping_neg(),
        ];
        for stripe in stripes {
            let (lanes, _) = stripe.as_chunks::<8>();
            for (vi, lane) in v.iter_mut().zip(lanes) {
                *vi = xxh_round(*vi, u64::from_le_bytes(*lane));
            }
        }
        let mut acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for vi in v {
            acc = (acc ^ xxh_round(0, vi))
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4);
        }
        acc
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    let (lanes, rest) = rest.as_chunks::<8>();
    for lane in lanes {
        acc = (acc ^ xxh_round(0, u64::from_le_bytes(*lane)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let (words, rest) = rest.as_chunks::<4>();
    for word in words {
        acc = (acc ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
    }
    for &b in rest {
        acc = (acc ^ u64::from(b).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(XXH_PRIME_2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(XXH_PRIME_3);
    acc ^ acc >> 32
}

/// Reads a little-endian `u64` at `off`.
#[allow(clippy::expect_used, reason = "an 8-byte range converts to [u8; 8]")]
pub fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte field"))
}

/// The parsed footer: everything needed to address and verify the blocks.
#[derive(Debug, Clone, Default)]
pub struct Footer {
    /// *Logical* block size in bytes — fixes entries-per-block geometry;
    /// encoded blocks are smaller.
    pub block_size: usize,
    /// Number of graded entries.
    pub num_entries: u64,
    /// [`checksum`] of every data block's stored bytes, in order.
    pub data_checksums: Vec<u64>,
    /// [`checksum`] of every table block's stored bytes, in order.
    pub table_checksums: Vec<u64>,
    /// The first object id stored in each table block — the in-memory
    /// fence index that routes a random access to a single block.
    pub table_first_ids: Vec<u64>,
    /// Stored byte length of every data block, in order.
    pub data_block_lens: Vec<u64>,
    /// Stored byte length of every table block, in order.
    pub table_block_lens: Vec<u64>,
    /// Sorted distinct grade bit patterns; empty when blocks store grade
    /// bits themselves.
    pub grade_dict: Vec<u64>,
}

impl Footer {
    /// Serializes the footer — three scalars (block size, entry count,
    /// dictionary length), then the checksum, fence, length and dictionary
    /// lists — and appends its own [`checksum`].
    pub fn encode(&self) -> Vec<u8> {
        let scalars = [
            self.block_size as u64,
            self.num_entries,
            self.grade_dict.len() as u64,
        ];
        let lists = [
            &self.data_checksums,
            &self.table_checksums,
            &self.table_first_ids,
            &self.data_block_lens,
            &self.table_block_lens,
            &self.grade_dict,
        ];
        let mut out: Vec<u8> = scalars
            .iter()
            .chain(lists.into_iter().flatten())
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and verifies a serialized footer. Everything a forged footer
    /// could abuse downstream — geometry, list lengths, fence ordering,
    /// block byte lengths and dictionary shape — is checked here with
    /// overflow-safe arithmetic before any block is read.
    pub fn parse(bytes: &[u8]) -> Result<Footer, StorageError> {
        let corrupt = |detail: String| StorageError::FooterCorrupt { detail };
        const SCALARS: usize = 3 * 8;
        if bytes.len() < SCALARS + 8 {
            return Err(corrupt(format!("footer too short ({} bytes)", bytes.len())));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if checksum(body) != read_u64(tail, 0) {
            return Err(corrupt("footer checksum mismatch".to_owned()));
        }
        let [block_size, num_entries, dict_len] = std::array::from_fn(|i| read_u64(body, 8 * i));
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
        // Five lists of one value per block of a region.
        let blocks = num_entries.div_ceil(block_size / ENTRY_LEN as u64);
        let want = blocks
            .checked_mul(5)
            .and_then(|v| v.checked_add(dict_len))
            .and_then(|v| v.checked_mul(8))
            .and_then(|v| v.checked_add(SCALARS as u64))
            .ok_or_else(|| corrupt("block counts overflow".to_owned()))?;
        if body.len() as u64 != want {
            return Err(corrupt(format!(
                "footer length {} disagrees with {num_entries} entries in {blocks} blocks \
                 per region",
                bytes.len()
            )));
        }
        let mut off = SCALARS;
        let mut take = |count: u64| {
            let out: Vec<u64> = (0..count)
                .map(|i| read_u64(body, off + 8 * i as usize))
                .collect();
            off += out.len() * 8;
            out
        };
        let footer = Footer {
            block_size: block_size as usize,
            num_entries,
            data_checksums: take(blocks),
            table_checksums: take(blocks),
            table_first_ids: take(blocks),
            data_block_lens: take(blocks),
            table_block_lens: take(blocks),
            grade_dict: take(dict_len),
        };
        footer.check_lists()?;
        Ok(footer)
    }

    /// The checks on the footer's lists: ascending fence ids, block byte
    /// lengths, and the dictionary's order and values.
    fn check_lists(&self) -> Result<(), StorageError> {
        let corrupt = |detail: String| Err(StorageError::FooterCorrupt { detail });
        if !self.table_first_ids.windows(2).all(|w| w[0] < w[1]) {
            return corrupt("table fence ids not strictly ascending".to_owned());
        }
        // An encoded block can exceed its logical size only modestly (a
        // worst-case varint entry is 20 bytes vs 16 raw, plus one raw
        // first grade); 2× bounds every read buffer a forged length
        // could request before its checksum is consulted.
        let max_len = 2 * self.block_size as u64;
        for (region, lens) in [
            ("data", &self.data_block_lens),
            ("table", &self.table_block_lens),
        ] {
            if let Some(bad) = lens.iter().find(|&&len| len == 0 || len > max_len) {
                return corrupt(format!("{region} block length {bad} out of range"));
            }
        }
        if !self.grade_dict.windows(2).all(|w| w[0] < w[1]) {
            return corrupt("grade dictionary not strictly ascending".to_owned());
        }
        if let Some(&bad) = self
            .grade_dict
            .iter()
            .find(|&&bits| Grade::new(f64::from_bits(bits)).is_err())
        {
            return corrupt(format!("grade dictionary entry {bad:#x} outside [0, 1]"));
        }
        Ok(())
    }

    /// Blocks per region: the data and table regions have one block per
    /// `block_size / 16` entries each.
    pub fn blocks(&self) -> usize {
        (self.num_entries as usize).div_ceil(self.block_size / ENTRY_LEN)
    }

    /// Entries in block `index` of either region: full except possibly
    /// the last.
    pub(crate) fn entries_in_block(&self, index: usize) -> usize {
        let per_block = self.block_size / ENTRY_LEN;
        (self.num_entries as usize - index * per_block).min(per_block)
    }

    /// How block `index` of a `kind` region stores its entries — the one
    /// rule the writer encodes by and the reader decodes by. A table block
    /// carries its fence, from which a dense block's ids count.
    pub fn encoding(&self, kind: RegionKind, index: usize) -> Encoding<'_> {
        let dict = &self.grade_dict;
        match kind {
            RegionKind::Data if dict.is_empty() => Encoding::Delta,
            RegionKind::Data => Encoding::Dict(dict),
            RegionKind::Table => Encoding::Column(dict, self.table_first_ids[index]),
        }
    }

    /// Block `index` of a `kind` region, stored as `bytes`, with no
    /// restart points.
    pub(crate) fn block<'a>(
        &'a self,
        kind: RegionKind,
        index: usize,
        bytes: &'a [u8],
    ) -> Block<'a> {
        Block {
            bytes,
            count: self.entries_in_block(index),
            encoding: self.encoding(kind, index),
            restarts: &[],
        }
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
// Block encodings: varint delta chains (data blocks), an id run beside a
// grade column (table blocks).
// ---------------------------------------------------------------------------

/// Most distinct grade bit patterns the dictionary mode accepts. Past
/// this the writer falls back to storing bit patterns (still exact),
/// keeping the footer small and the indices short.
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
/// typed-corruption path for a forged or truncated block.
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

/// [`read_varint`] specialised for the decode hot loop. When at least 8
/// bytes remain, one little-endian load covers every varint of up to 8
/// bytes without per-byte bounds checks: a one-byte varint (most id deltas
/// and dictionary indices) returns after one test, and a longer one (a
/// data block's grade deltas are 5–7 bytes) finds its end from the word's
/// stop bits and gathers its 7-bit groups in three shift-and-mask steps
/// ([`gather7`]). A 9- or 10-byte varint reads at most two more bytes,
/// under [`read_varint`]'s rule for the 10th. Buffer tails fall back to the
/// byte-at-a-time reader, so the accepted encodings, and where each ends,
/// are exactly [`read_varint`]'s.
#[inline(always)]
fn read_varint_hot(bytes: &[u8], off: &mut usize) -> Option<u64> {
    let Some(run) = bytes.get(*off..).and_then(<[u8]>::first_chunk::<8>) else {
        return read_varint(bytes, off);
    };
    let word = u64::from_le_bytes(*run);
    if word & 0x80 == 0 {
        *off += 1;
        return Some(word & 0x7f);
    }
    let stops = !word & 0x8080_8080_8080_8080;
    if stops != 0 {
        // The first byte with a clear top bit ends the varint: 2..=8 bytes.
        let len = stops.trailing_zeros() as usize / 8 + 1;
        let keep = u64::MAX >> (64 - 8 * len);
        *off += len;
        return Some(gather7(word & keep));
    }
    // Eight continuation bytes carry 56 payload bits; one or two follow.
    let value = gather7(word);
    let &ninth = bytes.get(*off + 8)?;
    let value = value | (u64::from(ninth & 0x7f) << 56);
    if ninth & 0x80 == 0 {
        *off += 9;
        return Some(value);
    }
    // The 10th byte may carry only bit 63, and must end the varint.
    let &tenth = bytes.get(*off + 9)?;
    if tenth > 1 {
        return None;
    }
    *off += 10;
    Some(value | (u64::from(tenth) << 63))
}

/// Packs the 7-bit payload groups of the eight varint bytes in `word`
/// (byte `i` at bits `8i..8i + 8`, its top bit ignored) into one value
/// (group `i` at bits `7i..7i + 7`). Bytes past a varint's end must be
/// masked off first.
#[inline(always)]
fn gather7(word: u64) -> u64 {
    let x = word & 0x7f7f_7f7f_7f7f_7f7f;
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// Zigzag-maps a signed delta onto a small unsigned varint.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Which region a block belongs to; the two store their entries
/// differently because their sort orders differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Descending-grade skeleton order: ids are arbitrary (zigzag
    /// deltas), grades non-increasing (plain varint of the decrease).
    Data,
    /// Ascending-object order: ids strictly increase (plain varint of
    /// the positive delta, or no id run in a dense block), grades sit in a
    /// column of fixed-width cells.
    Table,
}

/// How a block stores its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding<'a> {
    /// A data block with grades as bit-pattern deltas.
    Delta,
    /// A data block with grades as indices into this sorted, non-empty
    /// dictionary.
    Dict(&'a [u64]),
    /// A table block whose first id is the fence (the `u64`): the id run,
    /// then one fixed-width grade cell per entry — raw grade bits when
    /// this dictionary is empty, indices into it otherwise
    /// ([`cell_width`]). A block whose ids are `fence..fence + count`
    /// stores no id run, and an empty id run means exactly that.
    Column(&'a [u64], u64),
}

/// Bytes per grade cell of a table block under a footer dictionary of
/// `dict_len` entries: the raw 8-byte grade bits without a dictionary, a
/// 1-byte index into one of at most 256 entries, and a 2-byte index into a
/// larger one (up to [`GRADE_DICT_MAX`]).
pub fn cell_width(dict_len: usize) -> usize {
    match dict_len {
        0 => 8,
        1..=256 => 1,
        _ => 2,
    }
}

/// Encodes one block: a data block as long as its varints, a table block
/// as its id varints and its cells — with no id varints when its ids are
/// `fence..fence + count`. Under a dictionary every entry's grade bits
/// must be in it. Entries out of their region's order encode without a
/// panic (the deltas wrap) into a block the decoder rejects.
pub fn encode_block(entries: &[GradedEntry], encoding: Encoding) -> Vec<u8> {
    let (dict, data) = match encoding {
        Encoding::Delta => (None, true),
        Encoding::Dict(dict) => (Some(dict), true),
        Encoding::Column(dict, _) => (Some(dict).filter(|d| !d.is_empty()), false),
    };
    let ids = match encoding {
        Encoding::Column(_, fence)
            if entries
                .iter()
                .enumerate()
                .all(|(i, e)| e.object.0.checked_sub(fence) == Some(i as u64)) =>
        {
            &[]
        }
        _ => entries,
    };
    #[allow(
        clippy::expect_used,
        reason = "the dictionary was built from these entries' grade bits"
    )]
    let index_of =
        |bits: u64| dict.map(|d| d.binary_search(&bits).expect("grade bits in dictionary"));
    let mut out = Vec::with_capacity(entries.len() * 4);
    let mut prev_id: u64 = 0;
    let mut prev_bits: u64 = 0;
    for (i, entry) in ids.iter().enumerate() {
        let id = entry.object.0;
        let bits = entry.grade.value().to_bits();
        let delta = id.wrapping_sub(prev_id);
        match i {
            0 => write_varint(&mut out, id),
            _ if data => write_varint(&mut out, zigzag(delta as i64)),
            _ => write_varint(&mut out, delta),
        }
        prev_id = id;
        if !data {
            continue;
        }
        match index_of(bits) {
            Some(index) => write_varint(&mut out, index as u64),
            None if i == 0 => out.extend_from_slice(&bits.to_le_bytes()),
            None => write_varint(&mut out, prev_bits.wrapping_sub(bits)),
        }
        prev_bits = bits;
    }
    if !data {
        let width = cell_width(dict.map_or(0, <[u64]>::len));
        for entry in entries {
            let bits = entry.grade.value().to_bits();
            let cell = index_of(bits).map_or(bits, |index| index as u64);
            out.extend_from_slice(&cell.to_le_bytes()[..width]);
        }
    }
    out
}

/// Entries between two restart points of a block. A constant, not an
/// option: it trades index memory (one [`Restart`] per interval, about
/// 0.75 B per entry of a region that keeps them) against the longest walk
/// a probe or a one-entry read can make, and no caller in the repository
/// wants a different trade.
pub const RESTART_INTERVAL: usize = 32;

/// The decoder's state in front of one entry: where its bytes start and
/// what the previous entry decoded to, which is all a delta chain needs to
/// resume. In a table block the offset is into the id run, and a walk
/// reads no previous grade. The default value is the state at a block's
/// start.
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

/// A graded entry from its raw bits. Grade bits are trusted on every read
/// path: each block a read decodes came through a checksum-verified load
/// of bytes the open-time scan validated grade by grade (a post-open
/// mutation fails the load's checksum, per the same torn-write/bit-rot —
/// not adversary — trust model as the checksums themselves), and
/// [`Grade::clamped`] upholds the `[0, 1]` type invariant regardless.
fn entry_of(id: u64, bits: u64) -> GradedEntry {
    GradedEntry::new(id, Grade::clamped(f64::from_bits(bits)))
}

/// Decodes entry `i`'s object id from its varint at `*off`, given the
/// previous entry's: the first id of a block is stored whole, a data
/// block's later ids as zigzag deltas, a table block's as strictly
/// positive deltas that must not overflow.
#[inline(always)]
fn next_id<const DATA: bool>(
    bytes: &[u8],
    off: &mut usize,
    i: usize,
    prev_id: u64,
) -> Result<u64, String> {
    let raw = read_varint_hot(bytes, off).ok_or_else(|| fault(i, "id varint truncated"))?;
    if i == 0 {
        Ok(raw)
    } else if DATA {
        Ok(prev_id.wrapping_add(unzigzag(raw) as u64))
    } else if raw == 0 {
        Err(fault(i, "zero table id delta"))
    } else {
        prev_id
            .checked_add(raw)
            .ok_or_else(|| fault(i, "table id delta overflows"))
    }
}

/// The grade bits in cell `i` of a grade column of `W`-byte cells: an
/// 8-byte cell holds them raw, a 1- or 2-byte cell indexes `dict`.
#[inline(always)]
fn cell<const W: usize>(column: &[u8], dict: &[u64], i: usize) -> Result<u64, String> {
    let cell = column
        .get(i * W..)
        .and_then(<[u8]>::first_chunk::<W>)
        .ok_or_else(|| fault(i, "grade cell past the column"))?;
    let mut raw = [0u8; 8];
    raw[..W].copy_from_slice(cell);
    let value = u64::from_le_bytes(raw);
    if W == 8 {
        return Ok(value);
    }
    dict.get(value as usize)
        .copied()
        .ok_or_else(|| fault(i, &format!("grade cell {value} past the dictionary")))
}

/// A checksum-verified block together with what decoding it needs. Every
/// read of a block — the full decode `open` verifies with, a sorted range,
/// a table probe — dispatches on the [`Encoding`] once: a data block is
/// one resumable walk (the private `run`): start state in, entries out,
/// and a table block is a resumable walk over its id run beside a grade
/// column read in place.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    /// The block's stored bytes.
    pub bytes: &'a [u8],
    /// Number of entries the block holds.
    pub count: usize,
    /// How the entries are stored, which also names the block's region.
    pub encoding: Encoding<'a>,
    /// The block's restart points: element `r` stands in front of entry
    /// `(r + 1) * RESTART_INTERVAL`. Empty means "decode from the start",
    /// which is always correct and is what `open` does.
    pub restarts: &'a [Restart],
}

impl<'a> Block<'a> {
    /// A table block's id run and grade column under the dictionary
    /// `dict`: the column is the last `count × width` bytes
    /// ([`cell_width`]), the id run everything in front of it — `None`
    /// when that is nothing, the sign of a dense block. A block too short
    /// for its column is a detail string for [`StorageError::CorruptBlock`].
    fn split_column(&self, dict: &[u64]) -> Result<(Option<&'a [u8]>, &'a [u8]), String> {
        let cells = self.count * cell_width(dict.len());
        let at = self.bytes.len().checked_sub(cells).ok_or_else(|| {
            format!(
                "a grade column of {} cells needs {cells} bytes, the block holds {}",
                self.count,
                self.bytes.len()
            )
        })?;
        let (ids, column) = self.bytes.split_at(at);
        Ok(((!ids.is_empty()).then_some(ids), column))
    }

    /// Whether reads of the block walk a delta chain, and so resume from
    /// restart points: every block but a dense table block.
    fn walks(&self) -> bool {
        match self.encoding {
            Encoding::Column(dict, _) => !matches!(self.split_column(dict), Ok((None, _))),
            Encoding::Delta | Encoding::Dict(_) => true,
        }
    }

    /// Walks the entries from `first` on, whose decoder state is `state`,
    /// handing each `(index, object id, grade bits, end offset)` to
    /// `visit`; `visit` returns `false` to stop early. Verifies the framing
    /// as it goes: mid-varint truncation, zero or overflowing table id
    /// deltas, grade delta underflow, out-of-range dictionary indices and
    /// cells, a column the block cannot hold, and — when the walk reaches
    /// the block's end — trailing bytes, or an id run that does not end
    /// where the column starts, all return a detail string for
    /// [`StorageError::CorruptBlock`].
    #[inline(always)]
    fn run(
        &self,
        first: usize,
        state: Restart,
        visit: impl FnMut(usize, u64, u64, usize) -> bool,
    ) -> Result<(), String> {
        // One instantiation per encoding and cell width, so the dispatch
        // is resolved outside the per-entry loop.
        let (dict, fence) = match self.encoding {
            Encoding::Delta => return self.run_data::<false>(&[], first, state, visit),
            Encoding::Dict(d) => return self.run_data::<true>(d, first, state, visit),
            Encoding::Column(d, fence) => (d, fence),
        };
        match cell_width(dict.len()) {
            1 => self.run_column::<1>(dict, fence, first, state, visit),
            2 => self.run_column::<2>(dict, fence, first, state, visit),
            _ => self.run_column::<8>(dict, fence, first, state, visit),
        }
    }

    /// `run` over a data block, grades as dictionary indices or as deltas.
    #[inline(always)]
    fn run_data<const DICT: bool>(
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
            let id = next_id::<true>(bytes, &mut off, i, prev_id)?;
            let bits = if DICT {
                let index = read_varint_hot(bytes, &mut off)
                    .ok_or_else(|| fault(i, "grade index truncated"))?;
                *dict
                    .get(index as usize)
                    .ok_or_else(|| fault(i, &format!("grade index {index} out of dictionary")))?
            } else if i == 0 {
                let slot = bytes
                    .get(off..)
                    .and_then(<[u8]>::first_chunk::<8>)
                    .ok_or_else(|| fault(i, "first grade truncated"))?;
                off += 8;
                u64::from_le_bytes(*slot)
            } else {
                let delta = read_varint_hot(bytes, &mut off)
                    .ok_or_else(|| fault(i, "grade delta truncated"))?;
                prev_bits
                    .checked_sub(delta)
                    .ok_or_else(|| fault(i, "grade delta underflows"))?
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

    /// `run` over a table block of `W`-byte cells: the id run's walk, or
    /// in a dense block the ids `fence + index`, each entry's grade read
    /// from its cell.
    #[inline(always)]
    fn run_column<const W: usize>(
        &self,
        dict: &[u64],
        fence: u64,
        first: usize,
        state: Restart,
        mut visit: impl FnMut(usize, u64, u64, usize) -> bool,
    ) -> Result<(), String> {
        let (ids, column) = self.split_column(dict)?;
        let mut visit = |i, id, end| Ok(visit(i, id, cell::<W>(column, dict, i)?, end));
        if let Some(ids) = ids {
            return self.walk_ids(ids, first, state, visit);
        }
        for i in first..self.count {
            if !visit(i, fence.wrapping_add(i as u64), 0)? {
                break;
            }
        }
        Ok(())
    }

    /// Walks a table block's id run `ids` from entry `first` on, whose
    /// decoder state is `state`, handing each `(index, object id, end
    /// offset)` to `visit`, which returns `Ok(false)` to stop early. A walk
    /// that reaches the block's last entry checks that the run ends
    /// exactly where the grade column starts.
    #[inline(always)]
    fn walk_ids(
        &self,
        ids: &[u8],
        first: usize,
        state: Restart,
        mut visit: impl FnMut(usize, u64, usize) -> Result<bool, String>,
    ) -> Result<(), String> {
        let mut off = state.offset as usize;
        let mut prev_id = state.prev_id;
        for i in first..self.count {
            let id = next_id::<false>(ids, &mut off, i, prev_id)?;
            if !visit(i, id, off)? {
                return Ok(());
            }
            prev_id = id;
        }
        if off != ids.len() {
            return Err(format!(
                "the id run ends {} bytes before the grade column",
                ids.len() - off
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

    /// Every entry of the block as its canonical 16-byte slot (object id,
    /// then grade bits, little-endian), decoded from the block's start into
    /// `scratch` — the verification-time path. Its restart points are
    /// appended to `restarts` (none for a dense table block, which a read
    /// addresses by index). Grade *validity* is the caller's concern.
    pub fn decode_all<'s>(
        &self,
        restarts: &mut Vec<Restart>,
        scratch: &'s mut Vec<[u8; ENTRY_LEN]>,
    ) -> Result<&'s [[u8; ENTRY_LEN]], String> {
        scratch.clear();
        scratch.reserve(self.count);
        let walks = self.walks();
        self.run(0, Restart::default(), |i, id, bits, end| {
            if walks && (i + 1) % RESTART_INTERVAL == 0 && i + 1 < self.count {
                restarts.push(Restart {
                    prev_id: id,
                    prev_bits: bits,
                    // Block lengths are bounded by 2 × MAX_BLOCK_SIZE.
                    offset: end as u32,
                });
            }
            scratch.push((u128::from(bits) << 64 | u128::from(id)).to_le_bytes());
            true
        })?;
        Ok(scratch)
    }

    /// Decodes entries `[from, to)`, appending to `out`. The walk resumes
    /// at the restart in front of `from`, so a short read costs at most
    /// [`RESTART_INTERVAL`] entries of skipping, wherever in the block it
    /// lands. A framing error (a block mutated after open) is a typed
    /// detail, never a panic.
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
                out.push(entry_of(id, bits));
            }
            // A range ending with the block walks off its end, where the
            // trailing-bytes check sits.
            i + 1 < to || to == self.count
        })
    }

    /// Looks `object` up in a table block.
    ///
    /// In a dense block, which stores no id run, the entry's index is
    /// `object - fence`, and no id is decoded. Otherwise the index comes
    /// from a walk over the id run of at most [`RESTART_INTERVAL`] entries
    /// from the nearest restart that stops at the first id not below the
    /// probe. Either way the grade is one cell read. An id the block does
    /// not hold, past its ids included, is `None`; a data block holds no id
    /// order and is a typed detail.
    pub fn lookup(&self, object: u64) -> Result<Option<Grade>, String> {
        let Encoding::Column(dict, fence) = self.encoding else {
            return Err("a data block is not id-ordered".to_owned());
        };
        let (ids, column) = self.split_column(dict)?;
        let index = match ids {
            None => object
                .checked_sub(fence)
                .and_then(|i| usize::try_from(i).ok())
                .filter(|&i| i < self.count),
            Some(ids) => self.position(object, ids)?,
        };
        let Some(index) = index else {
            return Ok(None);
        };
        let bits = match cell_width(dict.len()) {
            1 => cell::<1>(column, dict, index),
            2 => cell::<2>(column, dict, index),
            _ => cell::<8>(column, dict, index),
        }?;
        Ok(Some(entry_of(object, bits).grade))
    }

    /// Index of `object` in a table block, from a walk over its id run
    /// `ids` alone that resumes from the last restart whose previous id
    /// lies below it.
    fn position(&self, object: u64, ids: &[u8]) -> Result<Option<usize>, String> {
        let r = self.restarts.partition_point(|r| r.prev_id < object);
        let (first, state) = self.resume_at(r * RESTART_INTERVAL);
        let mut hit = None;
        self.walk_ids(ids, first, state, |i, id, _| {
            if id == object {
                hit = Some(i);
            }
            Ok(id < object)
        })?;
        Ok(hit)
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
    fn xxh64_matches_reference_vectors() {
        // Published xxHash64 (seed 0) test vectors. The 39-byte input
        // runs the 32-byte stripe loop, the 4-byte tail and the 1-byte
        // tail.
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// Every single-bit flip of one data block's and one table block's
    /// stored bytes (the table block's grade column included) is a
    /// `ChecksumMismatch` at open, naming that block. The name is older
    /// than version 4.
    #[test]
    fn every_bit_flip_of_a_v3_block_is_a_checksum_mismatch() {
        use crate::{BlockCache, SegmentSource, SegmentWriter};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("garlic-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bit-flips.seg");
        let grades: Vec<Grade> = (0..40).map(|i| Grade::clamped(i as f64 / 40.0)).collect();
        SegmentWriter::with_block_size(160)
            .unwrap()
            .write_grades(&path, &grades)
            .unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert_eq!(pristine[4..8], FORMAT_VERSION.to_le_bytes());
        let trailer = pristine.len() - TRAILER_LEN as usize;
        let footer_at = read_u64(&pristine, trailer) as usize;
        let footer = Footer::parse(&pristine[footer_at..trailer]).unwrap();
        let lens: Vec<u64> = footer
            .data_block_lens
            .iter()
            .chain(&footer.table_block_lens)
            .copied()
            .collect();
        // Block 1, the second data block, and the second table block.
        for block in [1, footer.blocks() + 1] {
            let start = HEADER_LEN as usize + lens[..block].iter().sum::<u64>() as usize;
            let end = start + lens[block] as usize;
            for bit in 8 * start..8 * end {
                let mut damaged = pristine.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(&path, damaged).unwrap();
                let result = SegmentSource::open(&path, Arc::new(BlockCache::new(4)));
                assert!(
                    matches!(
                        result,
                        Err(StorageError::ChecksumMismatch { block: b }) if b == block as u64
                    ),
                    "bit {bit}: {:?}",
                    result.err()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One entry round-trips through every encoding: a ranged decode
    /// returns it, and a table block's probe finds its grade.
    #[test]
    fn entry_round_trips() {
        let entry = GradedEntry::new(ObjectId(42), Grade::new(0.625).unwrap());
        let dict = dict_of(&[entry]);
        let wide = wide_dict(&dict);
        for kind in [RegionKind::Data, RegionKind::Table] {
            for encoding in encodings(kind, &dict, &wide, 42) {
                let bytes = encode_block(&[entry], encoding);
                let block = block(&bytes, 1, encoding, &[]);
                let mut decoded = Vec::new();
                block.decode_range(0, 1, &mut decoded).unwrap();
                assert_eq!(decoded, [entry], "{encoding:?}");
                if kind == RegionKind::Table {
                    assert_eq!(block.lookup(42).unwrap(), Some(entry.grade));
                    assert_eq!(block.lookup(41).unwrap(), None);
                } else {
                    assert!(block.lookup(42).is_err(), "data blocks are not probed");
                }
            }
        }
    }

    /// A two-block footer in dictionary mode.
    fn footer() -> Footer {
        Footer {
            block_size: 64,
            num_entries: 7,
            data_checksums: vec![1, 2],
            table_checksums: vec![3, 4],
            table_first_ids: vec![0, 9],
            data_block_lens: vec![17, 11],
            table_block_lens: vec![19, 13],
            grade_dict: vec![
                Grade::ZERO.value().to_bits(),
                Grade::HALF.value().to_bits(),
                Grade::ONE.value().to_bits(),
            ],
        }
    }

    /// The footer of a segment without a dictionary round-trips field by
    /// field and byte for byte.
    #[test]
    fn footer_round_trips() {
        let f = Footer {
            grade_dict: Vec::new(),
            ..footer()
        };
        let bytes = f.encode();
        // Three scalars, five two-block lists, the self-checksum.
        assert_eq!(bytes.len(), 3 * 8 + 5 * 2 * 8 + 8);
        let parsed = Footer::parse(&bytes).unwrap();
        assert_eq!(parsed.num_entries, 7);
        assert_eq!(parsed.blocks(), 2);
        assert_eq!(parsed.data_checksums, vec![1, 2]);
        assert_eq!(parsed.table_first_ids, vec![0, 9]);
        assert_eq!(parsed.table_block_lens, vec![19, 13]);
        assert!(parsed.grade_dict.is_empty());
        assert_eq!(parsed.encode(), bytes);
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
        // 7 entries in 64-byte blocks need exactly 2 per region, not 3.
        let mut f = footer();
        for list in [
            &mut f.data_checksums,
            &mut f.table_checksums,
            &mut f.table_first_ids,
            &mut f.data_block_lens,
            &mut f.table_block_lens,
        ] {
            list.push(99);
        }
        match Footer::parse(&f.encode()) {
            Err(StorageError::FooterCorrupt { detail }) => {
                assert!(detail.contains("blocks per region"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
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

    /// Every varint length from 1 to 10 bytes, with the buffer ending
    /// right after the varint (the byte reader's path) and with padding
    /// behind it (the word path): both readers return the value and end
    /// at the same offset, and every strict prefix is `None` for both.
    #[test]
    fn hot_varint_reads_every_length() {
        let values = (0..64).flat_map(|bit| [1u64 << bit, (1u64 << bit) - 1, !0 >> bit]);
        for v in values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let len = buf.len();
            for padding in [0, 1, 7, 9] {
                let mut padded = buf.clone();
                padded.extend(std::iter::repeat_n(0xff, padding));
                let (mut a, mut b) = (0, 0);
                assert_eq!(read_varint(&padded, &mut a), Some(v));
                assert_eq!(
                    read_varint_hot(&padded, &mut b),
                    Some(v),
                    "{v:#x} +{padding}"
                );
                assert_eq!((a, b), (len, len), "{v:#x} +{padding}");
            }
            for cut in 0..len {
                let mut off = 0;
                assert_eq!(read_varint_hot(&buf[..cut], &mut off), None);
                assert_eq!(off, 0);
            }
        }
        // A 10th byte past bit 63, or one that does not end the varint,
        // is refused on the word path as on the byte path.
        for tenth in [0x02, 0x7f, 0x80, 0x81] {
            let mut bytes = vec![0xffu8; 9];
            bytes.extend([tenth, 0, 0]);
            let (mut a, mut b) = (0, 0);
            assert_eq!(read_varint(&bytes, &mut a), None, "{tenth:#x}");
            assert_eq!(read_varint_hot(&bytes, &mut b), None, "{tenth:#x}");
        }
    }

    /// Byte strings that are mostly continuation bytes, so varints of
    /// every length, overlong ones and truncated ones are all common, with
    /// the bytes a 10th byte is judged by (0x00–0x03, 0x80, 0x81) frequent.
    fn varint_soup() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::strategy::Strategy;
        proptest::collection::vec((0u8..=255, 0u8..8), 0..48).prop_map(|raw| {
            raw.into_iter()
                .map(|(byte, kind)| match kind {
                    0..=3 => byte | 0x80,
                    4 => (byte & 0x01) | 0x80,
                    5 => byte & 0x03,
                    _ => byte,
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// `read_varint_hot` accepts exactly what `read_varint` accepts:
        /// decoding any byte string varint by varint from any start, the
        /// two readers return the same values and stop at the same
        /// offsets, and fail at the same varint.
        #[test]
        fn hot_varint_agrees_with_read_varint_on_arbitrary_bytes(
            bytes in varint_soup(),
            start in 0usize..40,
        ) {
            let (mut a, mut b) = (start.min(bytes.len()), start.min(bytes.len()));
            loop {
                let (va, vb) = (read_varint(&bytes, &mut a), read_varint_hot(&bytes, &mut b));
                proptest::prop_assert_eq!(va, vb);
                proptest::prop_assert_eq!(a, b);
                if va.is_none() {
                    break;
                }
            }
        }
    }

    /// A table block over the ids `fence..fence + count` is its grade
    /// column alone under every cell width: the same cells as the block
    /// with an id run that a fence below its first id gives it. Both decode
    /// to the same entries and answer every id alike, with and without
    /// restart points; ids past the block's last are `None`. The column
    /// one byte longer reads the byte as an id run and one byte shorter
    /// cannot hold its cells: each is a typed detail.
    #[test]
    fn dense_probes_answer_like_found_ones() {
        let count = 3 * RESTART_INTERVAL + 5;
        let first = 1_000;
        let entries: Vec<GradedEntry> = (0..count as u64)
            .map(|i| GradedEntry::new(first + i, Grade::clamped((i * 37 % 11) as f64 / 10.0)))
            .collect();
        let dict = dict_of(&entries);
        let wide = wide_dict(&dict);
        for encoding in encodings(RegionKind::Table, &dict, &wide, first - 1) {
            let bytes = encode_block(&entries, encoding);
            let from_zero = block(&bytes, count, encoding, &[]);
            let mut restarts = Vec::new();
            decode_all(&from_zero, &mut restarts).unwrap();
            assert!(!restarts.is_empty(), "{encoding:?}");
            let resumed = block(&bytes, count, encoding, &restarts);
            let Encoding::Column(d, _) = encoding else {
                unreachable!("table encodings are columns")
            };
            let dense = Encoding::Column(d, first);
            let cells = encode_block(&entries, dense);
            assert_eq!(cells.len(), count * cell_width(d.len()), "{encoding:?}");
            assert_eq!(bytes[bytes.len() - cells.len()..], cells, "{encoding:?}");
            let column_only = block(&cells, count, dense, &[]);
            let mut decoded = Vec::new();
            column_only.decode_range(0, count, &mut decoded).unwrap();
            assert_eq!(decoded, entries, "{encoding:?}");
            let mut column_restarts = Vec::new();
            decode_all(&column_only, &mut column_restarts).unwrap();
            assert!(column_restarts.is_empty(), "a dense block keeps none");
            for probe in first - 2..first + count as u64 + 3 {
                let want = entries
                    .iter()
                    .find(|e| e.object.0 == probe)
                    .map(|e| e.grade);
                for b in [&from_zero, &resumed, &column_only] {
                    assert_eq!(b.lookup(probe).unwrap(), want, "{encoding:?} {probe}");
                }
            }
            let mut long = cells.clone();
            long.insert(0, 0);
            let err = decode_all(&block(&long, count, dense, &[]), &mut Vec::new()).unwrap_err();
            assert!(err.contains("id varint truncated"), "{err}");
            let short = block(&cells[1..], count, dense, &[]);
            let err = decode_all(&short, &mut Vec::new()).unwrap_err();
            assert!(err.contains("grade column of"), "{err}");
            assert!(short.lookup(first).is_err());
        }
    }

    /// A grade column's framing is checked wherever a read starts: a block
    /// too short for its column, an id run that runs into the column or
    /// ends before it, and a cell past the dictionary are typed details
    /// from the full decode, a resumed range and a probe, never a panic.
    #[test]
    fn column_blocks_keep_every_framing_check() {
        let count = 2 * RESTART_INTERVAL + 8;
        let entries = long_entries(RegionKind::Table, count);
        let last = entries[count - 1].object.0;
        let dict = dict_of(&entries);
        let column = Encoding::Column(&dict, entries[0].object.0);
        let bytes = encode_block(&entries, column);
        let mut restarts = Vec::new();
        decode_all(&block(&bytes, count, column, &[]), &mut restarts).unwrap();
        // The walks that reach the block's end: the full decode, a resumed
        // range ending with the block, a resumed probe past the last id.
        let walks_to_the_end = |bytes: &[u8], what: &str| {
            let from_zero = block(bytes, count, column, &[]);
            let resumed = block(bytes, count, column, &restarts);
            for err in [
                decode_all(&from_zero, &mut Vec::new()).unwrap_err(),
                resumed
                    .decode_range(count - 1, count, &mut Vec::new())
                    .unwrap_err(),
                resumed.lookup(last + 1).unwrap_err(),
            ] {
                assert!(err.contains(what), "{what}: {err}");
            }
            resumed.lookup(last)
        };

        // Fewer bytes than the column needs.
        let err = walks_to_the_end(&bytes[..count - 1], "grade column of").unwrap_err();
        assert!(err.contains("grade column of"), "{err}");
        // The id run's last varint continues into the column.
        let ids_end = bytes.len() - count;
        let mut into_column = bytes.clone();
        into_column[ids_end - 1] |= 0x80;
        let err = walks_to_the_end(&into_column, "id varint truncated").unwrap_err();
        assert!(err.contains("id varint truncated"), "{err}");
        // A byte between the id run and the column: a probe that stops at
        // its id before the run's end still reads its own cell.
        let mut gap = bytes.clone();
        gap.insert(ids_end, 0);
        let hit = walks_to_the_end(&gap, "before the grade column").unwrap();
        assert_eq!(hit, Some(entries[count - 1].grade));
        // A cell past the dictionary.
        let short = &dict[..dict.len() - 1];
        let mut past = bytes.clone();
        let cell = ids_end
            + entries
                .iter()
                .position(|e| e.grade.value().to_bits() == dict[dict.len() - 1])
                .unwrap();
        past[cell] = dict.len() as u8 - 1;
        let fence = entries[0].object.0;
        let b = block(&past, count, Encoding::Column(short, fence), &restarts);
        let err = decode_all(&b, &mut Vec::new()).unwrap_err();
        assert!(err.contains("past the dictionary"), "{err}");
        // Found by the walk, or addressed directly in the same cells read
        // as a dense block.
        let index = cell - ids_end;
        let probe = entries[index].object.0;
        let dense = Encoding::Column(short, probe - index as u64);
        for b in [b, block(&past[ids_end..], count, dense, &[])] {
            let err = b.lookup(probe).unwrap_err();
            assert!(err.contains("past the dictionary"), "{err}");
        }
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
        encoding: Encoding<'a>,
        restarts: &'a [Restart],
    ) -> Block<'a> {
        Block {
            bytes,
            count,
            encoding,
            restarts,
        }
    }

    /// Every `(object id, grade bits)` of a block, restarts appended.
    fn decode_all(block: &Block, restarts: &mut Vec<Restart>) -> Result<Vec<(u64, u64)>, String> {
        let slots = block.decode_all(restarts, &mut Vec::new())?.to_vec();
        Ok(slots
            .iter()
            .map(|s| (read_u64(s, 0), read_u64(s, 8)))
            .collect())
    }

    fn dict_of(entries: &[GradedEntry]) -> Vec<u64> {
        let mut dict: Vec<u64> = entries.iter().map(|e| e.grade.value().to_bits()).collect();
        dict.sort_unstable();
        dict.dedup();
        dict
    }

    /// `dict` padded with grades no entry has, past the 256 entries a
    /// 1-byte cell can index, so a column over it has 2-byte cells and
    /// indices above 255.
    fn wide_dict(dict: &[u64]) -> Vec<u64> {
        let mut wide: Vec<u64> = (0..300)
            .map(|i| Grade::clamped(i as f64 / 7919.0).value().to_bits())
            .chain(dict.iter().copied())
            .collect();
        wide.sort_unstable();
        wide.dedup();
        assert!(cell_width(wide.len()) == 2);
        wide
    }

    /// Every encoding a `kind` block can have over grades drawn from
    /// `dict` (and `wide`, a superset past 256 entries): in data blocks
    /// grade deltas and dictionary indices, in table blocks fenced at
    /// `fence` the grade column with 8-, 1- and 2-byte cells.
    fn encodings<'a>(
        kind: RegionKind,
        dict: &'a [u64],
        wide: &'a [u64],
        fence: u64,
    ) -> Vec<Encoding<'a>> {
        match kind {
            RegionKind::Data => vec![Encoding::Delta, Encoding::Dict(dict)],
            RegionKind::Table => vec![
                Encoding::Column(&[], fence),
                Encoding::Column(dict, fence),
                Encoding::Column(wide, fence),
            ],
        }
    }

    #[test]
    fn v2_block_round_trips_both_regions_and_modes() {
        for kind in [RegionKind::Data, RegionKind::Table] {
            let entries = v2_entries(kind);
            let dict = dict_of(&entries);
            let wide = wide_dict(&dict);
            for encoding in encodings(kind, &dict, &wide, entries[0].object.0) {
                let bytes = encode_block(&entries, encoding);
                let block = block(&bytes, entries.len(), encoding, &[]);
                let mut restarts = Vec::new();
                let raw = decode_all(&block, &mut restarts).unwrap();
                assert!(restarts.is_empty(), "four entries need no restart");
                let decoded: Vec<GradedEntry> = raw
                    .iter()
                    .map(|&(id, bits)| {
                        GradedEntry::new(id, Grade::new(f64::from_bits(bits)).unwrap())
                    })
                    .collect();
                assert_eq!(decoded, entries, "{kind:?} {encoding:?}");
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
    /// `(from, to)` range and every probe id, on every region × encoding
    /// pair (the grade column's three cell widths included), with block
    /// lengths below, at, just past, and well past a multiple of the
    /// interval.
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
                let wide = wide_dict(&dict);
                for encoding in encodings(kind, &dict, &wide, entries[0].object.0) {
                    let what = format!("{kind:?} count={count} {encoding:?}");
                    let bytes = encode_block(&entries, encoding);
                    let from_zero = block(&bytes, count, encoding, &[]);
                    let mut restarts = Vec::new();
                    decode_all(&from_zero, &mut restarts).unwrap();
                    assert_eq!(restarts.len(), (count - 1) / RESTART_INTERVAL, "{what}");
                    let resumed = block(&bytes, count, encoding, &restarts);
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
    /// range and a resumed probe alike, never a panic — trailing bytes, a
    /// truncated varint and a dictionary index past the dictionary in a
    /// data block, a zero and an overflowing id delta in a table block.
    #[test]
    fn resumed_decode_keeps_every_framing_check() {
        let count = 2 * RESTART_INTERVAL + 8;
        let entries = long_entries(RegionKind::Data, count);
        let dict = dict_of(&entries);
        let bytes = encode_block(&entries, Encoding::Dict(&dict));
        let mut restarts = Vec::new();
        decode_all(
            &block(&bytes, count, Encoding::Dict(&dict), &[]),
            &mut restarts,
        )
        .unwrap();
        let resumed_tail = |bytes: &[u8], dict: &[u64]| {
            block(bytes, count, Encoding::Dict(dict), &restarts)
                .decode_range(count - 1, count, &mut Vec::new())
                .unwrap_err()
        };
        // Trailing bytes: seen by the walks that reach the block's end.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(resumed_tail(&padded, &dict).contains("trailing"));
        // Truncation inside the last run.
        assert!(resumed_tail(&bytes[..bytes.len() - 1], &dict).contains("truncated"));
        // A dictionary index past the dictionary, behind the last restart.
        assert!(resumed_tail(&bytes, &dict[..1]).contains("dictionary"));

        // A zero id delta right behind the second restart of a table block.
        let entries = long_entries(RegionKind::Table, count);
        let last = entries[count - 1].object.0;
        let dict = dict_of(&entries);
        let column = Encoding::Column(&dict, entries[0].object.0);
        let bytes = encode_block(&entries, column);
        let mut restarts = Vec::new();
        decode_all(&block(&bytes, count, column, &[]), &mut restarts).unwrap();
        let tail = restarts[1].offset as usize;
        let mut zeroed = bytes.clone();
        let mut off = tail;
        let delta = read_varint(&bytes, &mut off).unwrap();
        assert!(delta < 0x80, "one-byte delta expected");
        zeroed[tail] = 0;
        let b = block(&zeroed, count, column, &restarts);
        let err = b.lookup(last).unwrap_err();
        assert!(err.contains("zero table id delta"), "{err}");
        let err = b
            .decode_range(2 * RESTART_INTERVAL, count, &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("zero table id delta"), "{err}");

        // An overflowing id delta: the previous id sits at the top. A fence
        // below the first id keeps the id run of these contiguous ids.
        let top = [
            GradedEntry::new(ObjectId(u64::MAX - 1), Grade::HALF),
            GradedEntry::new(ObjectId(u64::MAX), Grade::HALF),
        ];
        let dict = dict_of(&top);
        let column = Encoding::Column(&dict, 0);
        let mut bytes = encode_block(&top, column);
        let n = bytes.len();
        // The id run ends in the one-byte delta, in front of two 1-byte
        // cells.
        bytes[n - 3] = 2; // delta 1 -> 2
        let err = block(&bytes, 2, column, &[]).lookup(u64::MAX).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn v2_block_decode_flags_framing_corruption() {
        let entries = v2_entries(RegionKind::Data);
        let bytes = encode_block(&entries, Encoding::Delta);
        let decode = |bytes: &[u8]| {
            decode_all(
                &block(bytes, entries.len(), Encoding::Delta, &[]),
                &mut Vec::new(),
            )
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
        let encoded = encode_block(&two, Encoding::Dict(&dict));
        let err = decode_all(
            &block(&encoded, 2, Encoding::Dict(&[]), &[]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("dictionary"), "{err}");
    }

    /// The footer of a segment in dictionary mode round-trips, dictionary
    /// included.
    #[test]
    fn footer_v2_round_trips() {
        let f = footer();
        let bytes = f.encode();
        // Three scalars, five two-block lists, the three-entry
        // dictionary, the self-checksum.
        assert_eq!(bytes.len(), 3 * 8 + 5 * 2 * 8 + 3 * 8 + 8);
        let parsed = Footer::parse(&bytes).unwrap();
        assert_eq!(parsed.num_entries, 7);
        assert_eq!(parsed.data_block_lens, vec![17, 11]);
        assert_eq!(parsed.grade_dict, f.grade_dict);
        assert_eq!(parsed.encode(), bytes);
    }

    #[test]
    fn footer_v2_rejects_forgeries() {
        type Forgery = (&'static str, fn(&mut Footer));
        let checks: [Forgery; 4] = [
            ("fence ids out of order", |f| f.table_first_ids.swap(0, 1)),
            ("zero block length", |f| f.data_block_lens[1] = 0),
            ("oversized block length", |f| {
                f.table_block_lens[0] = (3 * f.block_size) as u64
            }),
            ("unsorted dictionary", |f| f.grade_dict.swap(0, 1)),
        ];
        for (what, tweak) in checks {
            let mut f = footer();
            tweak(&mut f);
            assert!(
                matches!(
                    Footer::parse(&f.encode()),
                    Err(StorageError::FooterCorrupt { .. })
                ),
                "forged footer accepted: {what}"
            );
        }
        let mut bytes = footer().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(
            Footer::parse(&bytes),
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
