//! Corruption and truncation regression suite: every way a segment file
//! can be damaged must surface as a **typed** [`StorageError`] at open —
//! never a panic, never a silently wrong graded list. These are the
//! durability guarantees the README documents. Tests named `v2_…` cover
//! the compressed block layout version 2 introduced, which version 6
//! keeps for its data blocks.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::GradedEntry;
use garlic_storage::format::{
    cell_width, checksum, encode_block, Encoding, Footer, RegionKind, ENTRY_LEN, FORMAT_VERSION,
    GRADE_DICT_MAX, HEADER_MAGIC, TRAILER_LEN, TRAILER_MAGIC,
};
use garlic_storage::{BlockCache, SegmentSource, SegmentWriter, StorageError};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-storage-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A healthy segment to damage: 64 entries in 64-byte blocks (4 entries
/// each), so 16 data blocks and 16 table blocks.
fn healthy(name: &str) -> PathBuf {
    let path = temp_path(name);
    let grades: Vec<Grade> = (0..64).map(|i| Grade::clamped(i as f64 / 64.0)).collect();
    SegmentWriter::with_block_size(64)
        .unwrap()
        .write_grades(&path, &grades)
        .unwrap();
    path
}

/// Reads the footer offset out of a segment's trailer.
fn footer_offset(bytes: &[u8]) -> usize {
    u64::from_le_bytes(
        bytes[bytes.len() - 24..bytes.len() - 16]
            .try_into()
            .unwrap(),
    ) as usize
}

/// The parsed footer of a segment's bytes.
fn footer_of(bytes: &[u8]) -> Footer {
    Footer::parse(&bytes[footer_offset(bytes)..bytes.len() - TRAILER_LEN as usize]).unwrap()
}

/// The byte range file-wide block `block` takes in a segment's bytes.
fn block_range(bytes: &[u8], block: usize) -> Range<usize> {
    let footer = footer_of(bytes);
    let lens: Vec<u64> = footer
        .data_block_lens
        .iter()
        .chain(&footer.table_block_lens)
        .copied()
        .collect();
    let start = 8 + lens[..block].iter().sum::<u64>() as usize;
    start..start + lens[block] as usize
}

fn open(path: &PathBuf) -> Result<SegmentSource, StorageError> {
    SegmentSource::open(path, Arc::new(BlockCache::new(16)))
}

#[test]
fn healthy_segment_opens() {
    let path = healthy("healthy.seg");
    open(&path).unwrap();
}

#[test]
fn empty_file_is_truncated() {
    let path = temp_path("empty-file.seg");
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::Truncated { actual: 0, .. })
    ));
}

#[test]
fn foreign_file_is_bad_magic() {
    let path = temp_path("foreign.seg");
    std::fs::write(&path, vec![0x42; 4096]).unwrap();
    assert!(matches!(open(&path), Err(StorageError::BadMagic)));
}

/// `path` with the version field of its header set to `version`.
fn set_version(path: &PathBuf, version: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn future_version_is_unsupported_and_names_both_sides() {
    let path = healthy("future.seg");
    set_version(&path, 99);
    let err = open(&path).unwrap_err();
    assert!(matches!(
        err,
        StorageError::UnsupportedVersion {
            found: 99,
            supported: FORMAT_VERSION,
        }
    ));
    // The operator must learn both the file's version and what this build
    // reads, without digging through source.
    let message = format!("{err}");
    assert!(message.contains("99"), "{message}");
    assert!(
        message.contains(&format!("reads version {FORMAT_VERSION} only")),
        "{message}"
    );
}

#[test]
fn ancient_version_is_unsupported() {
    let path = healthy("ancient.seg");
    set_version(&path, 0);
    assert!(matches!(
        open(&path),
        Err(StorageError::UnsupportedVersion { found: 0, .. })
    ));
}

/// The versions before and after the one this build reads are typed
/// errors before any block is read, whatever the rest of the file holds:
/// here a sound version-6 file.
#[test]
fn every_other_version_is_unsupported() {
    let path = healthy("other-versions.seg");
    assert_eq!(FORMAT_VERSION, 6);
    for version in [1, 2, 3, 4, 5, 7] {
        set_version(&path, version);
        match open(&path) {
            Err(StorageError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (version, FORMAT_VERSION));
            }
            other => panic!("version {version}: {:?}", other.err()),
        }
    }
    set_version(&path, FORMAT_VERSION);
    open(&path).unwrap();
}

#[test]
fn truncated_copies_are_rejected_at_every_length() {
    // A partial copy can end anywhere: mid-blocks, mid-footer, mid-trailer.
    // Every cut must fail with a typed error (and the full file must open).
    let path = healthy("cuttable.seg");
    let bytes = std::fs::read(&path).unwrap();
    let cut_path = temp_path("cut.seg");
    for cut in [
        1,
        7,
        8,
        64,
        1000,
        bytes.len() - 24,
        bytes.len() - 8,
        bytes.len() - 1,
    ] {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let err = open(&cut_path).expect_err(&format!("cut at {cut} must not open"));
        assert!(
            matches!(
                err,
                StorageError::Truncated { .. }
                    | StorageError::FooterCorrupt { .. }
                    | StorageError::BadMagic
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    std::fs::write(&cut_path, &bytes).unwrap();
    open(&cut_path).unwrap();
}

#[test]
fn flipped_data_block_bit_is_a_checksum_mismatch() {
    let path = healthy("bitrot-data.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    // A byte in the middle of the fourth data block.
    let block = block_range(&bytes, 3);
    bytes[(block.start + block.end) / 2] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::ChecksumMismatch { block: 3 })
    ));
}

#[test]
fn flipped_table_block_bit_is_a_checksum_mismatch() {
    let path = healthy("bitrot-table.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    // 16 data blocks: the table region starts at block 16, a dense block
    // whose first byte is its first grade cell.
    let block = block_range(&bytes, 16);
    bytes[block.start] ^= 0x80;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::ChecksumMismatch { block: 16 })
    ));
}

#[test]
fn flipped_footer_bit_is_footer_corrupt() {
    let path = healthy("bitrot-footer.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    let footer_at = footer_offset(&bytes);
    bytes[footer_at + 10] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

#[test]
fn flipped_v2_data_block_bit_is_a_checksum_mismatch() {
    // Blocks are variable-length, but the first one starts right after the
    // header.
    let path = healthy("bitrot-v2-data.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::ChecksumMismatch { block: 0 })
    ));
}

#[test]
fn flipped_v2_table_block_bit_is_a_checksum_mismatch() {
    // The byte immediately before the footer belongs to the last table
    // block's grade column (block 31 here: 16 data + 16 table).
    let path = healthy("bitrot-v2-table.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    let footer_at = footer_offset(&bytes);
    bytes[footer_at - 1] ^= 0x80;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::ChecksumMismatch { block: 31 })
    ));
}

#[test]
fn flipped_v2_footer_bit_is_footer_corrupt() {
    // A bit of the footer's own checksum, its last 8 bytes.
    let path = healthy("bitrot-v2-footer.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    let trailer = bytes.len() - TRAILER_LEN as usize;
    bytes[trailer - 3] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
    match open(&path) {
        Err(StorageError::FooterCorrupt { detail }) => {
            assert!(detail.contains("checksum"), "{detail}")
        }
        other => panic!("{:?}", other.err()),
    }
}

#[test]
fn truncated_v2_copies_are_rejected_at_every_length() {
    let path = healthy("cuttable-v2.seg");
    let bytes = std::fs::read(&path).unwrap();
    let cut_path = temp_path("cut-v2.seg");
    for cut in [
        9,
        100,
        bytes.len() / 2,
        bytes.len() - 25,
        bytes.len() - 24,
        bytes.len() - 1,
    ] {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let err = open(&cut_path).expect_err(&format!("cut at {cut} must not open"));
        assert!(
            matches!(
                err,
                StorageError::Truncated { .. }
                    | StorageError::FooterCorrupt { .. }
                    | StorageError::BadMagic
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    std::fs::write(&cut_path, &bytes).unwrap();
    open(&cut_path).unwrap();
}

/// Writes a segment file of `blocks` (data region, then table region)
/// sealed by `footer`: header, blocks, footer bytes, trailer.
fn seal(name: &str, blocks: &[Vec<u8>], footer: &[u8]) -> PathBuf {
    let mut file = Vec::new();
    file.extend_from_slice(&HEADER_MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for block in blocks {
        file.extend_from_slice(block);
    }
    let footer_offset = file.len() as u64;
    file.extend_from_slice(footer);
    file.extend_from_slice(&footer_offset.to_le_bytes());
    file.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    file.extend_from_slice(&TRAILER_MAGIC);
    let path = temp_path(name);
    std::fs::write(&path, file).unwrap();
    path
}

/// Hand-builds a segment of `entries` (in data order) in 64-byte blocks,
/// with `dict` as its grade dictionary, whose blocks carry *correct*
/// checksums and are encoded as the writer encodes them (a table block
/// over `fence..fence + count` is its grade column alone). `tamper` may damage the encoded
/// blocks and/or the footer before the checksums and block lengths are
/// (re)derived from the final block bytes and the footer is sealed — so a
/// tampered block or footer still passes its checksum and only deep
/// verification can reject it.
fn forge(
    name: &str,
    entries: &[GradedEntry],
    dict: Option<Vec<u64>>,
    tamper: impl FnOnce(&mut Vec<Vec<u8>>, &mut Vec<Vec<u8>>, &mut Footer),
) -> PathBuf {
    let block_size = 64;
    let per_block = block_size / ENTRY_LEN;
    let mut by_id = entries.to_vec();
    by_id.sort_by_key(|e| e.object);
    let mut footer = Footer {
        block_size,
        num_entries: entries.len() as u64,
        table_first_ids: by_id
            .chunks(per_block)
            .map(|chunk| chunk[0].object.0)
            .collect(),
        grade_dict: dict.unwrap_or_default(),
        ..Footer::default()
    };
    let encode_region = |region: &[GradedEntry], kind: RegionKind| -> Vec<Vec<u8>> {
        region
            .chunks(per_block)
            .enumerate()
            .map(|(i, chunk)| encode_block(chunk, footer.encoding(kind, i)))
            .collect()
    };
    let mut data_blocks = encode_region(entries, RegionKind::Data);
    let mut table_blocks = encode_region(&by_id, RegionKind::Table);
    tamper(&mut data_blocks, &mut table_blocks, &mut footer);
    footer.data_checksums = data_blocks.iter().map(|b| checksum(b)).collect();
    footer.table_checksums = table_blocks.iter().map(|b| checksum(b)).collect();
    footer.data_block_lens = data_blocks.iter().map(|b| b.len() as u64).collect();
    footer.table_block_lens = table_blocks.iter().map(|b| b.len() as u64).collect();
    data_blocks.extend(table_blocks);
    seal(name, &data_blocks, &footer.encode())
}

/// A forged footer's lie is caught by the checks behind its checksum, not
/// by the checksum itself: the forge sealed it right.
fn assert_footer_lie_caught(path: &PathBuf) {
    match open(path) {
        Err(StorageError::FooterCorrupt { detail }) => {
            assert!(!detail.contains("checksum"), "{detail}");
        }
        other => panic!("expected FooterCorrupt, got {:?}", other.err()),
    }
}

/// Entries from `(object, grade)` pairs, in the order given.
fn graded(pairs: &[(u64, f64)]) -> Vec<GradedEntry> {
    pairs
        .iter()
        .map(|&(object, grade)| GradedEntry::new(object, Grade::new(grade).unwrap()))
        .collect()
}

/// Objects `0..n` graded `(n + i) / 2n`, in data order: distinct grades,
/// the highest on the largest id.
fn ladder(n: u64) -> Vec<GradedEntry> {
    ladder_over(&(0..n).collect::<Vec<_>>())
}

/// Objects `ids` (ascending), the `i`-th graded `(n + i) / 2n`, in data
/// order: distinct grades, the highest on the largest id.
fn ladder_over(ids: &[u64]) -> Vec<GradedEntry> {
    let n = ids.len();
    ids.iter()
        .enumerate()
        .rev()
        .map(|(i, &id)| GradedEntry::new(id, Grade::new((n + i) as f64 / (2 * n) as f64).unwrap()))
        .collect()
}

/// Seven objects in two table blocks of 64 bytes: the first, `0, 1, 2,
/// 4`, has a gap (the next fence is 5), so it keeps its id run although
/// it is not the last block.
fn gapped() -> Vec<GradedEntry> {
    ladder_over(&[0, 1, 2, 4, 5, 6, 8])
}

/// Four objects with a gap, `0, 1, 2, 4`, in one block per region: the
/// last table block keeps its id run because of the gap alone.
fn gapped_last() -> Vec<GradedEntry> {
    ladder_over(&[0, 1, 2, 4])
}

/// Four entries in one block per region: objects 3, 2, 1, 0 graded 0.875,
/// 0.75, 0.625, 0.5.
fn forge_entries() -> Vec<GradedEntry> {
    ladder(4)
}

/// The sorted dictionary of `entries`' grades.
fn dict_of(entries: &[GradedEntry]) -> Vec<u64> {
    let mut dict: Vec<u64> = entries.iter().map(|e| e.grade.value().to_bits()).collect();
    dict.sort_unstable();
    dict.dedup();
    dict
}

/// The sorted dictionary of [`forge_entries`]' four grades.
fn forge_dict() -> Vec<u64> {
    dict_of(&forge_entries())
}

/// A grade outside `[0, 1]` is a corrupt block wherever grade bits are
/// stored whole: a data block's first grade, or a table block's cell when
/// there is no dictionary.
#[test]
fn out_of_range_grade_is_corrupt_block() {
    let path = forge("bad-grade.seg", &forge_entries(), None, |data, _, _| {
        // Behind the first id's one-byte varint.
        data[0][1..9].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
    let path = forge("bad-cell.seg", &forge_entries(), None, |_, table, _| {
        let n = table[0].len();
        table[0][n - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 1, .. })
    ));
}

#[test]
fn broken_sort_order_is_corrupt_block() {
    // Two grades swapped in the data region: checksums fine, fences fine,
    // order broken. (Dictionary indices can store any order.)
    let dict = forge_dict();
    let path = forge(
        "bad-order.seg",
        &forge_entries(),
        Some(dict.clone()),
        |data, _, _| {
            let swapped = graded(&[(3, 0.875), (1, 0.625), (2, 0.75), (0, 0.5)]);
            data[0] = encode_block(&swapped, Encoding::Dict(&dict));
        },
    );
    match open(&path) {
        Err(StorageError::CorruptBlock { block: 0, detail }) => {
            assert!(detail.contains("skeleton order"), "{detail}");
        }
        other => panic!("{:?}", other.err()),
    }
}

#[test]
fn broken_tie_order_is_corrupt_block() {
    // Equal grades must ascend by object id — the skeleton is part of the
    // format, not a reader courtesy.
    let ties = graded(&[(0, 0.5), (1, 0.5), (2, 0.5)]);
    let path = forge("bad-ties.seg", &ties, None, |data, _, _| {
        let unordered = graded(&[(2, 0.5), (0, 0.5), (1, 0.5)]);
        data[0] = encode_block(&unordered, Encoding::Delta);
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn duplicate_object_in_table_is_corrupt_block() {
    // Within a block: a zero id delta in the id run.
    let path = forge("dup-table.seg", &forge_entries(), None, |_, table, _| {
        let twice = graded(&[(0, 0.5), (1, 0.625), (1, 0.75), (3, 0.875)]);
        table[0] = encode_block(&twice, Encoding::Column(&[], 0));
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 1, .. })
    ));
    // Across blocks: the first table block (file block 2, gapped) runs on
    // to object 5, where the second one's fence starts it again.
    let path = forge("dup-across.seg", &gapped(), None, |_, table, _| {
        let past_fence = graded(&[(0, 0.5), (1, 8.0 / 14.0), (2, 9.0 / 14.0), (5, 11.0 / 14.0)]);
        table[0] = encode_block(&past_fence, Encoding::Column(&[], 0));
    });
    match open(&path) {
        Err(StorageError::CorruptBlock { block: 3, detail }) => {
            assert!(detail.contains("ascending object order"), "{detail}");
        }
        other => panic!("{:?}", other.err()),
    }
}

/// A fence that is not its block's first stored id. Only a block with an
/// id run stores that id; a dense block's ids count from its fence, so a
/// moved fence there is the shape change the `forged_fences_…` test
/// covers.
#[test]
fn lying_fence_id_is_footer_corrupt() {
    let path = forge("lying-fence.seg", &gapped_last(), None, |_, _, f| {
        f.table_first_ids[0] += 1
    });
    assert_footer_lie_caught(&path);
}

#[test]
fn divergent_regions_are_a_typed_error() {
    // Each region is internally flawless — valid checksums, valid grades,
    // correct sort order, correct fences — but they disagree on which
    // objects exist. Only the cross-region digest catches this.
    let path = forge(
        "divergent-objects.seg",
        &forge_entries(),
        None,
        |_, t, _| {
            let other = graded(&[(0, 0.5), (1, 0.625), (2, 0.75), (4, 0.875)]);
            t[0] = encode_block(&other, Encoding::Column(&[], 0));
        },
    );
    assert!(matches!(open(&path), Err(StorageError::RegionMismatch)));

    // Same objects, one divergent grade: random access would lie.
    let path = forge("divergent-grades.seg", &forge_entries(), None, |_, t, _| {
        let other = graded(&[(0, 0.5), (1, 0.25), (2, 0.75), (3, 0.875)]);
        t[0] = encode_block(&other, Encoding::Column(&[], 0));
    });
    assert!(matches!(open(&path), Err(StorageError::RegionMismatch)));
}

#[test]
fn forged_huge_block_size_is_a_typed_error() {
    // A self-consistent footer claiming block_size = 2^62 (a multiple of
    // 16, fits in u64) with one block per region: before geometry
    // hardening this overflowed the region arithmetic (panic in debug,
    // wrap + multi-EiB allocation in release). It must be a typed error.
    let footer = Footer {
        block_size: 1usize << 62,
        num_entries: 1,
        data_checksums: vec![0],
        table_checksums: vec![0],
        table_first_ids: vec![0],
        data_block_lens: vec![1 << 62],
        table_block_lens: vec![1 << 62],
        grade_dict: vec![],
    };
    let path = seal("huge-block.seg", &[], &footer.encode());
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

/// Replaces the footer of the segment at `path` with `footer` and seals
/// the file around it again.
fn reseal(path: &PathBuf, footer: &[u8]) {
    let bytes = std::fs::read(path).unwrap();
    let at = footer_offset(&bytes);
    let mut file = bytes[..at].to_vec();
    file.extend_from_slice(footer);
    file.extend_from_slice(&(at as u64).to_le_bytes());
    file.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    file.extend_from_slice(&TRAILER_MAGIC);
    std::fs::write(path, file).unwrap();
}

/// Every check of the footer at open, on a sound two-block dictionary-mode
/// segment whose footer is re-sealed with one lie: each is a typed
/// `FooterCorrupt` naming what disagreed, never a checksum mismatch.
#[test]
fn every_footer_check_is_a_typed_error_at_open() {
    type Lie = (&'static str, fn(&mut Footer));
    let lies: [Lie; 10] = [
        ("invalid block size", |f| f.block_size = 100),
        ("exceeds the", |f| {
            f.grade_dict = (0..=GRADE_DICT_MAX as u64).collect()
        }),
        // One block per entry, five lists of them: past `u64`.
        ("block counts overflow", |f| {
            f.block_size = ENTRY_LEN;
            f.num_entries = u64::MAX;
        }),
        ("7 entries in 2 blocks per region", |f| {
            f.table_first_ids.push(9)
        }),
        ("15 entries in 4 blocks per region", |f| f.num_entries += 8),
        ("fence ids not strictly ascending", |f| {
            f.table_first_ids.swap(0, 1)
        }),
        ("block length 0 out of range", |f| f.data_block_lens[0] = 0),
        ("blocks end at", |f| f.table_block_lens[1] += 1),
        ("dictionary not strictly ascending", |f| {
            f.grade_dict.swap(0, 1)
        }),
        ("outside [0, 1]", |f| f.grade_dict[6] = 2f64.to_bits()),
    ];
    let entries = ladder(7);
    for (what, lie) in lies {
        let path = forge(
            "footer-lie.seg",
            &entries,
            Some(dict_of(&entries)),
            |_, _, _| {},
        );
        let bytes = std::fs::read(&path).unwrap();
        let mut footer = footer_of(&bytes);
        lie(&mut footer);
        reseal(&path, &footer.encode());
        match open(&path) {
            Err(StorageError::FooterCorrupt { detail }) => {
                assert!(detail.contains(what), "{what}: {detail}");
            }
            other => panic!("{what}: {:?}", other.err()),
        }
    }
    // A footer too short to hold its scalars and checksum.
    let path = forge("footer-short.seg", &entries, None, |_, _, _| {});
    reseal(&path, &[0; 16]);
    assert_footer_lie_caught(&path);
}

#[test]
fn oversized_block_size_is_rejected_writer_side() {
    use garlic_storage::format::MAX_BLOCK_SIZE;
    assert!(SegmentWriter::with_block_size(MAX_BLOCK_SIZE).is_ok());
    assert!(matches!(
        SegmentWriter::with_block_size(MAX_BLOCK_SIZE + 16),
        Err(StorageError::InvalidBlockSize { .. })
    ));
}

#[test]
fn untampered_v2_forgery_opens() {
    // The forge itself must be sound, or the negative tests prove nothing:
    // one block, a dense first block, a gapped first block.
    for (name, entries) in [
        ("ok.seg", forge_entries()),
        ("ok-7.seg", ladder(7)),
        ("ok-gapped.seg", gapped()),
    ] {
        let path = forge(name, &entries, None, |_, _, _| {});
        open(&path).unwrap();
        let dict = Some(dict_of(&entries));
        let path = forge(name, &entries, dict, |_, _, _| {});
        open(&path).unwrap();
    }
}

#[test]
fn mid_varint_truncation_with_valid_checksum_is_corrupt_block() {
    // Cut the last byte of the first data block and recompute its checksum:
    // only the varint-frame decode can notice the damage.
    let path = forge("cut.seg", &forge_entries(), None, |data, _, _| {
        data[0].pop();
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn trailing_block_bytes_with_valid_checksum_are_corrupt_block() {
    let path = forge("trail.seg", &forge_entries(), None, |data, _, _| {
        data[0].push(0x7f);
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn dictionary_index_out_of_range_is_corrupt_block() {
    // Encode against a 4-grade dictionary, then shrink the footer's copy:
    // surviving indices point past its end.
    let path = forge(
        "dict.seg",
        &forge_entries(),
        Some(forge_dict()),
        |_, _, footer| {
            footer.grade_dict.truncate(2);
        },
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { .. })
    ));
}

/// Table blocks that keep an id run, both gapped: the last block of a
/// one-block segment (file block 1), and a block that is not the last
/// (file block 2), each with its index in the table region.
fn id_run_blocks() -> [(Vec<GradedEntry>, usize, u64); 2] {
    [(gapped_last(), 0, 1), (gapped(), 0, 2)]
}

/// A table block is its id run followed by its grade column, the column
/// being the block's last `count × width` bytes. A block that lost bytes
/// from its end leaves a column too short to leave the id run whole, or
/// too short to be a column at all: each is a typed error at open, with
/// and without a dictionary, in a last block and in a gapped one.
#[test]
fn short_v4_grade_column_is_corrupt_block() {
    for (entries, index, file_block) in id_run_blocks() {
        for dict in [None, Some(dict_of(&entries))] {
            for keep in [|len: usize| len - 1, |_: usize| 3] {
                let path = forge("short-column.seg", &entries, dict.clone(), |_, table, _| {
                    let len = keep(table[index].len());
                    table[index].truncate(len);
                });
                let result = open(&path);
                assert!(
                    matches!(result, Err(StorageError::CorruptBlock { block, .. }) if block == file_block),
                    "block {file_block} dict {}: {:?}",
                    dict.is_some(),
                    result.err()
                );
            }
        }
    }
}

/// An id varint that runs on into the grade column (its continuation bit
/// set) is a truncated id run, not a grade read as an id — in a last block
/// and in a gapped one.
#[test]
fn v4_id_run_into_the_grade_column_is_corrupt_block() {
    for (entries, index, file_block) in id_run_blocks() {
        for dict in [None, Some(dict_of(&entries))] {
            let width = cell_width(dict.as_ref().map_or(0, Vec::len));
            let path = forge("id-run.seg", &entries, dict.clone(), |_, table, _| {
                let ids_end = table[index].len() - 4 * width;
                table[index][ids_end - 1] |= 0x80;
            });
            match open(&path) {
                Err(StorageError::CorruptBlock { block, detail }) if block == file_block => {
                    assert!(detail.contains("id varint truncated"), "{detail}");
                }
                other => panic!(
                    "block {file_block} dict {}: {:?}",
                    dict.is_some(),
                    other.err()
                ),
            }
        }
    }
}

/// A dense table block is its grade column alone, exactly `count ×
/// width` bytes: one byte more or one byte less, its checksum resealed,
/// is a typed error at open, with and without a dictionary.
#[test]
fn dense_block_one_byte_long_or_short_is_corrupt_block() {
    let entries = ladder(8);
    for dict in [None, Some(dict_of(&entries))] {
        let width = cell_width(dict.as_ref().map_or(0, Vec::len));
        for (what, tweak) in [
            (
                "long",
                (|block: &mut Vec<u8>| block.push(0)) as fn(&mut Vec<u8>),
            ),
            ("short", |block| {
                block.pop();
            }),
            ("long in front", |block| block.insert(0, 0)),
        ] {
            let path = forge("dense-length.seg", &entries, dict.clone(), |_, table, _| {
                assert_eq!(table[0].len(), 4 * width, "block 0 is dense");
                tweak(&mut table[0]);
            });
            let result = open(&path);
            assert!(
                matches!(result, Err(StorageError::CorruptBlock { block: 2, .. })),
                "{what}, dict {}: {:?}",
                dict.is_some(),
                result.err()
            );
        }
    }
}

/// A table block is dense exactly when it stores no id run, and a dense
/// block's ids count from its fence. A gapped block with its id run
/// stripped, and a dense block under a moved fence, each read as ids the
/// block does not hold: every one is a typed error at open, with and
/// without a dictionary, never a panic or a wrong grade.
#[test]
fn forged_fences_that_change_a_blocks_shape_are_typed_errors() {
    let typed = |path: &PathBuf, what: &str| match open(path) {
        Err(
            StorageError::CorruptBlock { .. }
            | StorageError::RegionMismatch
            | StorageError::FooterCorrupt { .. },
        ) => {}
        other => panic!("{what}: {:?}", other.err()),
    };
    for dict in [None, Some(dict_of(&gapped()))] {
        let width = cell_width(dict.as_ref().map_or(0, Vec::len));
        // `gapped()`'s first block holds 0, 1, 2, 4: as its column alone it
        // reads 0..4, which the cross-region digest refuses.
        let path = forge("stripped.seg", &gapped(), dict, |_, table, _| {
            let id_run = table[0].len() - 4 * width;
            assert!(id_run > 0, "block 0 is gapped");
            table[0].drain(..id_run);
        });
        typed(&path, "gapped block without its id run");
    }
    // `ladder(8)`'s two blocks hold 0..4 and 4..8 and are stored dense.
    // Each moved fence shifts a block's ids onto its neighbour's or past
    // what the data region holds.
    for dict in [None, Some(dict_of(&ladder(8)))] {
        let width = cell_width(dict.as_ref().map_or(0, Vec::len));
        for (block, fence) in [(0, 1), (1, 3), (1, 5)] {
            let path = forge(
                "moved-fence.seg",
                &ladder(8),
                dict.clone(),
                |_, table, f| {
                    assert!(table.iter().all(|b| b.len() == 4 * width), "dense");
                    f.table_first_ids[block] = fence;
                },
            );
            typed(&path, &format!("block {block} fenced at {fence}"));
        }
    }
}

/// A 1-byte dictionary cell naming an entry past the footer's dictionary
/// is a typed error at open, naming the table block.
#[test]
fn v4_dictionary_cell_past_the_dictionary_is_corrupt_block() {
    let dict = forge_dict();
    let path = forge(
        "cell.seg",
        &forge_entries(),
        Some(dict.clone()),
        |_, table, _| {
            let last = table[0].len() - 1;
            table[0][last] = dict.len() as u8;
        },
    );
    match open(&path) {
        Err(StorageError::CorruptBlock { block: 1, detail }) => {
            assert!(detail.contains("past the dictionary"), "{detail}");
        }
        other => panic!("{:?}", other.err()),
    }
}

#[test]
fn v2_region_divergence_is_detected() {
    // Replace the table region with one that swaps a grade: every block
    // checksum is valid, both orders hold — only the cross-region digest
    // of canonical entry slots catches it.
    let path = forge("diverge.seg", &forge_entries(), None, |_, table, _| {
        let mut by_id = forge_entries();
        by_id.sort_by_key(|e| e.object);
        by_id[1].grade = Grade::new(0.3125).unwrap();
        *table = vec![encode_block(&by_id, Encoding::Column(&[], 0))];
    });
    assert!(matches!(open(&path), Err(StorageError::RegionMismatch)));
}

#[test]
fn swapped_region_order_is_detected() {
    // A writer bug that stored the table region first would present an
    // id run and a grade column as the sorted stream — caught at open.
    let path = forge("swapped.seg", &forge_entries(), None, |data, table, _| {
        std::mem::swap(data, table);
    });
    assert!(open(&path).is_err());
}

/// `open` verified the file; then a table block changes underneath it. The
/// restart index was built from the bytes `open` saw, so a read that
/// resumed inside the changed block without re-checking it could decode a
/// plausible wrong grade. It cannot: every cache miss re-verifies the
/// block's checksum before any decoder sees it, whichever byte changed —
/// in front of the first restart, behind the last, or the byte a restart
/// points at. Every probe is answered with the true grade or a typed
/// error, and the probes of the changed block get the error.
#[test]
fn v2_table_block_mutated_after_open_is_a_typed_error_never_a_wrong_grade() {
    use garlic_core::access::GradedSource;
    use garlic_core::ObjectId;

    let grades: Vec<Grade> = (0..300u64)
        .map(|i| Grade::clamped((i * 7 % 300) as f64 / 300.0))
        .collect();
    let path = temp_path("mutated-after-open.seg");
    // 100 entries per block: three restarts in each of the three blocks.
    SegmentWriter::with_block_size(1600)
        .unwrap()
        .write_grades(&path, &grades)
        .unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let footer_at = footer_offset(&pristine);
    let footer = footer_of(&pristine);
    let table_at = 8 + footer.data_block_lens.iter().sum::<u64>() as usize;

    for at in (table_at..footer_at).step_by(29) {
        std::fs::write(&path, &pristine).unwrap();
        let seg = open(&path).unwrap();
        let mut damaged = pristine.clone();
        damaged[at] ^= 0x04;
        std::fs::write(&path, damaged).unwrap();

        let mut typed = 0;
        for (id, &grade) in grades.iter().enumerate() {
            let mut out = Vec::new();
            match seg.try_random_batch(&[ObjectId(id as u64)], &mut out) {
                Ok(()) => assert_eq!(out, [Some(grade)], "byte {at}, object {id}"),
                Err(e) => {
                    typed += 1;
                    assert!(out.is_empty(), "byte {at}: partial answer beside {e}");
                }
            }
        }
        assert!(typed >= 100, "byte {at}: the changed block answered");
    }
}
