//! Corruption and truncation regression suite: every way a segment file
//! can be damaged must surface as a **typed** [`StorageError`] at open —
//! never a panic, never a silently wrong graded list. These are the
//! durability guarantees the README documents.

use std::path::PathBuf;
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::GradedEntry;
use garlic_storage::format::{
    encode_block_v2, encode_entry, fnv1a64, Footer, FooterV2, RegionKind, ENTRY_LEN, FORMAT_V1,
    FORMAT_VERSION, HEADER_MAGIC, TRAILER_MAGIC,
};
use garlic_storage::{BlockCache, SegmentSource, SegmentWriter, StorageError};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("garlic-storage-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A healthy multi-block segment (current format, v2) to damage.
fn healthy(name: &str) -> PathBuf {
    let path = temp_path(name);
    let grades: Vec<Grade> = (0..64).map(|i| Grade::clamped(i as f64 / 64.0)).collect();
    SegmentWriter::with_block_size(64)
        .unwrap()
        .write_grades(&path, &grades)
        .unwrap();
    path
}

/// The same segment in the legacy v1 layout, whose fixed-slot geometry the
/// byte-offset tests below rely on.
fn healthy_v1(name: &str) -> PathBuf {
    let path = temp_path(name);
    let grades: Vec<Grade> = (0..64).map(|i| Grade::clamped(i as f64 / 64.0)).collect();
    SegmentWriter::with_block_size(64)
        .unwrap()
        .with_version(FORMAT_V1)
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

#[test]
fn future_version_is_unsupported_and_names_both_sides() {
    let path = healthy("future.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let err = open(&path).unwrap_err();
    assert!(matches!(
        err,
        StorageError::UnsupportedVersion {
            found: 99,
            oldest_supported: FORMAT_V1,
            newest_supported: FORMAT_VERSION,
        }
    ));
    // The operator must learn both the file's version and what this build
    // reads, without digging through source.
    let message = format!("{err}");
    assert!(message.contains("99"), "{message}");
    assert!(
        message.contains(&format!("{FORMAT_V1} through {FORMAT_VERSION}")),
        "{message}"
    );
}

#[test]
fn ancient_version_is_unsupported() {
    let path = healthy("ancient.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::UnsupportedVersion { found: 0, .. })
    ));
}

#[test]
fn cross_version_opens_work_both_ways() {
    // A v1 file opens in a v2-default build; a v2 file written by the
    // default writer opens too. Compatibility is part of the format.
    let v1 = healthy_v1("cross-v1.seg");
    let v2 = healthy("cross-v2.seg");
    assert_eq!(open(&v1).unwrap().version(), FORMAT_V1);
    assert_eq!(open(&v2).unwrap().version(), FORMAT_VERSION);
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
    let path = healthy_v1("bitrot-data.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    // First data block starts at byte 8.
    bytes[8 + 17] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::ChecksumMismatch { block: 0 })
    ));
}

#[test]
fn flipped_table_block_bit_is_a_checksum_mismatch() {
    let path = healthy_v1("bitrot-table.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    // 64 entries in 64-byte blocks (4 entries each) = 16 data blocks; the
    // table region starts at block 16.
    bytes[8 + 16 * 64 + 3] ^= 0x80;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::ChecksumMismatch { block: 16 })
    ));
}

#[test]
fn flipped_footer_bit_is_footer_corrupt() {
    let path = healthy_v1("bitrot-footer.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    let footer_offset = 8 + 32 * 64;
    bytes[footer_offset + 10] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

#[test]
fn flipped_v2_data_block_bit_is_a_checksum_mismatch() {
    // v2 blocks are variable-length, but the first one still starts right
    // after the header.
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
    // block (block 31 here: 16 data + 16 table).
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
    let path = healthy("bitrot-v2-footer.seg");
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

/// Hand-builds a version-1 segment whose blocks carry *correct* checksums
/// over *bad* content — the case only deep verification catches.
fn forge(name: &str, entries: &[(u64, f64)], table: &[(u64, f64)], footer: Footer) -> PathBuf {
    let block_size = footer.block_size;
    let mut file = Vec::new();
    file.extend_from_slice(&HEADER_MAGIC);
    file.extend_from_slice(&FORMAT_V1.to_le_bytes());
    let mut write_block = |pairs: &[(u64, f64)]| -> u64 {
        let mut block = vec![0u8; block_size];
        for (i, &(object, value)) in pairs.iter().enumerate() {
            // encode_entry goes through Grade, which rejects bad values;
            // forge raw bits instead when the grade is invalid.
            if let Ok(grade) = Grade::new(value) {
                encode_entry(
                    &mut block[i * ENTRY_LEN..(i + 1) * ENTRY_LEN],
                    GradedEntry::new(object, grade),
                );
            } else {
                block[i * ENTRY_LEN..i * ENTRY_LEN + 8].copy_from_slice(&object.to_le_bytes());
                block[i * ENTRY_LEN + 8..(i + 1) * ENTRY_LEN]
                    .copy_from_slice(&value.to_bits().to_le_bytes());
            }
        }
        let checksum = fnv1a64(&block);
        file.extend_from_slice(&block);
        checksum
    };
    let data_checksum = write_block(entries);
    let table_checksum = write_block(table);
    let footer = Footer {
        data_checksums: vec![data_checksum],
        table_checksums: vec![table_checksum],
        ..footer
    };
    let footer_bytes = footer.encode();
    let footer_offset = file.len() as u64;
    file.extend_from_slice(&footer_bytes);
    file.extend_from_slice(&footer_offset.to_le_bytes());
    file.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    file.extend_from_slice(&TRAILER_MAGIC);
    let path = temp_path(name);
    std::fs::write(&path, file).unwrap();
    path
}

fn footer_skeleton() -> Footer {
    Footer {
        flags: 0,
        block_size: 64,
        num_entries: 3,
        ones: 0,
        data_blocks: 1,
        table_blocks: 1,
        data_checksums: vec![],
        table_checksums: vec![],
        table_first_ids: vec![0],
    }
}

#[test]
fn out_of_range_grade_is_corrupt_block() {
    let path = forge(
        "bad-grade.seg",
        &[(0, 2.0), (1, 0.5), (2, 0.1)],
        &[(0, 2.0), (1, 0.5), (2, 0.1)],
        footer_skeleton(),
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn broken_sort_order_is_corrupt_block() {
    // Grades ascend in the data region: checksums fine, order broken.
    let path = forge(
        "bad-order.seg",
        &[(0, 0.1), (1, 0.5), (2, 0.9)],
        &[(0, 0.1), (1, 0.5), (2, 0.9)],
        footer_skeleton(),
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn broken_tie_order_is_corrupt_block() {
    // Equal grades must ascend by object id — the skeleton is part of the
    // format, not a reader courtesy.
    let path = forge(
        "bad-ties.seg",
        &[(2, 0.5), (0, 0.5), (1, 0.5)],
        &[(0, 0.5), (1, 0.5), (2, 0.5)],
        footer_skeleton(),
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn duplicate_object_in_table_is_corrupt_block() {
    let path = forge(
        "dup-table.seg",
        &[(0, 0.9), (1, 0.5), (1, 0.1)],
        &[(0, 0.9), (1, 0.5), (1, 0.1)],
        footer_skeleton(),
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 1, .. })
    ));
}

#[test]
fn lying_match_count_is_footer_corrupt() {
    let path = forge(
        "lying-ones.seg",
        &[(0, 0.9), (1, 0.5), (2, 0.1)],
        &[(0, 0.9), (1, 0.5), (2, 0.1)],
        Footer {
            ones: 2, // data region has zero grade-1 entries
            ..footer_skeleton()
        },
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

#[test]
fn lying_crisp_flag_is_footer_corrupt() {
    let path = forge(
        "lying-crisp.seg",
        &[(0, 0.9), (1, 0.5), (2, 0.1)],
        &[(0, 0.9), (1, 0.5), (2, 0.1)],
        Footer {
            flags: garlic_storage::format::FLAG_CRISP,
            ..footer_skeleton()
        },
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

#[test]
fn lying_fence_id_is_footer_corrupt() {
    let path = forge(
        "lying-fence.seg",
        &[(1, 0.9), (2, 0.5), (3, 0.1)],
        &[(1, 0.9), (2, 0.5), (3, 0.1)],
        Footer {
            table_first_ids: vec![0], // table actually starts at object 1
            ..footer_skeleton()
        },
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

#[test]
fn divergent_regions_are_a_typed_error() {
    // Each region is internally flawless — valid checksums, valid grades,
    // correct sort order, correct fences — but they disagree on which
    // objects exist. Only the cross-region digest catches this.
    let path = forge(
        "divergent-objects.seg",
        &[(0, 0.9), (1, 0.5), (2, 0.1)],
        &[(0, 0.9), (1, 0.5), (3, 0.1)],
        footer_skeleton(),
    );
    assert!(matches!(open(&path), Err(StorageError::RegionMismatch)));

    // Same objects, one divergent grade: random access would lie.
    let path = forge(
        "divergent-grades.seg",
        &[(0, 0.9), (1, 0.5), (2, 0.1)],
        &[(0, 0.9), (1, 0.25), (2, 0.1)],
        footer_skeleton(),
    );
    assert!(matches!(open(&path), Err(StorageError::RegionMismatch)));
}

#[test]
fn forged_huge_block_size_is_a_typed_error() {
    // A self-consistent footer claiming block_size = 2^62 (a multiple of
    // 16, fits in u64) with one block per region: before geometry
    // hardening this overflowed the region arithmetic (panic in debug,
    // wrap + multi-EiB allocation in release). It must be a typed error.
    let footer = Footer {
        flags: 0,
        block_size: 1usize << 62,
        num_entries: 1,
        ones: 0,
        data_blocks: 1,
        table_blocks: 1,
        data_checksums: vec![0],
        table_checksums: vec![0],
        table_first_ids: vec![0],
    };
    let footer_bytes = footer.encode();
    let mut file = Vec::new();
    file.extend_from_slice(&HEADER_MAGIC);
    file.extend_from_slice(&FORMAT_V1.to_le_bytes());
    let footer_offset = file.len() as u64;
    file.extend_from_slice(&footer_bytes);
    file.extend_from_slice(&footer_offset.to_le_bytes());
    file.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    file.extend_from_slice(&TRAILER_MAGIC);
    let path = temp_path("huge-block.seg");
    std::fs::write(&path, file).unwrap();
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
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

/// Hand-builds a v2 segment whose blocks carry *correct* checksums, then
/// lets `tamper` damage the encoded blocks and/or footer before the
/// checksums and block lengths are (re)derived from the final block bytes —
/// so a tampered block still passes its checksum and only deep varint
/// verification can reject it.
fn forge_v2(
    name: &str,
    entries: &[GradedEntry],
    dict: Option<Vec<u64>>,
    tamper: impl FnOnce(&mut Vec<Vec<u8>>, &mut Vec<Vec<u8>>, &mut FooterV2),
) -> PathBuf {
    use garlic_storage::format::FLAG_GRADE_DICT;
    let block_size = 64;
    let per_block = block_size / ENTRY_LEN;
    let mut by_id = entries.to_vec();
    by_id.sort_by_key(|e| e.object);
    let encode_region = |region: &[GradedEntry], kind: RegionKind| -> Vec<Vec<u8>> {
        region
            .chunks(per_block)
            .map(|chunk| encode_block_v2(chunk, kind, dict.as_deref()))
            .collect()
    };
    let mut data_blocks = encode_region(entries, RegionKind::Data);
    let mut table_blocks = encode_region(&by_id, RegionKind::Table);
    let mut footer = FooterV2 {
        flags: if dict.is_some() { FLAG_GRADE_DICT } else { 0 },
        block_size,
        num_entries: entries.len() as u64,
        ones: entries.iter().filter(|e| e.grade == Grade::ONE).count() as u64,
        data_blocks: data_blocks.len() as u64,
        table_blocks: table_blocks.len() as u64,
        data_checksums: vec![],
        table_checksums: vec![],
        table_first_ids: by_id
            .chunks(per_block)
            .map(|chunk| chunk[0].object.0)
            .collect(),
        data_block_lens: vec![],
        table_block_lens: vec![],
        grade_max_bits: entries
            .chunks(per_block)
            .map(|chunk| chunk[0].grade.value().to_bits())
            .collect(),
        grade_min_bits: entries
            .chunks(per_block)
            .map(|chunk| chunk[chunk.len() - 1].grade.value().to_bits())
            .collect(),
        grade_dict: dict.clone().unwrap_or_default(),
    };
    tamper(&mut data_blocks, &mut table_blocks, &mut footer);
    footer.data_checksums = data_blocks.iter().map(|b| fnv1a64(b)).collect();
    footer.table_checksums = table_blocks.iter().map(|b| fnv1a64(b)).collect();
    footer.data_block_lens = data_blocks.iter().map(|b| b.len() as u64).collect();
    footer.table_block_lens = table_blocks.iter().map(|b| b.len() as u64).collect();

    let mut file = Vec::new();
    file.extend_from_slice(&HEADER_MAGIC);
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    for block in data_blocks.iter().chain(&table_blocks) {
        file.extend_from_slice(block);
    }
    let footer_bytes = footer.encode();
    let footer_offset = file.len() as u64;
    file.extend_from_slice(&footer_bytes);
    file.extend_from_slice(&footer_offset.to_le_bytes());
    file.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    file.extend_from_slice(&TRAILER_MAGIC);
    let path = temp_path(name);
    std::fs::write(&path, file).unwrap();
    path
}

fn forge_entries() -> Vec<GradedEntry> {
    vec![
        GradedEntry::new(3u64, Grade::new(0.875).unwrap()),
        GradedEntry::new(2u64, Grade::new(0.75).unwrap()),
        GradedEntry::new(1u64, Grade::new(0.625).unwrap()),
        GradedEntry::new(0u64, Grade::new(0.5).unwrap()),
    ]
}

#[test]
fn untampered_v2_forgery_opens() {
    // The forge itself must be sound, or the negative tests prove nothing.
    let path = forge_v2("forge-v2-ok.seg", &forge_entries(), None, |_, _, _| {});
    open(&path).unwrap();
    let dict: Vec<u64> = forge_entries()
        .iter()
        .map(|e| e.grade.value().to_bits())
        .rev()
        .collect();
    let path = forge_v2(
        "forge-v2-ok-dict.seg",
        &forge_entries(),
        Some(dict),
        |_, _, _| {},
    );
    open(&path).unwrap();
}

#[test]
fn mid_varint_truncation_with_valid_checksum_is_corrupt_block() {
    // Cut the last byte of the first data block and recompute its checksum:
    // only the varint-frame decode can notice the damage.
    let path = forge_v2("forge-v2-cut.seg", &forge_entries(), None, |data, _, _| {
        data[0].pop();
    });
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn trailing_block_bytes_with_valid_checksum_are_corrupt_block() {
    let path = forge_v2(
        "forge-v2-trail.seg",
        &forge_entries(),
        None,
        |data, _, _| {
            data[0].push(0x7f);
        },
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { block: 0, .. })
    ));
}

#[test]
fn dictionary_index_out_of_range_is_corrupt_block() {
    // Encode against a 4-grade dictionary, then shrink the footer's copy:
    // surviving indices point past its end.
    let dict: Vec<u64> = forge_entries()
        .iter()
        .map(|e| e.grade.value().to_bits())
        .rev()
        .collect();
    let path = forge_v2(
        "forge-v2-dict.seg",
        &forge_entries(),
        Some(dict),
        |_, _, footer| {
            footer.grade_dict.truncate(2);
        },
    );
    assert!(matches!(
        open(&path),
        Err(StorageError::CorruptBlock { .. })
    ));
}

#[test]
fn lying_grade_fence_is_footer_corrupt() {
    // A fence claiming a higher max than the block holds would let a
    // threshold-hinted scan load (or bill) the wrong blocks; a fence
    // claiming a lower max would skip entries it must emit. Both lies are
    // self-consistent footers — only the open-time scan catches them.
    let raise_max = |_: &mut Vec<Vec<u8>>, _: &mut Vec<Vec<u8>>, footer: &mut FooterV2| {
        footer.grade_max_bits[0] = Grade::new(0.9375).unwrap().value().to_bits();
    };
    let path = forge_v2("forge-v2-fence-max.seg", &forge_entries(), None, raise_max);
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));

    let lower_min = |_: &mut Vec<Vec<u8>>, _: &mut Vec<Vec<u8>>, footer: &mut FooterV2| {
        footer.grade_min_bits[0] = Grade::new(0.25).unwrap().value().to_bits();
    };
    let path = forge_v2("forge-v2-fence-min.seg", &forge_entries(), None, lower_min);
    assert!(matches!(
        open(&path),
        Err(StorageError::FooterCorrupt { .. })
    ));
}

#[test]
fn v2_region_divergence_is_detected() {
    // Replace the table region with one that swaps a grade: every block
    // checksum is valid, both orders hold — only the cross-region digest
    // of canonical entry slots catches it.
    let path = forge_v2(
        "forge-v2-diverge.seg",
        &forge_entries(),
        None,
        |_, table, _| {
            let mut by_id = forge_entries();
            by_id.sort_by_key(|e| e.object);
            by_id[1].grade = Grade::new(0.3125).unwrap();
            *table = vec![encode_block_v2(&by_id, RegionKind::Table, None)];
        },
    );
    assert!(matches!(open(&path), Err(StorageError::RegionMismatch)));
}

#[test]
fn swapped_region_order_is_detected() {
    // A writer bug that stored the table region first would present an
    // ascending "data" region — caught as a corrupt block.
    let path = forge(
        "swapped.seg",
        &[(0, 0.1), (1, 0.5), (2, 0.9)],
        &[(2, 0.9), (1, 0.5), (0, 0.1)],
        footer_skeleton(),
    );
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
    let footer = FooterV2::parse(&pristine[footer_at..pristine.len() - 24]).unwrap();
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
