//! The write-ahead log: durability for the live write path.
//!
//! Every mutation of a [`crate::live::LiveSource`] is appended here —
//! checksummed and fsynced — *before* it touches the memtable, so a crash
//! at any instant loses nothing that was acknowledged. The log is the only
//! mutable file in the storage layer, and it is only ever mutated two
//! ways: appending a record at the end, and truncating a torn tail off
//! during recovery.
//!
//! # Record format
//!
//! The file starts with the 8-byte magic [`WAL_MAGIC`]; after that it is a
//! sequence of self-delimiting records, one per acknowledged append batch:
//!
//! ```text
//! [payload_len: u32 LE] [seq: u64 LE] [payload: payload_len bytes] [crc: u64 LE]
//! ```
//!
//! `crc` is [`fnv1a64`] over everything before it (length, sequence
//! number, and payload), and `seq` increments by one per record — a stale
//! or spliced record fails the sequence check even if its checksum holds.
//! The payload is a varint op count followed by the ops: tag byte `0`
//! (upsert: varint object id + 8 raw grade bits) or `1` (tombstone
//! delete: varint object id).
//!
//! # Fsync points and recovery rules
//!
//! [`Wal::append`] writes the record and calls `sync_data` before
//! returning — acknowledgement *is* durability. Creation syncs the header
//! and the containing directory. Recovery ([`Wal::open`]) replays records
//! from the front and stops at the first invalid one — short length,
//! checksum mismatch, wrong sequence number, or undecodable payload — then
//! truncates the file to that committed prefix. A damaged *header* is not
//! a crash artifact (the header is written and synced before the first
//! append is acknowledged), so it is a typed [`StorageError::WalCorrupt`],
//! never a silent empty log.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use garlic_agg::Grade;
use garlic_core::ObjectId;

use crate::error::StorageError;
use crate::format::{fnv1a64, read_varint, write_varint};
use crate::vfs::{Vfs, VfsFile};

/// The 8-byte file magic every WAL starts with.
pub const WAL_MAGIC: [u8; 8] = *b"GRLCWAL1";

/// Per-record framing overhead: length (4) + sequence (8) + checksum (8).
const RECORD_OVERHEAD: usize = 20;

/// The largest payload a reader will believe. Generous (a batch of a
/// million upserts fits), but small enough that a corrupted length field
/// cannot make recovery attempt a multi-gigabyte allocation.
const MAX_PAYLOAD: u32 = 64 << 20;

const TAG_UPSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// One logged mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp {
    /// Insert or overwrite one object's grade.
    Upsert {
        /// The object written.
        object: ObjectId,
        /// Its new grade.
        grade: Grade,
    },
    /// Tombstone: remove the object from the graded set.
    Delete {
        /// The object removed.
        object: ObjectId,
    },
}

impl WalOp {
    /// The object this op touches.
    pub fn object(&self) -> ObjectId {
        match *self {
            WalOp::Upsert { object, .. } | WalOp::Delete { object } => object,
        }
    }
}

/// An open, append-only write-ahead log (see the module docs for the
/// format, fsync, and recovery rules).
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Sequence number of the next record.
    next_seq: u64,
    /// Committed length in bytes — everything before this offset has been
    /// written and fsynced; the next record goes here.
    committed: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("committed", &self.committed)
            .finish()
    }
}

impl Wal {
    /// Creates a fresh, empty log at `path` through `vfs` (truncating
    /// anything there), writing and syncing the header — and the
    /// containing directory, so the file itself survives a crash.
    pub fn create(path: &Path, vfs: &Arc<dyn Vfs>) -> Result<Wal, StorageError> {
        let mut file = vfs.create(path)?;
        file.write_all(&WAL_MAGIC)?;
        file.sync_all()?;
        sync_parent_dir(vfs.as_ref(), path)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            next_seq: 1,
            committed: WAL_MAGIC.len() as u64,
        })
    }

    /// Opens the log at `path` through `vfs`, replaying every committed
    /// record into `ops` and truncating any torn tail (see the module docs
    /// for what counts as torn). After `open` the log is ready for appends.
    pub fn open(
        path: &Path,
        ops: &mut Vec<WalOp>,
        vfs: &Arc<dyn Vfs>,
    ) -> Result<Wal, StorageError> {
        let mut file = vfs.open_rw(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.is_empty() {
            // A crash between file creation and the header sync can leave
            // an empty file: re-initialise it as a fresh log.
            file.write_all(&WAL_MAGIC)?;
            file.sync_all()?;
            return Ok(Wal {
                file,
                path: path.to_path_buf(),
                next_seq: 1,
                committed: WAL_MAGIC.len() as u64,
            });
        }
        if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StorageError::WalCorrupt {
                detail: format!("bad header magic in {}", path.display()),
            });
        }
        let mut offset = WAL_MAGIC.len();
        let mut next_seq = 1u64;
        while let Some((record_ops, record_len)) = decode_record(&bytes[offset..], next_seq) {
            ops.extend(record_ops);
            offset += record_len;
            next_seq += 1;
        }
        if offset as u64 != bytes.len() as u64 {
            // Torn or corrupt tail: discard it so the next append lands
            // directly after the committed prefix.
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            next_seq,
            committed: offset as u64,
        })
    }

    /// Appends one record holding `ops` and fsyncs it — on return the
    /// batch is durable. An empty batch is a no-op.
    pub fn append(&mut self, ops: &[WalOp]) -> Result<(), StorageError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(ops.len() * 12);
        write_varint(&mut payload, ops.len() as u64);
        for op in ops {
            match *op {
                WalOp::Upsert { object, grade } => {
                    payload.push(TAG_UPSERT);
                    write_varint(&mut payload, object.0);
                    payload.extend_from_slice(&grade.value().to_bits().to_le_bytes());
                }
                WalOp::Delete { object } => {
                    payload.push(TAG_DELETE);
                    write_varint(&mut payload, object.0);
                }
            }
        }
        let mut record = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&self.next_seq.to_le_bytes());
        record.extend_from_slice(&payload);
        let crc = fnv1a64(&record);
        record.extend_from_slice(&crc.to_le_bytes());

        // Commit point: `committed`/`next_seq` advance only after the
        // sync, so a failed write or fsync leaves a torn tail the next
        // append (or recovery) simply overwrites.
        self.file.seek_to(self.committed)?;
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        self.committed += record.len() as u64;
        self.next_seq += 1;
        Ok(())
    }

    /// Committed bytes on disk — header plus every acknowledged record.
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Decodes one record from the front of `bytes`, validating framing,
/// checksum, sequence number, and payload. `None` means the record is torn
/// or corrupt and replay must stop here.
fn decode_record(bytes: &[u8], expected_seq: u64) -> Option<(Vec<WalOp>, usize)> {
    if bytes.len() < RECORD_OVERHEAD {
        return None;
    }
    let payload_len = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
    if payload_len > MAX_PAYLOAD as usize || bytes.len() < RECORD_OVERHEAD + payload_len {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
    if seq != expected_seq {
        return None;
    }
    let crc_offset = 12 + payload_len;
    let stored = u64::from_le_bytes(bytes[crc_offset..crc_offset + 8].try_into().ok()?);
    if fnv1a64(&bytes[..crc_offset]) != stored {
        return None;
    }
    let payload = &bytes[12..crc_offset];
    let mut off = 0usize;
    let count = read_varint(payload, &mut off)?;
    let mut ops = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let tag = *payload.get(off)?;
        off += 1;
        let object = ObjectId(read_varint(payload, &mut off)?);
        match tag {
            TAG_UPSERT => {
                let grade_bytes: [u8; 8] = payload.get(off..off + 8)?.try_into().ok()?;
                off += 8;
                let grade = Grade::new(f64::from_bits(u64::from_le_bytes(grade_bytes))).ok()?;
                ops.push(WalOp::Upsert { object, grade });
            }
            TAG_DELETE => ops.push(WalOp::Delete { object }),
            _ => return None,
        }
    }
    if off != payload.len() {
        return None;
    }
    Some((ops, RECORD_OVERHEAD + payload_len))
}

/// Fsyncs the directory containing `path`, making a create/rename of the
/// file itself durable.
pub(crate) fn sync_parent_dir(vfs: &dyn Vfs, path: &Path) -> Result<(), StorageError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        vfs.sync_dir(dir)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{std_vfs, FaultKind, FaultOp, FaultRule, FaultVfs};
    use std::fs::OpenOptions;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn up(id: u64, v: f64) -> WalOp {
        WalOp::Upsert {
            object: ObjectId(id),
            grade: g(v),
        }
    }

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("garlic-storage-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_batches_across_reopen() {
        let path = temp_wal("roundtrip.wal");
        let mut wal = Wal::create(&path, &std_vfs()).unwrap();
        let first = vec![
            WalOp::Upsert {
                object: ObjectId(3),
                grade: g(0.5),
            },
            WalOp::Delete {
                object: ObjectId(7),
            },
        ];
        let second = vec![WalOp::Upsert {
            object: ObjectId(1),
            grade: g(1.0),
        }];
        wal.append(&first).unwrap();
        wal.append(&second).unwrap();
        drop(wal);

        let mut ops = Vec::new();
        let wal = Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        let expected: Vec<WalOp> = first.iter().chain(&second).copied().collect();
        assert_eq!(ops, expected);
        assert_eq!(
            wal.committed_bytes(),
            std::fs::metadata(&path).unwrap().len()
        );
    }

    #[test]
    fn appends_resume_after_recovery() {
        let path = temp_wal("resume.wal");
        let mut wal = Wal::create(&path, &std_vfs()).unwrap();
        wal.append(&[WalOp::Delete {
            object: ObjectId(2),
        }])
        .unwrap();
        drop(wal);
        let mut ops = Vec::new();
        let mut wal = Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        wal.append(&[WalOp::Upsert {
            object: ObjectId(9),
            grade: g(0.25),
        }])
        .unwrap();
        drop(wal);
        let mut ops = Vec::new();
        Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].object(), ObjectId(9));
    }

    #[test]
    fn torn_tail_is_truncated_to_the_committed_prefix() {
        let path = temp_wal("torn.wal");
        let mut wal = Wal::create(&path, &std_vfs()).unwrap();
        wal.append(&[WalOp::Upsert {
            object: ObjectId(1),
            grade: g(0.5),
        }])
        .unwrap();
        let committed = wal.committed_bytes();
        wal.append(&[WalOp::Upsert {
            object: ObjectId(2),
            grade: g(0.75),
        }])
        .unwrap();
        drop(wal);
        // Tear the second record: cut it 3 bytes short.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 3).unwrap();
        drop(file);

        let mut ops = Vec::new();
        let wal = Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert_eq!(ops.len(), 1, "only the committed prefix survives");
        assert_eq!(ops[0].object(), ObjectId(1));
        assert_eq!(wal.committed_bytes(), committed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
    }

    #[test]
    fn bit_flip_in_a_record_stops_replay_there() {
        let path = temp_wal("flip.wal");
        let mut wal = Wal::create(&path, &std_vfs()).unwrap();
        for i in 0..3 {
            wal.append(&[WalOp::Upsert {
                object: ObjectId(i),
                grade: g(0.5),
            }])
            .unwrap();
        }
        let after_first = {
            // Record boundaries: replay one record's length by re-reading.
            let bytes = std::fs::read(&path).unwrap();
            let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as u64;
            8 + 20 + len
        };
        let mut bytes = std::fs::read(&path).unwrap();
        let target = after_first as usize + 14; // inside the second record
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mut ops = Vec::new();
        Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert_eq!(ops.len(), 1, "replay stops at the first damaged record");
    }

    #[test]
    fn damaged_header_is_a_typed_error() {
        let path = temp_wal("badheader.wal");
        let mut wal = Wal::create(&path, &std_vfs()).unwrap();
        wal.append(&[WalOp::Delete {
            object: ObjectId(0),
        }])
        .unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut ops = Vec::new();
        assert!(matches!(
            Wal::open(&path, &mut ops, &std_vfs()),
            Err(StorageError::WalCorrupt { .. })
        ));
    }

    /// Satellite of the fault-injection work: an fsync that fails on the
    /// Nth append must (1) surface as a typed error, (2) not acknowledge
    /// the batch, and (3) leave the tail clean enough that both a retry
    /// and crash-recovery behave exactly as if the append never happened.
    #[test]
    fn failed_fsync_append_is_typed_and_retryable() {
        let path = temp_wal("fsync-retry.wal");
        let fault = FaultVfs::new();
        fault.push_rule(FaultRule {
            path_contains: "fsync-retry.wal".to_owned(),
            op: FaultOp::Sync,
            // Matching sync ops on this path: header sync_all (#0), first
            // append sync_data (#1), second append sync_data (#2).
            nth: 2,
            kind: FaultKind::Transient { times: 1 },
        });
        let vfs: Arc<dyn Vfs> = Arc::new(fault);
        let mut wal = Wal::create(&path, &vfs).unwrap();
        wal.append(&[up(1, 0.5)]).unwrap();
        let committed = wal.committed_bytes();

        let err = wal.append(&[up(2, 0.75)]).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
        assert_eq!(
            wal.committed_bytes(),
            committed,
            "a failed append is not acknowledged"
        );

        // The torn bytes sit past the committed offset; a retry simply
        // overwrites them.
        wal.append(&[up(2, 0.75)]).unwrap();
        drop(wal);
        let mut ops = Vec::new();
        Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert_eq!(ops, vec![up(1, 0.5), up(2, 0.75)]);
    }

    /// Crash right after the failed fsync (no retry): recovery replays
    /// exactly the acknowledged prefix and truncates the unacknowledged
    /// record that reached the page cache but never synced.
    #[test]
    fn acknowledged_upserts_survive_a_crash_after_failed_fsync() {
        let path = temp_wal("fsync-crash.wal");
        let fault = FaultVfs::new();
        fault.push_rule(FaultRule {
            path_contains: "fsync-crash.wal".to_owned(),
            op: FaultOp::Sync,
            nth: 2,
            kind: FaultKind::Permanent,
        });
        let vfs: Arc<dyn Vfs> = Arc::new(fault);
        let mut wal = Wal::create(&path, &vfs).unwrap();
        wal.append(&[up(1, 0.5)]).unwrap();
        let committed = wal.committed_bytes();
        wal.append(&[up(2, 0.75)]).unwrap_err();
        drop(wal); // crash
                   // The failed fsync means those bytes carry no durability promise;
                   // model the worst case by dropping everything past the committed
                   // offset, as a real power cut would.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(committed).unwrap();
        drop(file);

        let mut ops = Vec::new();
        let recovered = Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert_eq!(ops, vec![up(1, 0.5)], "only acknowledged ops replay");
        assert_eq!(recovered.committed_bytes(), committed);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
    }

    #[test]
    fn empty_file_reinitialises_as_fresh() {
        let path = temp_wal("empty.wal");
        std::fs::write(&path, b"").unwrap();
        let mut ops = Vec::new();
        let mut wal = Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert!(ops.is_empty());
        wal.append(&[WalOp::Upsert {
            object: ObjectId(5),
            grade: g(1.0),
        }])
        .unwrap();
        drop(wal);
        let mut ops = Vec::new();
        Wal::open(&path, &mut ops, &std_vfs()).unwrap();
        assert_eq!(ops.len(), 1);
    }
}
