//! Typed errors for segment I/O.
//!
//! Opening a segment is the trust boundary of the storage layer: everything
//! the middleware later does through [`crate::SegmentSource`] assumes the
//! file was verified here. A corrupted, truncated, or foreign file must
//! therefore fail `open` with an error precise enough for an operator to
//! act on (re-replicate the segment, rebuild it, page someone), never with
//! a panic or a silently wrong graded list.

use std::fmt;
use std::path::PathBuf;

use garlic_core::ObjectId;

/// Everything that can go wrong while writing or opening a segment file.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// The file does not start (or end) with the segment magic — it is not
    /// a segment file at all.
    BadMagic,
    /// The file is a segment, but of a format version other than the one
    /// this build reads. Both sides of the mismatch are named so an
    /// operator knows which binary or which file to replace.
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
        /// The one version this build reads
        /// ([`FORMAT_VERSION`](crate::format::FORMAT_VERSION)).
        supported: u32,
    },
    /// The file is shorter than its own metadata says it must be —
    /// typically a partial copy or an interrupted write.
    Truncated {
        /// How many bytes the metadata requires.
        expected: u64,
        /// How many bytes the file actually has.
        actual: u64,
    },
    /// The footer failed its checksum or is internally inconsistent.
    FooterCorrupt {
        /// What exactly disagreed.
        detail: String,
    },
    /// A data or table block's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// The file-wide block number (data blocks first, then table
        /// blocks).
        block: u64,
    },
    /// The data (sorted-order) and table (object-order) regions do not
    /// hold the same entries — each region is internally consistent, but
    /// sorted access and random access would disagree.
    RegionMismatch,
    /// A block passed its checksum but holds invalid content (a grade
    /// outside `[0, 1]`/NaN, or entries violating the sort order the
    /// region promises) — the writer that produced it was broken.
    CorruptBlock {
        /// The file-wide block number.
        block: u64,
        /// What the block violated.
        detail: String,
    },
    /// The requested block size is not a positive multiple of the entry
    /// size.
    InvalidBlockSize {
        /// The rejected value.
        requested: usize,
    },
    /// The writer was given the same object twice.
    DuplicateObject {
        /// The object graded more than once.
        object: ObjectId,
        /// The segment path the write was destined for — named so an
        /// operator can tell *which* build of *which* attribute fed the
        /// duplicate, matching the parser's exact-location error style.
        path: PathBuf,
    },
    /// A write-ahead log file is unreadable beyond crash semantics: its
    /// header is damaged or it is not a WAL file at all. (A torn *tail* is
    /// not an error — recovery truncates it to the committed prefix.)
    WalCorrupt {
        /// What exactly was wrong.
        detail: String,
    },
    /// The live store's manifest failed its checksum or is internally
    /// inconsistent — the store cannot say which files are current, so
    /// opening refuses rather than guessing.
    ManifestCorrupt {
        /// What exactly was wrong.
        detail: String,
    },
    /// The data does not fit the universe `0..universe` it was opened or
    /// written against: it grades an object at or past `universe`, or a
    /// dense ranking holds a different number of entries. Refused before
    /// anything is registered or applied.
    UniverseMismatch {
        /// The universe size.
        universe: usize,
        /// What disagreed with it.
        detail: String,
    },
    /// The segment exhausted its I/O retry budget earlier and was
    /// quarantined: every further read fails fast with this error until
    /// the source is reopened, so one bad disk cannot stall queries in
    /// retry loops.
    Quarantined {
        /// The quarantined segment file.
        path: PathBuf,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "segment I/O error: {e}"),
            StorageError::BadMagic => write!(f, "not a segment file (bad magic)"),
            StorageError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported segment format version {found}: this build reads version \
                 {supported} only"
            ),
            StorageError::Truncated { expected, actual } => write!(
                f,
                "segment truncated: need {expected} bytes, file has {actual}"
            ),
            StorageError::FooterCorrupt { detail } => write!(f, "segment footer corrupt: {detail}"),
            StorageError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in segment block {block}")
            }
            StorageError::RegionMismatch => {
                write!(f, "segment data and table regions hold different entries")
            }
            StorageError::CorruptBlock { block, detail } => {
                write!(f, "segment block {block} corrupt: {detail}")
            }
            StorageError::InvalidBlockSize { requested } => write!(
                f,
                "invalid block size {requested}: must be a positive multiple of the 16-byte entry"
            ),
            StorageError::DuplicateObject { object, path } => {
                write!(
                    f,
                    "object {object} graded twice in segment input for {}",
                    path.display()
                )
            }
            StorageError::WalCorrupt { detail } => {
                write!(f, "write-ahead log corrupt: {detail}")
            }
            StorageError::ManifestCorrupt { detail } => {
                write!(f, "live-store manifest corrupt: {detail}")
            }
            StorageError::UniverseMismatch { universe, detail } => {
                write!(f, "universe mismatch (size {universe}): {detail}")
            }
            StorageError::Quarantined { path } => {
                write!(
                    f,
                    "segment {} is quarantined after exhausting its I/O retry budget",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        let e = StorageError::Truncated {
            expected: 100,
            actual: 7,
        };
        assert!(format!("{e}").contains("need 100 bytes"));
        let e = StorageError::ChecksumMismatch { block: 3 };
        assert!(format!("{e}").contains("block 3"));
        let e = StorageError::DuplicateObject {
            object: ObjectId(9),
            path: PathBuf::from("/data/color.seg"),
        };
        let message = format!("{e}");
        assert!(message.contains("#9"));
        assert!(
            message.contains("/data/color.seg"),
            "the duplicate-object error names the destination path: {message}"
        );
        let e = StorageError::ManifestCorrupt {
            detail: "checksum mismatch".into(),
        };
        assert!(format!("{e}").contains("manifest"));
    }

    #[test]
    fn io_errors_lift_and_chain() {
        let e: StorageError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
