//! # garlic-storage — persistent segment storage for graded lists
//!
//! The paper's middleware model assumes subsystems that *own durable
//! collections* (QBIC's image store, the CD store's relations); everything
//! in this workspace so far served graded lists out of RAM. This crate is
//! the durable substrate: an immutable on-disk **segment** format for one
//! graded list, a [`SegmentWriter`] that builds segments atomically, and a
//! [`SegmentSource`] that serves the Section 4 sorted/random access
//! contract straight off disk through a shared LRU [`BlockCache`].
//!
//! * [`mod@format`] — the version-1 file layout: checksummed fixed-size
//!   blocks holding the grade-descending sorted run, a mirrored
//!   object-ordered table region for random access, and a self-checksummed
//!   footer with the block index;
//! * [`writer`] — [`SegmentWriter`]: tmp-file + fsync + rename atomic
//!   publication;
//! * [`segment`] — [`SegmentSource`]: full integrity verification at
//!   open (typed [`StorageError`]s for corrupted/truncated files), then
//!   `GradedSource + SetAccess` served block-by-block;
//! * [`cache`] — [`BlockCache`]: the shared, `Send + Sync`, `Arc`-able
//!   LRU cache with hit/miss/eviction counters ([`CacheStats`]).
//!
//! Segments are immutable after publication, which is what keeps the
//! shared cache coherent with almost no invalidation machinery: a block,
//! once read and checksum-verified, is correct for the life of the
//! process (compaction retires a replaced segment's namespace with
//! [`BlockCache::retire`], the one targeted invalidation).
//!
//! ## The write path
//!
//! Immutability is for *published* data; live collections also take
//! writes. The write subsystem layers a durable, snapshot-consistent
//! mutable store on top of the segment substrate:
//!
//! * [`wal`] — the checksummed, fsynced write-ahead log ([`wal::Wal`])
//!   with torn-tail crash recovery;
//! * [`memtable`] — the in-memory sorted buffer ([`memtable::Memtable`])
//!   mirroring the segment's two region orders;
//! * [`manifest`] — the versioned, atomically swapped store manifest
//!   ([`manifest::Manifest`]) naming the live segment and WALs;
//! * [`live`] — [`LiveSource`]: upserts and tombstone deletes with
//!   epoch-pinned [`LiveSnapshot`] reads serving the exact
//!   `GradedSource + SetAccess` contract;
//! * [`compact`] — the background compactor flushing frozen memtables
//!   into fresh segments through [`SegmentWriter`].
//!
//! ```
//! use std::sync::Arc;
//! use garlic_agg::Grade;
//! use garlic_core::access::GradedSource;
//! use garlic_storage::{BlockCache, SegmentSource, SegmentWriter};
//!
//! let dir = std::env::temp_dir().join(format!("garlic-storage-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("color.seg");
//!
//! let grades: Vec<Grade> = [0.9, 0.3, 0.7].iter().map(|&v| Grade::new(v).unwrap()).collect();
//! SegmentWriter::new().write_grades(&path, &grades).unwrap();
//!
//! let cache = Arc::new(BlockCache::new(1024)); // 1024 × 4 KiB budget
//! let source = SegmentSource::open(&path, cache).unwrap();
//! assert_eq!(source.len(), 3);
//! assert_eq!(source.sorted_access(0).unwrap().object.0, 0); // 0.9 ranks first
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compact;
pub mod error;
pub mod format;
pub mod live;
pub mod manifest;
pub mod memtable;
pub mod segment;
pub mod vfs;
pub mod wal;
pub mod writer;

pub use cache::{BlockCache, CacheStats};
pub use error::StorageError;
pub use format::DEFAULT_BLOCK_SIZE;
pub use live::{LiveOptions, LiveSnapshot, LiveSource};
pub use manifest::Manifest;
pub use memtable::Memtable;
pub use segment::{FenceStats, RetryPolicy, SegmentSource};
pub use vfs::{std_vfs, FaultKind, FaultOp, FaultRule, FaultVfs, StdVfs, Vfs, VfsFile, VfsRead};
pub use wal::{Wal, WalOp};
pub use writer::{SegmentInfo, SegmentWriter, ShardInfo};
