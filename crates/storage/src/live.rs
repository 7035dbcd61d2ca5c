//! [`LiveSource`]: a writable graded source with durable, snapshot-
//! consistent reads.
//!
//! This is the write path the immutable segment stack was missing: one
//! `LiveSource` per attribute absorbs live upserts and tombstone deletes
//! while serving the exact Section 4/5 read contract the rest of the
//! stack is built on. The layering is the classic LSM shape, adapted to
//! graded lists:
//!
//! ```text
//!   writes ──► WAL (fsync) ──► active memtable
//!                                  │ freeze (memtable_limit)
//!                                  ▼
//!                            frozen memtables ──► compactor ──► base segment
//!                                                               (SegmentWriter,
//!                                                                atomic swap via
//!                                                                the manifest)
//! ```
//!
//! Every write is appended to the [`crate::wal::Wal`] and fsynced before
//! it is applied to the active [`crate::memtable::Memtable`] — an
//! acknowledged write survives any crash. When the active memtable
//! reaches `memtable_limit` ops it is frozen (the WAL rotates, the
//! manifest epoch bumps) and the background compactor merges every frozen
//! layer with the base segment into a fresh v2 segment, swaps it in
//! atomically through the [`crate::manifest::Manifest`], retires the old
//! segment's blocks from the shared [`crate::BlockCache`], and deletes
//! the obsolete WAL and segment files.
//!
//! # Snapshot semantics
//!
//! Readers never see the store mid-write: [`LiveSource::snapshot`] builds
//! an immutable [`LiveSnapshot`] pinned to the manifest epoch and the
//! write version at the moment of the call. The snapshot merges the
//! overlay (active + frozen memtables, newest layer winning) over the
//! base segment with the same tie-order-stable k-way merge discipline as
//! [`garlic_core::ShardedSource`] — descending grade, ties by ascending
//! object id — while the overlay *shadows* the base (an upsert hides the
//! older grade, a tombstone hides the object). The resulting stream,
//! random access answers, and matching set are **provably identical** to
//! a freshly built [`garlic_core::access::MemorySource`] over the same
//! live contents, so the Section 5 billed access counts of anything
//! running on top are identical too. Snapshots are cheap when nothing
//! changed: the source caches the last snapshot per write version.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use garlic_agg::Grade;
use garlic_core::access::{BoundedBatch, GradedSource, SetAccess, SourceError};
use garlic_core::{FxHashMap, GradedEntry, ObjectId};

use garlic_telemetry::{Counter, Histogram, Telemetry};

use crate::cache::BlockCache;
use crate::compact::{self, CompactSignal, CompactorHandle};
use crate::error::StorageError;
use crate::manifest::{collect_garbage, file_name_for, Manifest};
use crate::memtable::{MemEntry, Memtable};
use crate::segment::SegmentSource;
use crate::vfs::{std_vfs, Vfs};
use crate::wal::{Wal, WalOp};

/// Tuning knobs for a [`LiveSource`].
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Freeze the active memtable once it holds this many ops (live
    /// entries plus tombstones). Small limits exercise the full
    /// freeze/compact cycle quickly; large limits batch more writes per
    /// segment build.
    pub memtable_limit: usize,
    /// Spawn the background compactor thread at open. Without it, frozen
    /// memtables accumulate until [`LiveSource::compact`] (or
    /// [`LiveSource::flush`]) is called explicitly — what deterministic
    /// tests want.
    pub auto_compact: bool,
    /// When set, writes must grade objects inside `0..universe`; an
    /// out-of-range write is a wiring-error panic, matching the
    /// subsystem-registration contract.
    pub universe: Option<usize>,
    /// When attached, the store resolves its metric handles from this
    /// registry once at open (`live.wal.fsync_ns`, `live.wal.replayed_ops`,
    /// `live.memtable.freezes`, `live.compaction_ns`) and records into
    /// them lock-free: one histogram sample per WAL fsync / compaction,
    /// one counter bump per freeze — never per entry. `None` (the
    /// default) costs one branch per batch.
    pub telemetry: Option<Arc<Telemetry>>,
    /// The filesystem every store file operation goes through. `None`
    /// (the default) is the real filesystem; the chaos suite installs a
    /// [`crate::vfs::FaultVfs`] here to exercise WAL, manifest, segment,
    /// and compaction failure paths deterministically.
    pub vfs: Option<Arc<dyn Vfs>>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            memtable_limit: 4096,
            auto_compact: false,
            universe: None,
            telemetry: None,
            vfs: None,
        }
    }
}

/// The mutable core a [`LiveSource`] guards: every layer of the store and
/// the incrementally maintained visible statistics.
pub(crate) struct LiveInner {
    pub(crate) wal: Wal,
    pub(crate) active: Memtable,
    /// Frozen memtables, oldest first. Only the compactor removes them,
    /// and always a prefix.
    pub(crate) frozen: Vec<Arc<Memtable>>,
    /// How many sealed WAL files back each frozen layer (parallel to
    /// `frozen`): a freeze seals exactly one; recovery can fold several
    /// sealed logs into one layer.
    pub(crate) sealed_per_frozen: Vec<usize>,
    pub(crate) base: Option<Arc<SegmentSource>>,
    pub(crate) manifest: Manifest,
    /// Number of visible (live) graded objects across all layers.
    pub(crate) len: usize,
    /// Number of visible grade-1 objects — the planner's exact-match
    /// count, kept current on every write.
    pub(crate) ones: u64,
    /// Bumped on every mutation; keys the snapshot cache.
    pub(crate) version: u64,
    cached: Option<(u64, Arc<LiveSnapshot>)>,
}

impl LiveInner {
    /// Records a mutation: invalidates the cached snapshot and advances
    /// the write version that keys it.
    pub(crate) fn bump_version(&mut self) {
        self.version += 1;
        self.cached = None;
    }
}

/// Metric handles a live store resolves once at open — see
/// [`LiveOptions::telemetry`].
pub(crate) struct LiveMetrics {
    /// WAL `append` (write + fsync) latency, one sample per batch.
    pub(crate) fsync_ns: Arc<Histogram>,
    /// Committed WAL ops replayed during crash recovery.
    pub(crate) wal_replayed_ops: Arc<Counter>,
    /// Memtable freezes (WAL rotations).
    pub(crate) freezes: Arc<Counter>,
    /// Whole-compaction wall-clock latency, one sample per run.
    pub(crate) compaction_ns: Arc<Histogram>,
}

impl LiveMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        LiveMetrics {
            fsync_ns: telemetry.histogram("live.wal.fsync_ns"),
            wal_replayed_ops: telemetry.counter("live.wal.replayed_ops"),
            freezes: telemetry.counter("live.memtable.freezes"),
            compaction_ns: telemetry.histogram("live.compaction_ns"),
        }
    }
}

/// Everything the source and its background compactor share.
pub(crate) struct LiveShared {
    pub(crate) dir: PathBuf,
    pub(crate) cache: Arc<BlockCache>,
    pub(crate) opts: LiveOptions,
    /// The resolved filesystem ([`LiveOptions::vfs`] or the default).
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) inner: Mutex<LiveInner>,
    /// Serializes compactions (the background thread vs explicit
    /// [`LiveSource::compact`] calls). Never taken while holding `inner`.
    pub(crate) compact_lock: Mutex<()>,
    pub(crate) signal: CompactSignal,
    pub(crate) last_error: Mutex<Option<StorageError>>,
    /// Resolved metric handles, `None` when no registry was attached.
    pub(crate) metrics: Option<LiveMetrics>,
}

/// A durable, writable graded source (see the module docs).
pub struct LiveSource {
    shared: Arc<LiveShared>,
    compactor: Mutex<Option<CompactorHandle>>,
}

impl std::fmt::Debug for LiveSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self
            .shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("LiveSource")
            .field("dir", &self.shared.dir)
            .field("epoch", &inner.manifest.epoch)
            .field("len", &inner.len)
            .field("frozen", &inner.frozen.len())
            .finish()
    }
}

impl LiveSource {
    /// Opens (or creates) the live store in `dir`, running crash recovery:
    /// the manifest is loaded and verified, orphaned files are collected,
    /// the base segment is fully verified, and every committed WAL record
    /// is replayed — sealed logs into a frozen layer, the active log into
    /// the active memtable. Torn WAL tails are truncated; a corrupt
    /// manifest or segment is a typed error, never a guess.
    pub fn open(
        dir: &Path,
        cache: Arc<BlockCache>,
        opts: LiveOptions,
    ) -> Result<LiveSource, StorageError> {
        std::fs::create_dir_all(dir)?;
        let vfs = opts.vfs.clone().unwrap_or_else(std_vfs);
        let manifest = match Manifest::load_with(dir, &vfs) {
            Ok(m) => m,
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                let m = Manifest::initial();
                Wal::create_with(&dir.join(&m.wals[0]), &vfs)?;
                m.store_with(dir, &vfs)?;
                m
            }
            Err(e) => return Err(e),
        };
        collect_garbage(dir, &manifest, &vfs)?;
        let base = match &manifest.segment {
            Some(name) => Some(Arc::new(SegmentSource::open_with(
                dir.join(name),
                Arc::clone(&cache),
                &vfs,
            )?)),
            None => None,
        };

        // Replay: sealed logs (all but the last) fold into one frozen
        // layer; the last log is the active one and replays into the
        // active memtable.
        let metrics = opts.telemetry.as_deref().map(LiveMetrics::resolve);
        let sealed_count = manifest.wals.len() - 1;
        let mut frozen_mem = Memtable::new();
        let mut replayed = 0u64;
        let mut ops = Vec::new();
        for name in &manifest.wals[..sealed_count] {
            ops.clear();
            Wal::open_with(&dir.join(name), &mut ops, &vfs)?;
            replayed += ops.len() as u64;
            for &op in &ops {
                frozen_mem.apply(op);
            }
        }
        ops.clear();
        let wal = Wal::open_with(&dir.join(&manifest.wals[sealed_count]), &mut ops, &vfs)?;
        replayed += ops.len() as u64;
        let mut active = Memtable::new();
        for &op in &ops {
            active.apply(op);
        }
        if let Some(m) = &metrics {
            m.wal_replayed_ops.add(replayed);
        }

        // Rebuild the visible statistics from the base footer plus the
        // overlay's deltas (newest layer wins, so consult `active` first).
        let mut newest: FxHashMap<ObjectId, MemEntry> = FxHashMap::default();
        for (object, state) in active.table_iter().chain(frozen_mem.table_iter()) {
            newest.entry(object).or_insert(state);
        }
        let mut len = base.as_ref().map_or(0, |b| b.len());
        let mut ones = base.as_ref().map_or(0, |b| b.exact_match_count());
        let objects: Vec<ObjectId> = newest.keys().copied().collect();
        let olds = base_grades(base.as_deref(), &objects)?;
        for (object, old) in objects.iter().zip(olds) {
            adjust_stats(&mut len, &mut ones, old, newest[object].grade());
        }
        if let Some(universe) = opts.universe {
            let max_overlay = objects.iter().map(|o| o.index()).max();
            let max_base = base
                .as_ref()
                .and_then(|b| b.max_object())
                .map(|o| o.index());
            if let Some(max) = max_overlay.into_iter().chain(max_base).max() {
                assert!(
                    max < universe,
                    "live store grades object #{max} outside the universe size {universe}"
                );
            }
        }

        let (frozen, sealed_per_frozen) = if sealed_count > 0 {
            (vec![Arc::new(frozen_mem)], vec![sealed_count])
        } else {
            (Vec::new(), Vec::new())
        };
        let has_frozen = !frozen.is_empty();
        let shared = Arc::new(LiveShared {
            dir: dir.to_path_buf(),
            cache,
            opts: opts.clone(),
            vfs,
            inner: Mutex::new(LiveInner {
                wal,
                active,
                frozen,
                sealed_per_frozen,
                base,
                manifest,
                len,
                ones,
                version: 0,
                cached: None,
            }),
            compact_lock: Mutex::new(()),
            signal: CompactSignal::new(),
            last_error: Mutex::new(None),
            metrics,
        });
        let compactor = opts
            .auto_compact
            .then(|| compact::spawn(Arc::clone(&shared)));
        if has_frozen {
            shared.signal.notify();
        }
        Ok(LiveSource {
            shared,
            compactor: Mutex::new(compactor),
        })
    }

    /// Inserts or overwrites one object's grade. Durable on return.
    pub fn upsert(&self, object: ObjectId, grade: Grade) -> Result<(), StorageError> {
        self.write_batch(&[WalOp::Upsert { object, grade }])
    }

    /// Tombstones one object. Durable on return.
    pub fn delete(&self, object: ObjectId) -> Result<(), StorageError> {
        self.write_batch(&[WalOp::Delete { object }])
    }

    /// Applies a batch of ops as **one** WAL record — one fsync for the
    /// whole batch, the sustained-ingest fast path.
    ///
    /// # Panics
    /// Panics if [`LiveOptions::universe`] is set and an op grades an
    /// object outside it (a wiring error, like registering a short list).
    pub fn write_batch(&self, ops: &[WalOp]) -> Result<(), StorageError> {
        if ops.is_empty() {
            return Ok(());
        }
        if let Some(universe) = self.shared.opts.universe {
            for op in ops {
                assert!(
                    op.object().index() < universe,
                    "live write grades object {} outside the universe size {universe}",
                    op.object()
                );
            }
        }
        let mut inner = self
            .shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Everything the statistics need from disk is read before the
        // batch is logged: a failed base read acknowledges and applies
        // nothing.
        let mut unheld: Vec<ObjectId> = ops
            .iter()
            .map(WalOp::object)
            .filter(|&object| overlay_state(&inner, object).is_none())
            .collect();
        unheld.sort_unstable();
        unheld.dedup();
        let in_base = base_grades(inner.base.as_deref(), &unheld)?;
        match &self.shared.metrics {
            Some(m) => {
                let start = std::time::Instant::now();
                inner.wal.append(ops)?;
                m.fsync_ns
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            None => inner.wal.append(ops)?,
        }
        for &op in ops {
            let object = op.object();
            let old = match overlay_state(&inner, object) {
                Some(state) => state.grade(),
                None => in_base[unheld.binary_search(&object).expect("probed above")],
            };
            let new = match op {
                WalOp::Upsert { grade, .. } => Some(grade),
                WalOp::Delete { .. } => None,
            };
            let inner = &mut *inner;
            adjust_stats(&mut inner.len, &mut inner.ones, old, new);
            inner.active.apply(op);
        }
        inner.bump_version();
        if inner.active.ops_len() >= self.shared.opts.memtable_limit {
            freeze_locked(&self.shared, &mut inner)?;
            drop(inner);
            self.shared.signal.notify();
        }
        Ok(())
    }

    /// Seals the active memtable into a frozen layer (rotating the WAL and
    /// bumping the manifest epoch). Returns whether anything was frozen.
    pub fn freeze(&self) -> Result<bool, StorageError> {
        let mut inner = self
            .shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        freeze_locked(&self.shared, &mut inner)
    }

    /// Runs one compaction synchronously: merges every frozen layer with
    /// the base segment into a fresh segment, swaps it in through the
    /// manifest, retires the old segment's cache blocks, and deletes
    /// obsolete files. Returns whether a compaction ran.
    pub fn compact(&self) -> Result<bool, StorageError> {
        compact::compact_once(&self.shared)
    }

    /// Freezes whatever is in the active memtable and compacts everything
    /// down to the base segment — the "make it all durable and fast"
    /// button. Returns whether any work happened.
    pub fn flush(&self) -> Result<bool, StorageError> {
        let froze = self.freeze()?;
        let compacted = self.compact()?;
        Ok(froze || compacted)
    }

    /// An immutable, epoch-pinned snapshot serving the full
    /// `GradedSource + SetAccess` contract over the store's current live
    /// contents (see the module docs). Cached per write version: snapshots
    /// between writes are one `Arc` clone.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        let mut inner = self
            .shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((version, snapshot)) = &inner.cached {
            if *version == inner.version {
                return Arc::clone(snapshot);
            }
        }
        let snapshot = Arc::new(build_snapshot(&inner));
        inner.cached = Some((inner.version, Arc::clone(&snapshot)));
        snapshot
    }

    /// Number of visible graded objects right now (memtable deltas
    /// included).
    pub fn live_len(&self) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len
    }

    /// Number of visible grade-1 objects right now — the planner's
    /// exact-match estimate, reflecting every acknowledged write.
    pub fn ones(&self) -> u64 {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .ones
    }

    /// Whether every visible grade is exactly 0 or 1. Exact for a freshly
    /// compacted store (the segment footer re-verifies it); while fuzzy
    /// overlay writes are pending it is conservatively `false`.
    pub fn is_crisp(&self) -> bool {
        let inner = self
            .shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        crisp_of(&inner)
    }

    /// The manifest epoch — bumped by every freeze and compaction swap.
    pub fn epoch(&self) -> u64 {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .manifest
            .epoch
    }

    /// Committed bytes in the active WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.shared
            .inner
            .lock()
            .expect("live lock")
            .wal
            .committed_bytes()
    }

    /// Number of frozen memtables awaiting compaction.
    pub fn frozen_layers(&self) -> usize {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .frozen
            .len()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Takes the most recent background-compaction error, if one occurred.
    pub fn last_compact_error(&self) -> Option<StorageError> {
        self.shared
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

impl Drop for LiveSource {
    fn drop(&mut self) {
        if let Some(handle) = self
            .compactor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            handle.shutdown(&self.shared.signal);
        }
    }
}

/// The object's state in the overlay (newest wins): active memtable, then
/// frozen layers newest→oldest. `None` means no layer holds a write for it
/// and the base segment decides.
fn overlay_state(inner: &LiveInner, object: ObjectId) -> Option<MemEntry> {
    inner.active.get(object).or_else(|| {
        inner
            .frozen
            .iter()
            .rev()
            .find_map(|layer| layer.get(object))
    })
}

/// The base segment's grade of each of `objects`, in order: one probe
/// batch grouped by table block, failing with the segment's typed error.
fn base_grades(
    base: Option<&SegmentSource>,
    objects: &[ObjectId],
) -> Result<Vec<Option<Grade>>, StorageError> {
    let mut grades = Vec::with_capacity(objects.len());
    match base {
        Some(base) => base.random_batch_impl(objects, &mut grades)?,
        None => grades.resize(objects.len(), None),
    }
    Ok(grades)
}

/// Moves the visible statistics for one object whose visible grade goes
/// from `old` to `new`.
fn adjust_stats(len: &mut usize, ones: &mut u64, old: Option<Grade>, new: Option<Grade>) {
    *len = (*len as i64 + i64::from(new.is_some()) - i64::from(old.is_some())) as usize;
    *ones = (*ones as i64 + i64::from(new == Some(Grade::ONE)) - i64::from(old == Some(Grade::ONE)))
        as u64;
}

fn crisp_of(inner: &LiveInner) -> bool {
    let base_crisp = inner.base.as_ref().is_none_or(|b| b.is_crisp());
    let overlay_crisp = inner
        .active
        .table_iter()
        .chain(inner.frozen.iter().flat_map(|f| f.table_iter()))
        .all(|(_, state)| match state.grade() {
            Some(g) => g == Grade::ONE || g == Grade::ZERO,
            None => true,
        });
    base_crisp && overlay_crisp
}

/// Seals the active memtable: creates the next WAL, publishes a manifest
/// listing it (epoch + 1), then swaps the memtable into the frozen list.
/// The crash window between the WAL create and the manifest store leaves
/// only an orphaned file the next open garbage-collects.
pub(crate) fn freeze_locked(
    shared: &LiveShared,
    inner: &mut LiveInner,
) -> Result<bool, StorageError> {
    if inner.active.ops_len() == 0 {
        return Ok(false);
    }
    let new_id = inner.manifest.next_file_id;
    let new_name = file_name_for(new_id, "wal");
    let new_wal = Wal::create_with(&shared.dir.join(&new_name), &shared.vfs)?;
    let mut manifest = inner.manifest.clone();
    manifest.epoch += 1;
    manifest.next_file_id = new_id + 1;
    manifest.wals.push(new_name);
    manifest.store_with(&shared.dir, &shared.vfs)?;
    inner.manifest = manifest;
    inner.wal = new_wal;
    inner
        .frozen
        .push(Arc::new(std::mem::take(&mut inner.active)));
    inner.sealed_per_frozen.push(1);
    inner.bump_version();
    if let Some(m) = &shared.metrics {
        m.freezes.inc();
    }
    Ok(true)
}

/// Builds the immutable snapshot of the current state: the combined
/// overlay (active + frozen, newest layer winning) as a shadow map plus a
/// skeleton-ordered run, alongside the pinned base segment.
fn build_snapshot(inner: &LiveInner) -> LiveSnapshot {
    let mut shadow: FxHashMap<ObjectId, MemEntry> = FxHashMap::default();
    for (object, state) in inner
        .active
        .table_iter()
        .chain(inner.frozen.iter().rev().flat_map(|f| f.table_iter()))
    {
        shadow.entry(object).or_insert(state);
    }
    let mut overlay: Vec<GradedEntry> = shadow
        .iter()
        .filter_map(|(&object, state)| state.grade().map(|grade| GradedEntry { object, grade }))
        .collect();
    overlay.sort_unstable_by(|a, b| b.grade.cmp(&a.grade).then_with(|| a.object.cmp(&b.object)));
    LiveSnapshot {
        overlay,
        shadow,
        base: inner.base.clone(),
        len: inner.len,
        ones: inner.ones,
        crisp: crisp_of(inner),
        epoch: inner.manifest.epoch,
        merge: Mutex::new(MergeState::default()),
    }
}

/// An immutable, epoch-pinned view of a [`LiveSource`]'s contents, serving
/// the full `GradedSource + SetAccess` contract. Entries, tie order, and
/// access answers are identical to a [`MemorySource`] built from the same
/// live pairs — which is exactly what `tests/live_equivalence.rs` pins.
///
/// [`MemorySource`]: garlic_core::access::MemorySource
pub struct LiveSnapshot {
    /// Overlay entries (live only) in skeleton order.
    overlay: Vec<GradedEntry>,
    /// Every overlaid object — upserts shadow the base's grade, tombstones
    /// shadow the object entirely.
    shadow: FxHashMap<ObjectId, MemEntry>,
    base: Option<Arc<SegmentSource>>,
    len: usize,
    ones: u64,
    crisp: bool,
    epoch: u64,
    merge: Mutex<MergeState>,
}

impl std::fmt::Debug for LiveSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSnapshot")
            .field("len", &self.len)
            .field("overlay", &self.overlay.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// The demand-driven merge cursor: the merged prefix only ever grows, so
/// the stream is deterministic no matter how reads are batched — the same
/// discipline [`garlic_core::ShardedSource`] uses, with shadow filtering
/// layered on.
#[derive(Default)]
struct MergeState {
    merged: Vec<GradedEntry>,
    overlay_pos: usize,
    /// Raw rank into the base sorted stream (shadowed entries included).
    base_rank: usize,
    /// Shadow-filtered lookahead from the base stream.
    base_buf: VecDeque<GradedEntry>,
    base_exhausted: bool,
}

/// What one attempt to refill the base lookahead produced.
enum Refill {
    /// The buffer has at least one entry.
    Ready,
    /// The base stream is exhausted.
    Exhausted,
    /// The base source stopped early: every remaining base entry provably
    /// grades strictly below the advisory bound.
    BoundStop,
}

/// Chunk size for pulling the base stream through the merge.
const MERGE_CHUNK: usize = 256;

impl LiveSnapshot {
    /// The manifest epoch this snapshot observes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether every visible grade is exactly 0 or 1.
    pub fn is_crisp(&self) -> bool {
        self.crisp
    }

    /// Number of visible grade-1 objects.
    pub fn exact_match_count(&self) -> u64 {
        self.ones
    }

    /// Refills the shadow-filtered base lookahead, passing `bound` through
    /// to the base's fences. The merge cursor only advances after a
    /// successful read (`try_*` leaves `tmp` unchanged on error), so a
    /// failed refill is retryable: the cursor state is as if the call never
    /// happened.
    fn refill_base(&self, st: &mut MergeState, bound: Grade) -> Result<Refill, SourceError> {
        let Some(base) = &self.base else {
            st.base_exhausted = true;
            return Ok(Refill::Exhausted);
        };
        let mut tmp = Vec::with_capacity(MERGE_CHUNK);
        while st.base_buf.is_empty() && !st.base_exhausted {
            tmp.clear();
            let read = base.try_sorted_batch_bounded(st.base_rank, MERGE_CHUNK, bound, &mut tmp)?;
            st.base_rank += read.appended;
            st.base_buf.extend(
                tmp.iter()
                    .filter(|e| !self.shadow.contains_key(&e.object))
                    .copied(),
            );
            if read.truncated {
                return Ok(if st.base_buf.is_empty() {
                    Refill::BoundStop
                } else {
                    Refill::Ready
                });
            }
            if read.appended < MERGE_CHUNK {
                st.base_exhausted = true;
            }
        }
        Ok(if st.base_buf.is_empty() {
            Refill::Exhausted
        } else {
            Refill::Ready
        })
    }

    /// Grows the merged prefix to `target` entries, or until both streams
    /// end, or until every remaining entry provably grades strictly below
    /// `bound` — returning `true` only in that last case. No grade is below
    /// [`Grade::ZERO`], so a zero bound is the plain unbounded merge.
    fn ensure_merged(
        &self,
        st: &mut MergeState,
        target: usize,
        bound: Grade,
    ) -> Result<bool, SourceError> {
        let mut base_bound_stopped = false;
        while st.merged.len() < target {
            // The merged stream descends: once its tail dips below the
            // bound, everything deeper is provably below it too.
            if st.merged.last().is_some_and(|e| e.grade < bound) {
                return Ok(true);
            }
            if st.base_buf.is_empty() && !st.base_exhausted && !base_bound_stopped {
                if let Refill::BoundStop = self.refill_base(st, bound)? {
                    base_bound_stopped = true;
                }
            }
            let overlay_next = self.overlay.get(st.overlay_pos).copied();
            let base_next = st.base_buf.front().copied();
            let next = match (overlay_next, base_next) {
                (None, None) => return Ok(base_bound_stopped),
                (Some(entry), None) => {
                    if base_bound_stopped && entry.grade < bound {
                        // Both suffixes are provably below the bound; the
                        // true interleaving no longer matters.
                        return Ok(true);
                    }
                    // entry.grade >= bound > every remaining base entry,
                    // so emitting it preserves the exact merge order.
                    st.overlay_pos += 1;
                    entry
                }
                (None, Some(entry)) => {
                    st.base_buf.pop_front();
                    entry
                }
                (Some(o), Some(b)) => {
                    if o.grade > b.grade || (o.grade == b.grade && o.object < b.object) {
                        st.overlay_pos += 1;
                        o
                    } else {
                        st.base_buf.pop_front();
                        b
                    }
                }
            };
            st.merged.push(next);
        }
        Ok(false)
    }
}

impl GradedSource for LiveSnapshot {
    fn len(&self) -> usize {
        self.len
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        self.try_sorted_batch_bounded(start, count, Grade::ZERO, out)
            .map(|batch| batch.appended)
    }

    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        let mut st = self.merge.lock().unwrap_or_else(PoisonError::into_inner);
        let target = start.saturating_add(count);
        let bound_stop = self.ensure_merged(&mut st, target, bound)?;
        let end = st.merged.len().min(target);
        let begin = start.min(end);
        out.extend_from_slice(&st.merged[begin..end]);
        let appended = end - begin;
        Ok(BoundedBatch {
            appended,
            truncated: bound_stop && appended < count,
        })
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        let start = out.len();
        out.resize(start + objects.len(), None);
        let mut base_probes = Vec::new();
        let mut base_slots = Vec::new();
        for (i, &object) in objects.iter().enumerate() {
            match self.shadow.get(&object) {
                Some(state) => out[start + i] = state.grade(),
                None => {
                    base_probes.push(object);
                    base_slots.push(i);
                }
            }
        }
        if let Some(base) = &self.base {
            if !base_probes.is_empty() {
                let mut answers = Vec::with_capacity(base_probes.len());
                if let Err(e) = base.try_random_batch(&base_probes, &mut answers) {
                    // Contract: `out` must be unchanged on error.
                    out.truncate(start);
                    return Err(e);
                }
                for (&slot, answer) in base_slots.iter().zip(answers) {
                    out[start + slot] = answer;
                }
            }
        }
        Ok(())
    }
}

impl SetAccess for LiveSnapshot {
    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        // Overlay ones are the overlay's skeleton prefix; base ones come
        // from its own matching set, minus anything the overlay shadows.
        // Ascending-id order matches `MemorySource` (grade-1 ties break
        // by id).
        let mut set: Vec<ObjectId> = self
            .overlay
            .iter()
            .take_while(|e| e.grade == Grade::ONE)
            .map(|e| e.object)
            .collect();
        if let Some(base) = &self.base {
            set.extend(
                base.try_matching_set()?
                    .into_iter()
                    .filter(|object| !self.shadow.contains_key(object)),
            );
        }
        set.sort_unstable();
        Ok(set)
    }
}

/// Pure-composition compaction input: the merged full contents of the
/// base segment plus every frozen layer (newest winning), as writer-ready
/// pairs. Lives here (not in `compact.rs`) because it is the read-side
/// inverse of [`build_snapshot`] and the two must agree forever.
pub(crate) fn merged_pairs(
    base: Option<&Arc<SegmentSource>>,
    frozen: &[Arc<Memtable>],
) -> Result<Vec<(ObjectId, Grade)>, StorageError> {
    let mut combined: BTreeMap<ObjectId, MemEntry> = BTreeMap::new();
    // Oldest → newest with overwrite: the newest layer's state wins.
    for layer in frozen {
        for (object, state) in layer.table_iter() {
            combined.insert(object, state);
        }
    }
    let mut pairs = Vec::new();
    if let Some(base) = base {
        let mut entries = Vec::with_capacity(base.len());
        let mut rank = 0;
        loop {
            // Typed failure here aborts the compaction attempt (recorded by
            // the compactor and retried later) instead of panicking.
            let got = base
                .try_sorted_batch(rank, 4096, &mut entries)
                .map_err(|e| StorageError::Io(std::io::Error::other(e.to_string())))?;
            rank += got;
            if got < 4096 {
                break;
            }
        }
        pairs.extend(
            entries
                .iter()
                .filter(|e| !combined.contains_key(&e.object))
                .map(|e| (e.object, e.grade)),
        );
    }
    pairs.extend(
        combined
            .iter()
            .filter_map(|(&object, &state)| state.grade().map(|g| (object, g))),
    );
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultOp, FaultRule, FaultVfs};

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("garlic-storage-live-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, opts: LiveOptions) -> LiveSource {
        LiveSource::open(dir, Arc::new(BlockCache::new(256)), opts).unwrap()
    }

    #[test]
    fn writes_survive_reopen() {
        let dir = temp_store("reopen");
        {
            let live = open(&dir, LiveOptions::default());
            live.upsert(ObjectId(3), g(0.7)).unwrap();
            live.upsert(ObjectId(1), g(0.4)).unwrap();
            live.delete(ObjectId(1)).unwrap();
        }
        let live = open(&dir, LiveOptions::default());
        let snap = live.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.random_access(ObjectId(3)), Some(g(0.7)));
        assert_eq!(snap.random_access(ObjectId(1)), None);
        assert_eq!(live.live_len(), 1);
    }

    #[test]
    fn snapshots_pin_the_state_at_the_call() {
        let dir = temp_store("pin");
        let live = open(&dir, LiveOptions::default());
        live.upsert(ObjectId(0), g(0.5)).unwrap();
        let before = live.snapshot();
        live.upsert(ObjectId(0), g(0.9)).unwrap();
        live.upsert(ObjectId(1), g(0.1)).unwrap();
        let after = live.snapshot();
        assert_eq!(before.random_access(ObjectId(0)), Some(g(0.5)));
        assert_eq!(before.len(), 1);
        assert_eq!(after.random_access(ObjectId(0)), Some(g(0.9)));
        assert_eq!(after.len(), 2);
        // Unchanged state: the snapshot is cached, not rebuilt.
        assert!(Arc::ptr_eq(&after, &live.snapshot()));
    }

    #[test]
    fn flush_compacts_to_one_segment_and_collects_old_files() {
        let dir = temp_store("flush");
        let live = open(&dir, LiveOptions::default());
        for i in 0..100u64 {
            live.upsert(ObjectId(i), g((i as f64) / 100.0)).unwrap();
        }
        live.delete(ObjectId(50)).unwrap();
        assert!(live.flush().unwrap());
        assert_eq!(live.frozen_layers(), 0);
        // Exactly one segment and the (fresh) active WAL remain.
        let mut segs = 0;
        let mut wals = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_str().unwrap().to_owned();
            segs += usize::from(name.ends_with(".seg"));
            wals += usize::from(name.ends_with(".wal"));
        }
        assert_eq!((segs, wals), (1, 1));
        let snap = live.snapshot();
        assert_eq!(snap.len(), 99);
        assert_eq!(snap.random_access(ObjectId(50)), None);
        assert_eq!(snap.random_access(ObjectId(99)), Some(g(0.99)));
        assert_eq!(snap.sorted_access(0).unwrap().object, ObjectId(99));
    }

    #[test]
    fn the_merge_shadows_the_base_segment() {
        let dir = temp_store("shadow");
        let live = open(&dir, LiveOptions::default());
        for i in 0..10u64 {
            live.upsert(ObjectId(i), g(0.5)).unwrap();
        }
        live.flush().unwrap();
        // Overlay on top of the compacted base: one raise, one lower, one
        // delete, one brand-new object.
        live.upsert(ObjectId(3), g(0.9)).unwrap();
        live.upsert(ObjectId(4), g(0.1)).unwrap();
        live.delete(ObjectId(5)).unwrap();
        live.upsert(ObjectId(77), g(0.7)).unwrap();
        let snap = live.snapshot();
        assert_eq!(snap.len(), 10);
        let mut stream = Vec::new();
        assert_eq!(snap.sorted_batch(0, 64, &mut stream), 10);
        let ranked: Vec<(u64, f64)> = stream
            .iter()
            .map(|e| (e.object.0, e.grade.value()))
            .collect();
        assert_eq!(
            ranked,
            vec![
                (3, 0.9),
                (77, 0.7),
                (0, 0.5),
                (1, 0.5),
                (2, 0.5),
                (6, 0.5),
                (7, 0.5),
                (8, 0.5),
                (9, 0.5),
                (4, 0.1),
            ]
        );
        // Bounded reads are an exact prefix of the unbounded stream; the
        // bound is advisory, so the first below-bound entry may slip out
        // before the stop (exactly like the default chunked walk).
        let mut bounded = Vec::new();
        let result = snap.sorted_batch_bounded(0, 64, g(0.5), &mut bounded);
        assert!(result.truncated);
        assert_eq!(bounded, stream[..result.appended]);
        assert!(result.appended >= 9, "everything at or above the bound");
        // Random batches answer positionally across overlay and base.
        let mut answers = Vec::new();
        snap.random_batch(
            &[ObjectId(5), ObjectId(3), ObjectId(8), ObjectId(1000)],
            &mut answers,
        );
        assert_eq!(answers, vec![None, Some(g(0.9)), Some(g(0.5)), None]);
    }

    #[test]
    fn memtable_limit_freezes_and_background_compaction_drains() {
        let dir = temp_store("auto");
        let live = open(
            &dir,
            LiveOptions {
                memtable_limit: 8,
                auto_compact: true,
                ..LiveOptions::default()
            },
        );
        for i in 0..64u64 {
            live.upsert(ObjectId(i), g(0.25)).unwrap();
        }
        // The background thread owns the drain; wait for it to catch up.
        for _ in 0..500 {
            if live.frozen_layers() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(live.frozen_layers(), 0, "compactor drains frozen layers");
        assert!(live.last_compact_error().is_none());
        assert_eq!(live.snapshot().len(), 64);
        assert_eq!(live.live_len(), 64);
    }

    #[test]
    fn crisp_and_ones_follow_the_visible_state() {
        let dir = temp_store("crisp");
        let live = open(&dir, LiveOptions::default());
        live.upsert(ObjectId(0), Grade::ONE).unwrap();
        live.upsert(ObjectId(1), Grade::ZERO).unwrap();
        live.upsert(ObjectId(2), Grade::ONE).unwrap();
        assert!(live.is_crisp());
        assert_eq!(live.ones(), 2);
        let snap = live.snapshot();
        assert_eq!(snap.matching_set(), vec![ObjectId(0), ObjectId(2)]);
        live.upsert(ObjectId(2), g(0.5)).unwrap();
        assert!(!live.is_crisp());
        assert_eq!(live.ones(), 1);
        live.flush().unwrap();
        assert!(!live.is_crisp(), "the segment re-verifies crispness");
        live.upsert(ObjectId(2), Grade::ONE).unwrap();
        live.flush().unwrap();
        assert!(live.is_crisp(), "compaction makes crispness exact again");
        assert_eq!(live.ones(), 2);
        assert_eq!(
            live.snapshot().matching_set(),
            vec![ObjectId(0), ObjectId(2)]
        );
    }

    #[test]
    fn recovery_replays_sealed_and_active_logs() {
        let dir = temp_store("sealed");
        {
            let live = open(
                &dir,
                LiveOptions {
                    memtable_limit: 4,
                    ..LiveOptions::default()
                },
            );
            // 10 writes with limit 4: two freezes happen, no compaction
            // (auto_compact off) — the directory holds sealed WALs.
            for i in 0..10u64 {
                live.upsert(ObjectId(i), g(0.3)).unwrap();
            }
            assert!(live.frozen_layers() > 0);
        }
        let live = open(
            &dir,
            LiveOptions {
                memtable_limit: 4,
                ..LiveOptions::default()
            },
        );
        assert_eq!(live.live_len(), 10);
        assert!(live.frozen_layers() > 0, "sealed logs replay as frozen");
        live.flush().unwrap();
        assert_eq!(live.snapshot().len(), 10);
    }

    #[test]
    #[should_panic(expected = "outside the universe size")]
    fn universe_bound_is_enforced_on_writes() {
        let dir = temp_store("universe");
        let live = open(
            &dir,
            LiveOptions {
                universe: Some(8),
                ..LiveOptions::default()
            },
        );
        let _ = live.upsert(ObjectId(8), g(0.5));
    }

    fn open_faulty(name: &str) -> (PathBuf, LiveSource, Arc<FaultVfs>) {
        let dir = temp_store(name);
        let fault = Arc::new(FaultVfs::new());
        let live = open(
            &dir,
            LiveOptions {
                vfs: Some(Arc::clone(&fault) as Arc<dyn Vfs>),
                ..LiveOptions::default()
            },
        );
        (dir, live, fault)
    }

    #[test]
    fn store_survives_a_panicked_reader_thread() {
        let (_dir, live, fault) = open_faulty("poisoned-reader");
        let ops: Vec<WalOp> = (0..2000u64)
            .map(|i| WalOp::Upsert {
                object: ObjectId(i),
                grade: g(0.1 + 0.8 * (i as f64) / 2000.0),
            })
            .collect();
        live.write_batch(&ops).unwrap();
        live.flush().unwrap();
        let snap = live.snapshot();
        // Warm the head of the merge so recovery has something cached.
        assert!(snap.sorted_access(0).is_some());
        // Every further segment read fails permanently: a reader thread
        // asking for a deep rank panics on the infallible path while it
        // holds the snapshot's merge lock, poisoning it.
        fault.push_rule(FaultRule {
            path_contains: ".seg".to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Permanent,
        });
        let reader = std::thread::spawn({
            let snap = Arc::clone(&snap);
            move || snap.sorted_access(1999)
        });
        assert!(reader.join().is_err(), "deep read should have panicked");
        // The poisoned merge lock recovers via `into_inner`: already
        // merged ranks still answer on this thread.
        assert!(snap.sorted_access(0).is_some());
        // Deep reads now hit the quarantined base, but the fallible path
        // reports that as a typed error — no panic, `out` untouched.
        let mut out = Vec::new();
        let err = snap.try_sorted_batch(1000, 10, &mut out).unwrap_err();
        assert!(err.quarantined, "quarantine must be typed: {err}");
        assert!(out.is_empty());
        // Quarantine is per-open-segment state; once the disk recovers, a
        // reopen of the same directory serves everything again.
        fault.clear();
        drop(snap);
        drop(live);
        let live = LiveSource::open(
            &_dir,
            Arc::new(BlockCache::new(256)),
            LiveOptions {
                vfs: Some(Arc::clone(&fault) as Arc<dyn Vfs>),
                ..LiveOptions::default()
            },
        )
        .unwrap();
        live.upsert(ObjectId(5000), g(0.5)).unwrap();
        let fresh = live.snapshot();
        assert_eq!(fresh.len(), 2001);
        assert_eq!(fresh.random_access(ObjectId(5000)), Some(g(0.5)));
        assert!(fresh.sorted_access(1999).is_some());
    }

    #[test]
    fn write_batch_base_read_fault_is_typed_and_applies_nothing() {
        // Cache capacity 0: every base probe is a real read.
        let dir = temp_store("write-fault");
        let fault = Arc::new(FaultVfs::new());
        let reopen = || {
            let opts = LiveOptions {
                vfs: Some(Arc::clone(&fault) as Arc<dyn Vfs>),
                ..LiveOptions::default()
            };
            LiveSource::open(&dir, Arc::new(BlockCache::new(0)), opts).unwrap()
        };
        let live = reopen();
        let base: Vec<WalOp> = (0..200u64)
            .map(|i| WalOp::Upsert {
                object: ObjectId(i),
                grade: if i % 10 == 0 {
                    Grade::ONE
                } else {
                    g(i as f64 / 200.0)
                },
            })
            .collect();
        live.write_batch(&base).unwrap();
        live.flush().unwrap();
        live.upsert(ObjectId(500), g(0.5)).unwrap();
        let acknowledged = (live.live_len(), live.ones(), live.wal_bytes());
        assert_eq!(acknowledged.0, 201);
        assert_eq!(acknowledged.1, 20);

        // Objects 3, 10 and 900 are held by no memtable: the statistics
        // need their base grades, and the segment cannot be read.
        let batch = [
            WalOp::Upsert {
                object: ObjectId(3),
                grade: Grade::ONE,
            },
            WalOp::Delete {
                object: ObjectId(10),
            },
            WalOp::Upsert {
                object: ObjectId(500),
                grade: g(0.9),
            },
            WalOp::Upsert {
                object: ObjectId(900),
                grade: Grade::ONE,
            },
        ];
        fault.push_rule(FaultRule {
            path_contains: ".seg".to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Permanent,
        });
        let err = live.write_batch(&batch).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "typed error: {err}");
        // Nothing was logged and nothing applied; the store mutex is not
        // poisoned and a write the overlay can account for still lands.
        assert_eq!(
            (live.live_len(), live.ones(), live.wal_bytes()),
            acknowledged
        );
        live.upsert(ObjectId(500), g(0.6)).unwrap();

        // The segment quarantined itself (reopen to recover, as for reads).
        // Once the disk is back, the store holds exactly the acknowledged
        // writes and takes the batch.
        fault.clear();
        drop(live);
        let live = reopen();
        assert_eq!((live.live_len(), live.ones()), (201, 20));
        let snap = live.snapshot();
        assert_eq!(snap.random_access(ObjectId(3)), Some(g(3.0 / 200.0)));
        assert_eq!(snap.random_access(ObjectId(10)), Some(Grade::ONE));
        assert_eq!(snap.random_access(ObjectId(500)), Some(g(0.6)));
        assert_eq!(snap.random_access(ObjectId(900)), None);
        live.write_batch(&batch).unwrap();
        assert_eq!((live.live_len(), live.ones()), (201, 21));
        let snap = live.snapshot();
        assert_eq!(snap.random_access(ObjectId(3)), Some(Grade::ONE));
        assert_eq!(snap.random_access(ObjectId(10)), None);
        assert_eq!(snap.random_access(ObjectId(500)), Some(g(0.9)));
        assert_eq!(snap.random_access(ObjectId(900)), Some(Grade::ONE));
    }

    #[test]
    fn failed_compaction_is_invisible_and_retryable() {
        let (dir, live, fault) = open_faulty("compact-fault");
        for i in 0..50u64 {
            live.upsert(ObjectId(i), g(0.2 + (i as f64) / 100.0))
                .unwrap();
        }
        live.freeze().unwrap();
        // The commit rename of the new segment fails once.
        fault.push_rule(FaultRule {
            path_contains: ".seg".to_owned(),
            op: FaultOp::Rename,
            nth: 0,
            kind: FaultKind::Transient { times: 1 },
        });
        let err = live.compact().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "typed error: {err}");
        // Pre-compaction state is fully intact: same contents, the frozen
        // layer still pending, and no tmp debris on disk.
        let snap = live.snapshot();
        assert_eq!(snap.len(), 50);
        assert_eq!(snap.random_access(ObjectId(7)), Some(g(0.27)));
        assert_eq!(live.frozen_layers(), 1);
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(debris.is_empty(), "leftover tmp files: {debris:?}");
        // The transient fault has passed: the retry commits the round.
        assert!(live.compact().unwrap());
        assert_eq!(live.frozen_layers(), 0);
        let snap = live.snapshot();
        assert_eq!(snap.len(), 50);
        assert_eq!(snap.random_access(ObjectId(7)), Some(g(0.27)));
    }
}
