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
//! it is applied to the active memtable (an id-ordered table of grades and
//! tombstones) — an acknowledged write survives any crash. When the active
//! memtable reaches `memtable_limit` ops it is frozen (the WAL rotates, the
//! manifest epoch bumps) and the background compactor merges every frozen
//! layer with the base segment into a fresh segment, swaps it in
//! atomically through the [`crate::manifest::Manifest`], retires the old
//! segment's blocks from the shared [`crate::BlockCache`], and deletes
//! the obsolete WAL and segment files. Each frozen layer stands for
//! exactly one sealed WAL: a freeze seals one, and recovery replays each
//! sealed log into a layer of its own.
//!
//! The overlay's layer order — active first, then frozen from newest to
//! oldest, the first layer holding an object deciding its state — is
//! stated once, by `newest_first`; recovery, the write path, snapshots and
//! compaction all walk it. Snapshots and compaction fold it the same way,
//! through `fold_overlay` ("newest layer wins, tombstones drop").
//!
//! # Snapshot semantics
//!
//! Readers never see the store mid-write: [`LiveSource::snapshot`] builds
//! an immutable [`LiveSnapshot`] pinned to the manifest epoch and the
//! write version at the moment of the call. Its sorted stream is one
//! [`garlic_core::Merge`] — the k-way merge [`garlic_core::ShardedSource`]
//! streams through, descending grade with ties by ascending object id —
//! over two runs: the overlay's live entries (active + frozen memtables,
//! newest layer winning), known up front, and the base segment, whose
//! refills drop every object the overlay *shadows* (an upsert hides the
//! older grade, a tombstone hides the object). The matching set is
//! `SetAccess`'s one provided body over that stream: its grade-1 prefix,
//! read like any other sorted access. The resulting stream, random access
//! answers, and matching set are **provably identical** to
//! a freshly built [`garlic_core::access::MemorySource`] over the same
//! live contents, so the Section 5 billed access counts of anything
//! running on top are identical too. The snapshot is also the one source
//! of the store's statistics: its length, exact-match count and
//! crispness. Snapshots are cheap when nothing changed: the source caches
//! the last snapshot per write version.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, SetAccess, SourceError};
use garlic_core::{FxHashMap, GradedEntry, Merge, ObjectId};

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
    /// When set, writes must grade objects inside `0..universe`: an
    /// out-of-range write, or a reopened store whose data grades such an
    /// object, is a [`StorageError::UniverseMismatch`].
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
    /// Frozen memtables, oldest first, one per sealed WAL (in the
    /// manifest's order). Only the compactor removes them, and always a
    /// prefix.
    pub(crate) frozen: Vec<Arc<Memtable>>,
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

impl LiveShared {
    /// The store lock, recovered if poisoned.
    pub(crate) fn inner(&self) -> MutexGuard<'_, LiveInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A durable, writable graded source (see the module docs).
pub struct LiveSource {
    shared: Arc<LiveShared>,
    compactor: Mutex<Option<CompactorHandle>>,
}

impl std::fmt::Debug for LiveSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.inner();
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
    /// is replayed — each sealed log into a frozen layer of its own, the
    /// active log into the active memtable. Torn WAL tails are truncated;
    /// a corrupt manifest or segment is a typed error, never a guess, and
    /// so is a compactor thread the OS refuses to spawn.
    pub fn open(
        dir: &Path,
        cache: Arc<BlockCache>,
        opts: LiveOptions,
    ) -> Result<LiveSource, StorageError> {
        std::fs::create_dir_all(dir)?;
        let vfs = opts.vfs.clone().unwrap_or_else(std_vfs);
        let manifest = match Manifest::load(dir, &vfs) {
            Ok(m) => m,
            Err(StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                let m = Manifest::initial();
                Wal::create(&dir.join(&m.wals[0]), &vfs)?;
                m.store(dir, &vfs)?;
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

        // Replay: each sealed log (all but the last) into a frozen layer
        // of its own, as the freeze that sealed it left it; the last log
        // is the active one and replays into the active memtable.
        let metrics = opts.telemetry.as_deref().map(LiveMetrics::resolve);
        let mut replayed = 0u64;
        let mut ops = Vec::new();
        let mut replay = |name: &String| -> Result<(Wal, Memtable), StorageError> {
            ops.clear();
            let wal = Wal::open(&dir.join(name), &mut ops, &vfs)?;
            replayed += ops.len() as u64;
            let mut layer = Memtable::default();
            for &op in &ops {
                layer.apply(op);
            }
            Ok((wal, layer))
        };
        #[allow(
            clippy::expect_used,
            reason = "Manifest::load refuses a manifest without an active WAL"
        )]
        let (active_name, sealed) = manifest
            .wals
            .split_last()
            .expect("a manifest lists an active WAL");
        let mut frozen = Vec::with_capacity(sealed.len());
        for name in sealed {
            frozen.push(Arc::new(replay(name)?.1));
        }
        let (wal, active) = replay(active_name)?;
        if let Some(m) = &metrics {
            m.wal_replayed_ops.add(replayed);
        }

        // Rebuild the visible statistics from the base segment plus the
        // overlay's deltas.
        let (newest, _): (FxHashMap<_, _>, _) = fold_overlay(Some(&active), &frozen);
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
                if max >= universe {
                    return Err(StorageError::UniverseMismatch {
                        universe,
                        detail: format!("live store grades object #{max}"),
                    });
                }
            }
        }

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
            .then(|| compact::spawn(Arc::clone(&shared)))
            .transpose()?;
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
    /// whole batch, the sustained-ingest fast path. If
    /// [`LiveOptions::universe`] is set and an op grades an object outside
    /// it, the batch is a [`StorageError::UniverseMismatch`] and nothing is
    /// logged or applied.
    pub fn write_batch(&self, ops: &[WalOp]) -> Result<(), StorageError> {
        if ops.is_empty() {
            return Ok(());
        }
        if let Some(universe) = self.shared.opts.universe {
            if let Some(op) = ops.iter().find(|op| op.object().index() >= universe) {
                return Err(StorageError::UniverseMismatch {
                    universe,
                    detail: format!("live write grades object {}", op.object()),
                });
            }
        }
        let mut inner = self.shared.inner();
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
            #[allow(
                clippy::expect_used,
                reason = "every object the overlay does not hold is in unheld"
            )]
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
        freeze_locked(&self.shared, &mut self.shared.inner())
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
    /// contents (see the module docs), and the one source of its
    /// statistics: [`len`](GradedSource::len),
    /// [`exact_match_count`](LiveSnapshot::exact_match_count) and
    /// [`is_crisp`](LiveSnapshot::is_crisp). Cached per write version:
    /// snapshots between writes are one `Arc` clone.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        let mut inner = self.shared.inner();
        if let Some((version, snapshot)) = &inner.cached {
            if *version == inner.version {
                return Arc::clone(snapshot);
            }
        }
        let snapshot = Arc::new(build_snapshot(&inner));
        inner.cached = Some((inner.version, Arc::clone(&snapshot)));
        snapshot
    }

    /// The manifest epoch — bumped by every freeze and compaction swap.
    pub fn epoch(&self) -> u64 {
        self.shared.inner().manifest.epoch
    }

    /// Committed bytes in the active WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.shared.inner().wal.committed_bytes()
    }

    /// Number of frozen memtables awaiting compaction.
    pub fn frozen_layers(&self) -> usize {
        self.shared.inner().frozen.len()
    }

    /// The current base segment, once a compaction has written one.
    pub fn base(&self) -> Option<Arc<SegmentSource>> {
        self.shared.inner().base.clone()
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

/// The overlay's layers in precedence order: `active` (when given), then
/// the `frozen` layers (stored oldest first) from newest to oldest. The
/// first layer that holds an object decides its state; the base segment
/// decides only for objects no layer holds.
fn newest_first<'a>(
    active: Option<&'a Memtable>,
    frozen: &'a [Arc<Memtable>],
) -> impl DoubleEndedIterator<Item = &'a Memtable> {
    active
        .into_iter()
        .chain(frozen.iter().rev().map(|layer| &**layer))
}

/// The object's state in the overlay. `None` means no layer holds a write
/// for it and the base segment decides.
fn overlay_state(inner: &LiveInner, object: ObjectId) -> Option<MemEntry> {
    newest_first(Some(&inner.active), &inner.frozen).find_map(|layer| layer.get(object))
}

/// Every object the overlay holds, with the state its newest layer gives
/// it ("newest layer wins": the layers fold oldest first, each newer one
/// overwriting), and whether every grade in any layer — shadowed ones
/// included — is crisp. Snapshots fold the active layer too, into a hash
/// map for their per-entry lookups; compaction folds only the frozen ones,
/// into the leaner ordered map.
fn fold_overlay<M: Default + Extend<(ObjectId, MemEntry)>>(
    active: Option<&Memtable>,
    frozen: &[Arc<Memtable>],
) -> (M, bool) {
    let mut newest = M::default();
    let mut crisp = true;
    for layer in newest_first(active, frozen).rev() {
        newest.extend(layer.table_iter().inspect(|(_, state)| {
            crisp &= state.grade().is_none_or(Grade::is_crisp);
        }));
    }
    (newest, crisp)
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
    let new_wal = Wal::create(&shared.dir.join(&new_name), &shared.vfs)?;
    let mut manifest = inner.manifest.clone();
    manifest.epoch += 1;
    manifest.next_file_id = new_id + 1;
    manifest.wals.push(new_name);
    manifest.store(&shared.dir, &shared.vfs)?;
    inner.manifest = manifest;
    inner.wal = new_wal;
    inner
        .frozen
        .push(Arc::new(std::mem::take(&mut inner.active)));
    inner.bump_version();
    if let Some(m) = &shared.metrics {
        m.freezes.inc();
    }
    Ok(true)
}

/// Builds the immutable snapshot of the current state: the combined
/// overlay (newest layer winning) as a shadow map plus a skeleton-ordered
/// known run of the merge, beside the pinned base segment as its one read
/// run. Crispness is conservative: any fuzzy grade left in any memtable,
/// shadowed or not, makes the snapshot fuzzy until compaction re-verifies
/// the base.
fn build_snapshot(inner: &LiveInner) -> LiveSnapshot {
    let (shadow, overlay_crisp): (FxHashMap<_, _>, _) =
        fold_overlay(Some(&inner.active), &inner.frozen);
    let mut overlay: Vec<GradedEntry> = shadow
        .iter()
        .filter_map(|(&object, state)| state.grade().map(|grade| GradedEntry { object, grade }))
        .collect();
    overlay.sort_unstable_by(GradedEntry::skeleton_cmp);
    LiveSnapshot {
        shadow,
        base: inner.base.clone(),
        len: inner.len,
        ones: inner.ones,
        crisp: overlay_crisp && inner.base.as_ref().is_none_or(|b| b.is_crisp()),
        epoch: inner.manifest.epoch,
        merge: Mutex::new(Merge::new(inner.len, 1).with_known_run(overlay)),
    }
}

/// An immutable, epoch-pinned view of a [`LiveSource`]'s contents, serving
/// the full `GradedSource + SetAccess` contract. Entries, tie order, and
/// access answers are identical to a [`MemorySource`] built from the same
/// live pairs — which is exactly what `tests/live_equivalence.rs` pins.
///
/// [`MemorySource`]: garlic_core::access::MemorySource
pub struct LiveSnapshot {
    /// Every overlaid object — upserts shadow the base's grade, tombstones
    /// shadow the object entirely.
    shadow: FxHashMap<ObjectId, MemEntry>,
    base: Option<Arc<SegmentSource>>,
    len: usize,
    ones: u64,
    crisp: bool,
    epoch: u64,
    /// The base segment (run 0, shadowed entries dropped at refill) merged
    /// with the overlay's live entries (a known run).
    merge: Mutex<Merge>,
}

impl std::fmt::Debug for LiveSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveSnapshot")
            .field("len", &self.len)
            .field("shadowed", &self.shadow.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

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
}

impl GradedSource for LiveSnapshot {
    fn len(&self) -> usize {
        self.len
    }

    /// Sorted access over the merged stream. The base segment's reads
    /// drop the objects the overlay shadows; the merge counts them as
    /// consumed all the same.
    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let read = |_, rank, count, out: &mut Vec<GradedEntry>| {
            let Some(base) = &self.base else {
                return Ok(0);
            };
            let got = base.try_sorted_batch(rank, count, out)?;
            out.retain(|entry| !self.shadow.contains_key(&entry.object));
            Ok(got)
        };
        self.merge
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .try_sorted_batch(start, count, out, read, |_, _, err| Err(err))
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

impl SetAccess for LiveSnapshot {}

/// Compaction's input: the full contents of the base segment plus every
/// frozen layer, as writer-ready pairs in no particular order. The frozen
/// layers fold through [`fold_overlay`] with no active layer, the same
/// fold a snapshot makes: the newest layer wins, tombstones drop, and a
/// base entry survives only where no layer holds its object.
pub(crate) fn merged_pairs(
    base: Option<&Arc<SegmentSource>>,
    frozen: &[Arc<Memtable>],
) -> Result<Vec<(ObjectId, Grade)>, StorageError> {
    let (combined, _): (BTreeMap<_, _>, _) = fold_overlay(None, frozen);
    let mut entries = Vec::new();
    if let Some(base) = base {
        // A failure aborts the compaction attempt (recorded by the
        // compactor and retried later) with the segment's own typed
        // error — a checksum mismatch stays one.
        base.sorted_scan(0, base.len(), &mut entries)?;
    }
    let overlay = combined
        .iter()
        .filter_map(|(&object, state)| state.grade().map(|grade| (object, grade)));
    Ok(entries
        .iter()
        .filter(|e| !combined.contains_key(&e.object))
        .map(|e| (e.object, e.grade))
        .chain(overlay)
        .collect())
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

    /// The current snapshot's visible length and exact-match count.
    fn stats(live: &LiveSource) -> (usize, u64) {
        let snap = live.snapshot();
        (snap.len(), snap.exact_match_count())
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
    }

    #[test]
    fn crisp_and_ones_follow_the_visible_state() {
        let dir = temp_store("crisp");
        let live = open(&dir, LiveOptions::default());
        live.upsert(ObjectId(0), Grade::ONE).unwrap();
        live.upsert(ObjectId(1), Grade::ZERO).unwrap();
        live.upsert(ObjectId(2), Grade::ONE).unwrap();
        let snap = live.snapshot();
        assert!(snap.is_crisp());
        assert_eq!(snap.exact_match_count(), 2);
        assert_eq!(snap.matching_set(), vec![ObjectId(0), ObjectId(2)]);
        live.upsert(ObjectId(2), g(0.5)).unwrap();
        assert!(!live.snapshot().is_crisp());
        assert_eq!(live.snapshot().exact_match_count(), 1);
        live.flush().unwrap();
        assert!(
            !live.snapshot().is_crisp(),
            "the segment re-verifies crispness"
        );
        live.upsert(ObjectId(2), Grade::ONE).unwrap();
        live.flush().unwrap();
        assert!(
            live.snapshot().is_crisp(),
            "compaction makes crispness exact again"
        );
        assert_eq!(live.snapshot().exact_match_count(), 2);
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
        assert_eq!(live.snapshot().len(), 10);
        assert_eq!(
            live.frozen_layers(),
            2,
            "each sealed log replays into a frozen layer of its own"
        );
        live.flush().unwrap();
        assert_eq!(live.snapshot().len(), 10);
    }

    #[test]
    fn universe_bound_is_a_typed_error_on_writes() {
        let dir = temp_store("universe");
        let live = open(
            &dir,
            LiveOptions {
                universe: Some(8),
                ..LiveOptions::default()
            },
        );
        live.upsert(ObjectId(7), g(0.5)).unwrap();
        let wal = live.wal_bytes();
        let err = live
            .write_batch(&[
                WalOp::Upsert {
                    object: ObjectId(1),
                    grade: g(0.9),
                },
                WalOp::Delete {
                    object: ObjectId(8),
                },
            ])
            .unwrap_err();
        assert!(
            matches!(err, StorageError::UniverseMismatch { universe: 8, .. }),
            "{err:?}"
        );
        assert!(
            err.to_string()
                .contains("(size 8): live write grades object #8"),
            "{err}"
        );
        assert_eq!(live.wal_bytes(), wal, "nothing of the batch is logged");
        assert_eq!(stats(&live), (1, 0), "nothing of the batch is applied");
    }

    #[test]
    fn reopening_data_outside_the_universe_is_a_typed_error() {
        let dir = temp_store("universe-reopen");
        let live = open(&dir, LiveOptions::default());
        live.upsert(ObjectId(3), g(0.5)).unwrap();
        live.upsert(ObjectId(1000), g(0.7)).unwrap();
        drop(live);
        let narrow = LiveOptions {
            universe: Some(10),
            ..LiveOptions::default()
        };
        let err =
            LiveSource::open(&dir, Arc::new(BlockCache::new(16)), narrow.clone()).unwrap_err();
        assert!(
            matches!(err, StorageError::UniverseMismatch { universe: 10, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("#1000"), "{err}");
        // The same object out of a compacted base segment.
        let live = open(&dir, LiveOptions::default());
        live.flush().unwrap();
        drop(live);
        let err = LiveSource::open(&dir, Arc::new(BlockCache::new(16)), narrow).unwrap_err();
        assert!(
            matches!(err, StorageError::UniverseMismatch { .. }),
            "{err:?}"
        );
        assert_eq!(stats(&open(&dir, LiveOptions::default())), (2, 0));
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
        let acknowledged = (stats(&live), live.wal_bytes());
        assert_eq!(acknowledged.0, (201, 20));

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
        assert_eq!((stats(&live), live.wal_bytes()), acknowledged);
        live.upsert(ObjectId(500), g(0.6)).unwrap();

        // The segment quarantined itself (reopen to recover, as for reads).
        // Once the disk is back, the store holds exactly the acknowledged
        // writes and takes the batch.
        fault.clear();
        drop(live);
        let live = reopen();
        assert_eq!(stats(&live), (201, 20));
        let snap = live.snapshot();
        assert_eq!(snap.random_access(ObjectId(3)), Some(g(3.0 / 200.0)));
        assert_eq!(snap.random_access(ObjectId(10)), Some(Grade::ONE));
        assert_eq!(snap.random_access(ObjectId(500)), Some(g(0.6)));
        assert_eq!(snap.random_access(ObjectId(900)), None);
        live.write_batch(&batch).unwrap();
        assert_eq!(stats(&live), (201, 21));
        let snap = live.snapshot();
        assert_eq!(snap.random_access(ObjectId(3)), Some(Grade::ONE));
        assert_eq!(snap.random_access(ObjectId(10)), None);
        assert_eq!(snap.random_access(ObjectId(500)), Some(g(0.9)));
        assert_eq!(snap.random_access(ObjectId(900)), Some(Grade::ONE));
    }

    #[test]
    fn compaction_reports_a_corrupt_base_block_as_a_checksum_mismatch() {
        // No cache, so compaction reads the base segment from disk.
        let dir = temp_store("compact-checksum");
        let live =
            LiveSource::open(&dir, Arc::new(BlockCache::new(0)), LiveOptions::default()).unwrap();
        let ops: Vec<WalOp> = (0..200u64)
            .map(|i| WalOp::Upsert {
                object: ObjectId(i),
                grade: g(i as f64 / 200.0),
            })
            .collect();
        live.write_batch(&ops).unwrap();
        live.flush().unwrap();
        live.upsert(ObjectId(7), g(0.5)).unwrap();
        live.freeze().unwrap();
        // Flip a bit inside the base segment's first data block, which
        // starts right after the 8-byte header.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .expect("a base segment");
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes[8 + 3] ^= 0x01;
        std::fs::write(&segment, bytes).unwrap();
        let err = live.compact().unwrap_err();
        assert!(
            matches!(err, StorageError::ChecksumMismatch { .. }),
            "typed error: {err}"
        );
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
