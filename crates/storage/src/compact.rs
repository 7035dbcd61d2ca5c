//! Background compaction for [`crate::live::LiveSource`]: frozen
//! memtables are merged with the base segment into a fresh segment,
//! swapped in atomically through the manifest, and the obsolete files
//! garbage-collected.
//!
//! One compaction is four phases, holding the store lock only for the
//! bracketing bookkeeping (readers and writers proceed throughout the
//! expensive middle):
//!
//! 1. **Pin** (store lock): grab the frozen layers, the base segment, and
//!    a file id for the new segment.
//! 2. **Build** (no locks): fold the frozen layers the way a snapshot
//!    folds its overlay (`fold_overlay` with no active layer: newest layer
//!    wins, tombstones drop), keep the base entries no layer holds — read
//!    with the segment's own scan, so a bad block stays a
//!    [`StorageError::ChecksumMismatch`] — and write the new segment
//!    through the ordinary [`crate::SegmentWriter`] atomic-publish path.
//! 3. **Swap** (store lock): publish a manifest whose epoch points at the
//!    new segment and only the still-live WALs (each frozen layer stands
//!    for exactly one sealed WAL, so the flushed prefix of layers retires
//!    the same-length prefix of logs), then splice the new base in and
//!    drop the flushed frozen prefix. The manifest rename is the
//!    commit point — a crash on either side of it recovers cleanly.
//! 4. **GC** (no locks): retire the old segment's blocks from the shared
//!    [`crate::BlockCache`] and delete the old segment and sealed WAL
//!    files. In-flight snapshots still holding the old
//!    [`crate::SegmentSource`] keep reading it through their open file
//!    handle; the blocks they re-admit die with their `Arc`.
//!
//! Writers may freeze *more* memtables between phases 1 and 3; the swap
//! only consumes the pinned prefix (and its sealed WALs), leaving the
//! newcomers for the next round — which the signal loop immediately runs.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::StorageError;
use crate::live::{merged_pairs, LiveShared};
use crate::manifest::file_name_for;
use crate::segment::SegmentSource;
use crate::writer::SegmentWriter;

/// Runs one full compaction round (see the module docs). Returns `false`
/// when there was nothing frozen to flush. Serialized against concurrent
/// callers by the store's compaction lock.
pub(crate) fn compact_once(shared: &LiveShared) -> Result<bool, StorageError> {
    let _serialize = shared
        .compact_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let start = std::time::Instant::now();

    // Phase 1: pin the inputs.
    let (frozen, base, new_file_id) = {
        let inner = shared.inner();
        if inner.frozen.is_empty() {
            return Ok(false);
        }
        (
            inner.frozen.clone(),
            inner.base.clone(),
            inner.manifest.next_file_id,
        )
    };

    // Phase 2: build the replacement segment outside every lock. Any
    // failure before the manifest rename in phase 3 leaves the
    // pre-compaction state fully intact (the tmp file is cleaned up by
    // the writer's guard), so a later round can simply retry.
    let pairs = merged_pairs(base.as_ref(), &frozen)?;
    let new_segment = if pairs.is_empty() {
        None
    } else {
        let name = file_name_for(new_file_id, "seg");
        let path = shared.dir.join(&name);
        SegmentWriter::new()
            .with_vfs(Arc::clone(&shared.vfs))
            .write_pairs(&path, pairs)?;
        let source = SegmentSource::open_with(&path, Arc::clone(&shared.cache), &shared.vfs)?;
        Some((name, Arc::new(source)))
    };

    // Phase 3: swap, with the manifest rename as the commit point.
    let (old_base, obsolete_wals) = {
        let mut inner = shared.inner();
        // One sealed WAL per frozen layer, in the same order.
        let flushed = frozen.len();
        let mut manifest = inner.manifest.clone();
        manifest.epoch += 1;
        manifest.next_file_id = manifest.next_file_id.max(new_file_id + 1);
        manifest.segment = new_segment.as_ref().map(|(name, _)| name.clone());
        let obsolete: Vec<String> = manifest.wals.drain(..flushed).collect();
        manifest.store(&shared.dir, &shared.vfs)?;
        inner.manifest = manifest;
        let old_base = std::mem::replace(&mut inner.base, new_segment.map(|(_, source)| source));
        inner.frozen.drain(..flushed);
        inner.bump_version();
        (old_base, obsolete)
    };

    // Phase 4: reclaim what the new manifest no longer references.
    if let Some(old) = old_base {
        shared.cache.retire(old.segment_id());
        let _ = shared.vfs.remove_file(old.path());
    }
    for name in obsolete_wals {
        let _ = shared.vfs.remove_file(&shared.dir.join(name));
    }
    if let Some(m) = &shared.metrics {
        m.compaction_ns
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Ok(true)
}

/// Wakes the background compactor; coalesces bursts of notifications into
/// single rounds and carries the shutdown request.
pub(crate) struct CompactSignal {
    state: Mutex<SignalState>,
    condvar: Condvar,
}

#[derive(Default)]
struct SignalState {
    pending: bool,
    shutdown: bool,
}

impl CompactSignal {
    pub(crate) fn new() -> CompactSignal {
        CompactSignal {
            state: Mutex::new(SignalState::default()),
            condvar: Condvar::new(),
        }
    }

    /// Requests a compaction round (no-op without a listening thread; the
    /// flag is simply consumed by the next explicit compaction).
    pub(crate) fn notify(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending = true;
        self.condvar.notify_all();
    }

    fn request_shutdown(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.condvar.notify_all();
    }

    /// Blocks until work is pending or shutdown is requested; returns
    /// `false` on shutdown.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.shutdown {
                return false;
            }
            if state.pending {
                state.pending = false;
                return true;
            }
            state = self
                .condvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Sleeps for `delay` (the retry backoff) but wakes immediately on
    /// shutdown; returns `false` when shutdown was requested so the
    /// compactor can exit instead of finishing its retry schedule.
    fn wait_retry(&self, delay: Duration) -> bool {
        let deadline = Instant::now() + delay;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.shutdown {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            let (guard, _timed_out) = self
                .condvar
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }
}

/// The running background compactor; joined on [`crate::LiveSource`] drop.
pub(crate) struct CompactorHandle {
    thread: JoinHandle<()>,
}

impl CompactorHandle {
    /// Asks the thread to exit and joins it.
    pub(crate) fn shutdown(self, signal: &CompactSignal) {
        signal.request_shutdown();
        let _ = self.thread.join();
    }
}

/// Initial retry backoff after a failed background compaction round.
const RETRY_BASE: Duration = Duration::from_millis(10);
/// Backoff cap: a persistently failing disk costs one attempt per second.
const RETRY_CAP: Duration = Duration::from_secs(1);
/// Consecutive failures after which the compactor stops retrying and
/// waits for the next freeze notification instead (the error stays
/// recorded in `last_error` either way).
const RETRY_ATTEMPTS: u32 = 8;

/// Spawns the background compactor: each wake-up drains every frozen
/// layer, recording (not panicking on) errors for the owner to collect.
/// Transient I/O errors are retried with capped exponential backoff;
/// shutdown interrupts the backoff sleep immediately. A thread the OS
/// refuses is an `Err(StorageError::Io)`.
pub(crate) fn spawn(shared: Arc<LiveShared>) -> Result<CompactorHandle, StorageError> {
    let thread = std::thread::Builder::new()
        .name("garlic-compact".into())
        .spawn(move || {
            while shared.signal.wait() {
                let mut failures: u32 = 0;
                loop {
                    match compact_once(&shared) {
                        Ok(true) => failures = 0,
                        Ok(false) => break,
                        Err(error) => {
                            *shared
                                .last_error
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner) = Some(error);
                            failures += 1;
                            if failures >= RETRY_ATTEMPTS {
                                break;
                            }
                            let backoff = RETRY_BASE
                                .saturating_mul(1 << (failures - 1).min(10))
                                .min(RETRY_CAP);
                            if !shared.signal.wait_retry(backoff) {
                                return;
                            }
                        }
                    }
                }
            }
        })?;
    Ok(CompactorHandle { thread })
}
