//! The shared block cache: segmented LRU with scan-resistant admission.
//!
//! Disk-backed sources decouple corpus size from RAM only if hot blocks
//! stay resident; [`BlockCache`] is the one RAM budget every
//! [`crate::SegmentSource`] draws from. It is `Send + Sync` and meant to
//! be shared as an `Arc` — one cache per process (or per `DiskSubsystem`)
//! serving every open segment, so the working sets of many attributes
//! compete for the same fixed number of block slots instead of each
//! segment hoarding its own.
//!
//! Blocks are immutable (segments never change after publish), so the
//! cache needs no invalidation protocol: a cached block is correct
//! forever, and concurrent readers share one `Arc<[u8]>` per block.
//! Capacity is counted in blocks; hits, misses, evictions, and admission
//! decisions are metered with atomic counters and surfaced through
//! [`BlockCache::stats`] the same way the Section 5 access counters are —
//! operators tune cache size by watching the hit rate, not by guessing.
//!
//! # Scan resistance
//!
//! A strict LRU has a well-known failure mode for this workload: one cold
//! sequential scan (a deep sorted stream over a large segment) floods the
//! cache with blocks that will never be touched again, evicting the hot
//! working set that random access keeps returning to. The default policy
//! defends against that two ways:
//!
//! - **Segmented LRU.** Resident blocks start *on probation*; a second
//!   access promotes them to the *protected* segment (up to ~4/5 of
//!   capacity; the protected LRU is demoted back to probation when the
//!   segment overflows). A scan's blocks are touched once, so they live
//!   and die in probation — eviction always prefers the probation LRU and
//!   cannot reach the protected set while probation is non-empty.
//! - **TinyLFU admission.** Every request increments a tiny count-min
//!   sketch (4-bit-equivalent saturating counters, periodically halved so
//!   the history ages). When the cache is full, a new block must beat the
//!   would-be victim's frequency estimate to get in; one-touch scan blocks
//!   lose to anything warmer and are *rejected* — returned to the caller
//!   but never made resident, so they cannot displace even probation
//!   residents with a history.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use garlic_core::{fx::FxHasher, FxHashMap};
use garlic_telemetry::{MetricEntry, MetricValue, Telemetry};

use crate::error::StorageError;

/// Identifies one block of one open segment. Segment ids are assigned from
/// a process-wide counter at open time, so any number of segments can share
/// one cache without key collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    /// The opened segment's unique id.
    pub segment: u64,
    /// The file-wide block number within that segment.
    pub block: u64,
}

struct CachedBlock {
    bytes: Arc<[u8]>,
    /// The tick of this block's most recent access. Within a segment,
    /// LRU order is the tick order (ticks are unique).
    tick: u64,
    /// Which segment the block belongs to: `false` = probation (touched
    /// once since admission/demotion), `true` = protected.
    protected: bool,
}

/// The guarded state. The per-block `tick` stamp is the authoritative
/// recency; the two segment indexes are *lazily repaired* tick → key maps
/// that hits never touch: a **hit** — the per-block cost of every warm
/// stream — is one fast-hash lookup plus a tick store (plus, once per
/// residency, a promotion), leaving its index entry stale. **Eviction**
/// (and protected-overflow demotion) pops a map's oldest entry and, if
/// the block's stamp or segment has moved on since, re-files or drops the
/// entry and tries again — every repair is prepaid by the touch that
/// staled it, so eviction stays amortised O(log n) even when the cache
/// thrashes. LRU order within each segment is preserved exactly; only
/// *when* the index learns about a hit moved.
struct CacheState {
    /// Resident blocks, keyed by the fast [`garlic_core::fx`] hash —
    /// block keys are process-internal, and this lookup sits on every
    /// streamed block of every segment read.
    blocks: FxHashMap<BlockKey, CachedBlock>,
    /// Possibly-stale recency index of the probation segment.
    probation: BTreeMap<u64, BlockKey>,
    /// Possibly-stale recency index of the protected segment. Promotion
    /// files a fresh entry here eagerly (it happens once per residency,
    /// not per hit), so every protected block always has a live entry;
    /// the entry left behind in `probation` is dropped lazily.
    protected: BTreeMap<u64, BlockKey>,
    /// How many resident blocks are currently protected.
    protected_members: usize,
    /// TinyLFU frequency sketch gating admission (`None` at capacity 0,
    /// where nothing is ever resident).
    sketch: Option<FrequencySketch>,
    next_tick: u64,
    /// Single-flight table: one entry per block currently being read from
    /// its file. Concurrent misses on the same key wait on the leader's
    /// [`Flight`] instead of issuing duplicate reads.
    in_flight: FxHashMap<BlockKey, Arc<Flight>>,
}

/// A count-min sketch of recent request frequencies — the TinyLFU
/// doorkeeper. Four saturating byte counters per key (indexed by mixes of
/// one fx hash); the minimum over the four is the frequency estimate.
/// After `sample_limit` recordings every counter is halved, so the
/// history decays and a formerly-hot block cannot squat forever.
struct FrequencySketch {
    counters: Vec<u8>,
    /// `counters.len() - 1`; the length is a power of two.
    mask: usize,
    recordings: u64,
    sample_limit: u64,
}

/// Counters saturate here; halving keeps relative order while aging.
const SKETCH_CEILING: u8 = 15;

impl FrequencySketch {
    fn new(capacity_blocks: usize) -> Self {
        // ~8 counters per cache slot keeps collision noise low at a few
        // bytes per block of budget; the sample window of 10× capacity is
        // the classic TinyLFU choice (long enough to learn the working
        // set, short enough to forget it when it shifts).
        let width = (capacity_blocks.saturating_mul(8))
            .next_power_of_two()
            .max(64);
        FrequencySketch {
            counters: vec![0; width],
            mask: width - 1,
            recordings: 0,
            sample_limit: (capacity_blocks as u64).saturating_mul(10).max(64),
        }
    }

    fn spread(key: BlockKey) -> u64 {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    /// Four derived indexes from one hash: odd-constant multiplies keep
    /// the rows independent enough for a min-estimate.
    fn indexes(&self, key: BlockKey) -> [usize; 4] {
        let h = Self::spread(key);
        [
            h as usize & self.mask,
            (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 21) as usize & self.mask,
            (h.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 29) as usize & self.mask,
            (h.rotate_left(32).wrapping_mul(0x1656_67B1_9E37_79F9) >> 17) as usize & self.mask,
        ]
    }

    fn record(&mut self, key: BlockKey) {
        for i in self.indexes(key) {
            let c = &mut self.counters[i];
            *c = (*c + 1).min(SKETCH_CEILING);
        }
        self.recordings += 1;
        if self.recordings >= self.sample_limit {
            for c in &mut self.counters {
                *c /= 2;
            }
            self.recordings = 0;
        }
    }

    fn estimate(&self, key: BlockKey) -> u8 {
        self.indexes(key)
            .into_iter()
            .map(|i| self.counters[i])
            .min()
            .unwrap_or(0)
    }
}

/// The rendezvous a miss's followers wait on while the leader reads the
/// block. Completed exactly once, by the leader (or its unwind guard).
struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

enum FlightState {
    /// The leader is still reading.
    Pending,
    /// The leader finished; the bytes every waiter shares.
    Done(Arc<[u8]>),
    /// The leader's read failed (or the leader unwound): waiters must
    /// retry — the next one in becomes the new leader.
    Failed,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    fn complete(&self, outcome: FlightState) {
        let mut state = self.state.lock().expect("flight lock");
        *state = outcome;
        self.ready.notify_all();
    }

    /// Blocks until the leader completes; `Some(bytes)` on success, `None`
    /// when the flight failed and the caller should retry.
    fn wait(&self) -> Option<Arc<[u8]>> {
        let mut state = self.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Pending => state = self.ready.wait(state).expect("flight lock"),
                FlightState::Done(bytes) => return Some(Arc::clone(bytes)),
                FlightState::Failed => return None,
            }
        }
    }
}

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Block requests served from memory.
    pub hits: u64,
    /// Block requests that had to read the file.
    pub misses: u64,
    /// Blocks dropped to make room.
    pub evictions: u64,
    /// Loaded blocks the admission policy made resident.
    pub admitted: u64,
    /// Loaded blocks the admission policy turned away (served to the
    /// caller but never cached — a one-touch scan block losing the
    /// frequency duel against the would-be victim).
    pub rejected: u64,
    /// Blocks dropped by targeted segment invalidation
    /// ([`BlockCache::retire`]) — compaction replacing a segment, not
    /// capacity pressure (those are `evictions`).
    pub retired: u64,
    /// Blocks currently resident.
    pub resident: usize,
    /// Maximum resident blocks.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of requests served from memory (0 when nothing was asked).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of loaded blocks the admission policy let in (1 when no
    /// admission decision was ever made). A low rate during a cold scan is
    /// the policy working: the scan is being kept out of the cache.
    pub fn admission_rate(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            1.0
        } else {
            self.admitted as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} blocks resident, {} hits / {} misses ({:.1}% hit rate), {} evictions, \
             {} admitted / {} rejected ({:.1}% admission rate), {} retired",
            self.resident,
            self.capacity,
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.evictions,
            self.admitted,
            self.rejected,
            100.0 * self.admission_rate(),
            self.retired,
        )
    }
}

/// A shared, thread-safe block cache: segmented LRU with TinyLFU
/// admission (see the module docs).
///
/// Every counter a stats read needs — hits, misses, evictions, admission
/// decisions, and the resident-block count — is an atomic maintained
/// alongside the guarded state, so [`BlockCache::stats`] never takes the
/// recency lock: operators (and benches) can poll hit rates at any
/// frequency without contending with readers.
pub struct BlockCache {
    capacity: usize,
    /// Target size of the protected segment (0 disables promotion).
    protected_cap: usize,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    retired: AtomicU64,
    resident: AtomicUsize,
}

impl BlockCache {
    /// A scan-resistant cache holding at most `capacity_blocks` blocks
    /// (at the default 4 KiB block size, `capacity_blocks = 1024` is a
    /// 4 MiB budget). Capacity 0 disables residency: every request is a
    /// miss, which is how the cold-cache benchmarks run.
    pub fn new(capacity_blocks: usize) -> Self {
        // ~4/5 protected is the classic SLRU split: enough probation room
        // to observe second touches, most of the budget for the proven
        // working set.
        BlockCache {
            capacity: capacity_blocks,
            protected_cap: capacity_blocks * 4 / 5,
            state: Mutex::new(CacheState {
                blocks: FxHashMap::default(),
                probation: BTreeMap::new(),
                protected: BTreeMap::new(),
                protected_members: 0,
                sketch: (capacity_blocks > 0).then(|| FrequencySketch::new(capacity_blocks)),
                next_tick: 0,
                in_flight: FxHashMap::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    /// Maximum number of resident blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers this cache's counters with `telemetry` as a pull
    /// collector: every [`TelemetrySnapshot`](garlic_telemetry::TelemetrySnapshot)
    /// includes `<prefix>.hits`, `.misses`, `.evictions`, `.admitted`,
    /// `.rejected`, `.retired` (counters) and `.resident`, `.capacity`
    /// (gauges), read from the same atomics [`BlockCache::stats`] reads.
    /// Pull-based, so the cache's hot path pays nothing for being
    /// observable; the collector holds a `Weak` handle and goes quiet when
    /// the cache is dropped.
    pub fn register_telemetry(self: &Arc<Self>, telemetry: &Telemetry, prefix: &str) {
        let weak = Arc::downgrade(self);
        let prefix = prefix.to_string();
        telemetry.register_collector(move |out| {
            let Some(cache) = weak.upgrade() else { return };
            let stats = cache.stats();
            for (name, value) in [
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("evictions", stats.evictions),
                ("admitted", stats.admitted),
                ("rejected", stats.rejected),
                ("retired", stats.retired),
            ] {
                out.push(MetricEntry {
                    name: format!("{prefix}.{name}"),
                    value: MetricValue::Counter(value),
                });
            }
            for (name, value) in [("resident", stats.resident), ("capacity", stats.capacity)] {
                out.push(MetricEntry {
                    name: format!("{prefix}.{name}"),
                    value: MetricValue::Gauge(value as i64),
                });
            }
        });
    }

    /// Counter snapshot — all atomics, no lock taken (see the type docs).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            resident: self.resident.load(Ordering::Relaxed),
            capacity: self.capacity,
        }
    }

    /// Drops every resident block and resets the admission state — the
    /// frequency sketch, segment membership, and the admitted/rejected
    /// counters — in one critical section, so no concurrent request can
    /// observe cleared residency with pre-clear admission history.
    /// Request counters (hits/misses/evictions) are preserved. Turns a
    /// warm cache cold — for tests and cold-path benchmarks.
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("cache lock");
        state.blocks.clear();
        state.probation.clear();
        state.protected.clear();
        state.protected_members = 0;
        if let Some(sketch) = &mut state.sketch {
            *sketch = FrequencySketch::new(self.capacity);
        }
        // Stored while the state lock pins every writer of these counters
        // (admission decisions happen under the lock), making the combined
        // reset atomic.
        self.admitted.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.resident.store(0, Ordering::Relaxed);
    }

    /// Drops every resident block belonging to `segment` — the targeted
    /// invalidation compaction uses when it replaces a segment: the
    /// retired segment's dead blocks stop occupying residency *without*
    /// punishing the survivors. Blocks of every other segment keep their
    /// residency, recency, and protected status; the frequency sketch and
    /// all request/admission counters (hits, misses, evictions, admitted,
    /// rejected) are preserved, so the cache's learned history outlives
    /// the swap. The retired keys' index entries go stale and are
    /// discarded by the same lazy repair that serves hits.
    pub fn retire(&self, segment: u64) {
        let mut state = self.state.lock().expect("cache lock");
        let mut demoted = 0usize;
        let before = state.blocks.len();
        state.blocks.retain(|key, block| {
            let keep = key.segment != segment;
            if !keep && block.protected {
                demoted += 1;
            }
            keep
        });
        self.retired
            .fetch_add((before - state.blocks.len()) as u64, Ordering::Relaxed);
        state.protected_members -= demoted;
        // Stored under the state lock, like `clear`, so residency and the
        // block table never disagree for an observer.
        self.resident.store(state.blocks.len(), Ordering::Relaxed);
    }

    /// Looks `key` up, calling `load` on a miss. The lock is **not** held
    /// across `load`, so concurrent misses on *different* blocks read the
    /// file in parallel — but misses on the *same* block **single-flight**:
    /// exactly one caller (the leader) reads the file and bills one miss;
    /// every racer waits on the leader's [`Flight`] and is billed a hit,
    /// because it was served from memory. If the leader's read fails (or
    /// unwinds), waiters retry and the next one in leads.
    ///
    /// Capacity 0 disables residency *and* deduplication: the documented
    /// cold-cache contract is that every request reads the file, which is
    /// what the cold-path benchmarks measure.
    pub(crate) fn get_or_load(
        &self,
        key: BlockKey,
        load: impl FnOnce() -> Result<Arc<[u8]>, StorageError>,
    ) -> Result<Arc<[u8]>, StorageError> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return load();
        }
        // The leader consumes `load` at most once across loop iterations
        // (a failed follower may loop back and *become* the leader).
        let mut load = Some(load);
        loop {
            let role = {
                let mut state = self.state.lock().expect("cache lock");
                if let Some(bytes) = state.touch(key, self.protected_cap) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(bytes);
                }
                match state.in_flight.get(&key) {
                    Some(flight) => Role::Follower(Arc::clone(flight)),
                    None => {
                        let flight = Arc::new(Flight::new());
                        state.in_flight.insert(key, Arc::clone(&flight));
                        Role::Leader(flight)
                    }
                }
            };
            match role {
                Role::Leader(flight) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    // The guard keeps a panicking `load` from stranding
                    // followers: on unwind it marks the flight failed so
                    // they retry instead of waiting forever.
                    let guard = FlightGuard {
                        cache: self,
                        key,
                        flight: &flight,
                        armed: true,
                    };
                    let result = (load.take().expect("the leader loads at most once"))();
                    guard.publish(&result);
                    return result;
                }
                Role::Follower(flight) => {
                    if let Some(bytes) = flight.wait() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(bytes);
                    }
                    // Leader failed: loop and contend for leadership.
                }
            }
        }
    }
}

/// What a miss turned into once the single-flight table was consulted.
enum Role {
    /// First miss on the key: this caller reads the file.
    Leader(Arc<Flight>),
    /// A read is already in flight: this caller waits for it.
    Follower(Arc<Flight>),
}

/// Completion/unwind guard for a single-flight leader: guarantees the
/// in-flight entry is removed and the flight completed exactly once, even
/// if the load panics mid-read.
struct FlightGuard<'a> {
    cache: &'a BlockCache,
    key: BlockKey,
    flight: &'a Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Publishes the leader's result: caches the bytes on success, then
    /// wakes every follower with the outcome.
    fn publish(mut self, result: &Result<Arc<[u8]>, StorageError>) {
        self.armed = false;
        let mut state = self.cache.state.lock().expect("cache lock");
        state.in_flight.remove(&self.key);
        match result {
            Ok(bytes) => {
                if state.touch(self.key, self.cache.protected_cap).is_none() {
                    let outcome = state.insert(self.key, Arc::clone(bytes), self.cache.capacity);
                    self.cache
                        .evictions
                        .fetch_add(outcome.evicted, Ordering::Relaxed);
                    if outcome.rejected {
                        self.cache.rejected.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.cache.admitted.fetch_add(1, Ordering::Relaxed);
                    }
                    self.cache
                        .resident
                        .store(state.blocks.len(), Ordering::Relaxed);
                }
                drop(state);
                self.flight.complete(FlightState::Done(Arc::clone(bytes)));
            }
            Err(_) => {
                drop(state);
                self.flight.complete(FlightState::Failed);
            }
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // The leader unwound without publishing: fail the flight so
        // followers retry rather than wait forever.
        let mut state = self.cache.state.lock().expect("cache lock");
        state.in_flight.remove(&self.key);
        drop(state);
        self.flight.complete(FlightState::Failed);
    }
}

/// What [`CacheState::insert`] did with the loaded block.
struct InsertOutcome {
    /// Resident blocks dropped to make room.
    evicted: u64,
    /// True when the admission filter turned the block away (nothing was
    /// inserted and nothing evicted).
    rejected: bool,
}

impl CacheState {
    /// Returns the resident block, refreshes its recency stamp, and
    /// records the request in the frequency sketch — the warm hot path:
    /// one hash lookup, a tick store, and four sketch increments. A first
    /// re-touch also promotes the block to the protected segment (once
    /// per residency, demoting the protected LRU if the segment
    /// overflows). The block's old index entry goes stale; eviction
    /// repairs it lazily.
    fn touch(&mut self, key: BlockKey, protected_cap: usize) -> Option<Arc<[u8]>> {
        if !self.blocks.contains_key(&key) {
            return None;
        }
        if let Some(sketch) = &mut self.sketch {
            sketch.record(key);
        }
        let slot = self.blocks.get_mut(&key).expect("checked above");
        slot.tick = self.next_tick;
        self.next_tick += 1;
        let bytes = Arc::clone(&slot.bytes);
        if !slot.protected && protected_cap > 0 {
            slot.protected = true;
            let tick = slot.tick;
            self.protected.insert(tick, key);
            self.protected_members += 1;
            if self.protected_members > protected_cap {
                self.demote_protected_lru();
            }
        }
        Some(bytes)
    }

    /// Pops the live least-recently-used entry of one segment index,
    /// repairing stale entries (re-file under the block's current tick)
    /// and discarding orphans (blocks evicted or moved to the other
    /// segment) along the way. Returns `None` when the index holds no
    /// live entries. The returned key's index entry has been removed —
    /// the caller either evicts/demotes the block or re-files the entry.
    fn pop_lru(&mut self, from_protected: bool) -> Option<BlockKey> {
        loop {
            let index = if from_protected {
                &mut self.protected
            } else {
                &mut self.probation
            };
            let (&oldest, &candidate) = index.iter().next()?;
            index.remove(&oldest);
            match self.blocks.get(&candidate) {
                None => continue,
                Some(block) if block.protected != from_protected => continue,
                Some(block) if block.tick != oldest => {
                    // Stale: re-file under the current stamp and keep
                    // looking — prepaid by the touch that staled it. The
                    // current tick is always newer than the popped one, so
                    // the scan makes strict forward progress.
                    let (tick, key) = (block.tick, candidate);
                    if from_protected {
                        self.protected.insert(tick, key);
                    } else {
                        self.probation.insert(tick, key);
                    }
                }
                Some(_) => return Some(candidate),
            }
        }
    }

    /// Moves the protected LRU back to probation (as its most recent
    /// entry) when the protected segment outgrows its target.
    fn demote_protected_lru(&mut self) {
        if let Some(key) = self.pop_lru(true) {
            let block = self.blocks.get_mut(&key).expect("popped key is resident");
            block.protected = false;
            block.tick = self.next_tick;
            self.next_tick += 1;
            self.probation.insert(block.tick, key);
            self.protected_members -= 1;
        }
    }

    /// Evicts exactly one block: the probation LRU when probation has any
    /// live member, else the protected LRU.
    fn evict_one(&mut self) -> bool {
        let Some(victim) = self.pop_lru(false).or_else(|| self.pop_lru(true)) else {
            return false;
        };
        let block = self.blocks.remove(&victim).expect("popped key is resident");
        if block.protected {
            self.protected_members -= 1;
        }
        true
    }

    /// Inserts a loaded block (on probation), evicting down to `capacity`
    /// — unless the TinyLFU filter is active and the block loses the
    /// frequency duel against the would-be victim, in which case nothing
    /// changes and the block is only handed to the caller.
    fn insert(&mut self, key: BlockKey, bytes: Arc<[u8]>, capacity: usize) -> InsertOutcome {
        if let Some(sketch) = &mut self.sketch {
            sketch.record(key);
            if self.blocks.len() >= capacity {
                if let Some(victim) = self.pop_lru(false).or_else(|| self.pop_lru(true)) {
                    let sketch = self.sketch.as_ref().expect("checked above");
                    if sketch.estimate(key) < sketch.estimate(victim) {
                        // The victim has the warmer history: keep it (its
                        // index entry goes back untouched — it was live)
                        // and turn the newcomer away.
                        let block = &self.blocks[&victim];
                        let (tick, protected) = (block.tick, block.protected);
                        if protected {
                            self.protected.insert(tick, victim);
                        } else {
                            self.probation.insert(tick, victim);
                        }
                        return InsertOutcome {
                            evicted: 0,
                            rejected: true,
                        };
                    }
                    let block = self.blocks.remove(&victim).expect("popped key is resident");
                    if block.protected {
                        self.protected_members -= 1;
                    }
                    let mut outcome = self.insert_unchecked(key, bytes, capacity);
                    outcome.evicted += 1;
                    return outcome;
                }
            }
        }
        self.insert_unchecked(key, bytes, capacity)
    }

    /// The unconditional tail of an admission: make the block resident on
    /// probation and trim to `capacity`.
    fn insert_unchecked(
        &mut self,
        key: BlockKey,
        bytes: Arc<[u8]>,
        capacity: usize,
    ) -> InsertOutcome {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.blocks.insert(
            key,
            CachedBlock {
                bytes,
                tick,
                protected: false,
            },
        );
        self.probation.insert(tick, key);
        let mut evicted = 0;
        while self.blocks.len() > capacity {
            assert!(self.evict_one(), "a full cache always has a victim");
            evicted += 1;
        }
        InsertOutcome {
            evicted,
            rejected: false,
        }
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(block: u64) -> BlockKey {
        BlockKey { segment: 1, block }
    }

    fn bytes(fill: u8) -> Arc<[u8]> {
        Arc::from(vec![fill; 8].into_boxed_slice())
    }

    #[test]
    fn hit_after_miss() {
        let cache = BlockCache::new(4);
        let a = cache.get_or_load(key(0), || Ok(bytes(7))).unwrap();
        let b = cache
            .get_or_load(key(0), || panic!("must not reload"))
            .unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_block() {
        let cache = BlockCache::new(2);
        cache.get_or_load(key(0), || Ok(bytes(0))).unwrap();
        cache.get_or_load(key(1), || Ok(bytes(1))).unwrap();
        // Touch block 0 so block 1 is now the coldest.
        cache.get_or_load(key(0), || panic!("hit")).unwrap();
        cache.get_or_load(key(2), || Ok(bytes(2))).unwrap();
        // Block 1 was evicted; block 0 survived.
        cache.get_or_load(key(0), || panic!("hit")).unwrap();
        let reloaded = std::cell::Cell::new(false);
        cache
            .get_or_load(key(1), || {
                reloaded.set(true);
                Ok(bytes(1))
            })
            .unwrap();
        assert!(reloaded.get(), "evicted block must reload");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn capacity_zero_never_retains() {
        let cache = BlockCache::new(0);
        cache.get_or_load(key(0), || Ok(bytes(0))).unwrap();
        cache.get_or_load(key(0), || Ok(bytes(0))).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (0, 2, 0));
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = BlockCache::new(4);
        cache.get_or_load(key(0), || Ok(bytes(0))).unwrap();
        cache.clear();
        assert_eq!(cache.stats().resident, 0);
        assert_eq!(cache.stats().misses, 1);
        cache.get_or_load(key(0), || Ok(bytes(0))).unwrap();
        assert_eq!(cache.stats().misses, 2, "cleared block reloads");
    }

    #[test]
    fn retire_drops_one_segment_and_spares_the_hot_set() {
        let seg = |segment: u64, block: u64| BlockKey { segment, block };
        let cache = BlockCache::new(8);
        // A hot set on segment 1 (each block touched twice, so some are
        // protected) interleaved with segment 2 residents.
        for block in 0..3 {
            cache.get_or_load(seg(1, block), || Ok(bytes(1))).unwrap();
            cache.get_or_load(seg(1, block), || panic!("hit")).unwrap();
            cache.get_or_load(seg(2, block), || Ok(bytes(2))).unwrap();
        }
        let before = cache.stats();
        assert_eq!(before.resident, 6);

        cache.retire(2);

        // Residency shrinks by exactly the retired segment's blocks; the
        // request and admission history survives untouched.
        let after = cache.stats();
        assert_eq!(after.resident, 3);
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        assert_eq!(after.admitted, before.admitted);
        assert_eq!(after.rejected, before.rejected);
        // The surviving hot set still hits without reloading...
        for block in 0..3 {
            cache.get_or_load(seg(1, block), || panic!("hit")).unwrap();
        }
        // ...and the retired blocks genuinely reload.
        for block in 0..3 {
            let reloaded = std::cell::Cell::new(false);
            cache
                .get_or_load(seg(2, block), || {
                    reloaded.set(true);
                    Ok(bytes(2))
                })
                .unwrap();
            assert!(reloaded.get(), "retired block must reload");
        }
        assert_eq!(cache.stats().resident, 6);
    }

    #[test]
    fn retire_of_protected_blocks_keeps_the_ledger_consistent() {
        let seg = |segment: u64, block: u64| BlockKey { segment, block };
        let cache = BlockCache::new(8);
        // Promote segment 2's blocks to protected, then retire them: the
        // protected-member count must follow, or later promotions would
        // demote survivors against a phantom population.
        for block in 0..2 {
            cache.get_or_load(seg(2, block), || Ok(bytes(2))).unwrap();
            cache.get_or_load(seg(2, block), || panic!("hit")).unwrap();
        }
        cache.retire(2);
        assert_eq!(cache.stats().resident, 0);
        // The cache keeps working: fill and promote a fresh hot set.
        for block in 0..4 {
            cache.get_or_load(seg(1, block), || Ok(bytes(1))).unwrap();
            cache.get_or_load(seg(1, block), || panic!("hit")).unwrap();
        }
        for block in 0..4 {
            cache.get_or_load(seg(1, block), || panic!("hit")).unwrap();
        }
        assert_eq!(cache.stats().resident, 4);
    }

    #[test]
    fn load_errors_propagate_and_cache_nothing() {
        let cache = BlockCache::new(4);
        let err = cache.get_or_load(key(0), || Err(StorageError::BadMagic));
        assert!(matches!(err, Err(StorageError::BadMagic)));
        assert_eq!(cache.stats().resident, 0);
    }

    #[test]
    fn distinct_segments_do_not_collide() {
        let cache = BlockCache::new(4);
        cache
            .get_or_load(
                BlockKey {
                    segment: 1,
                    block: 0,
                },
                || Ok(bytes(1)),
            )
            .unwrap();
        let other = cache
            .get_or_load(
                BlockKey {
                    segment: 2,
                    block: 0,
                },
                || Ok(bytes(2)),
            )
            .unwrap();
        assert_eq!(other[0], 2);
        assert_eq!(cache.stats().resident, 2);
    }

    #[test]
    fn concurrent_readers_share_blocks() {
        let cache = Arc::new(BlockCache::new(8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for b in 0..8 {
                        let got = cache.get_or_load(key(b), || Ok(bytes(b as u8))).unwrap();
                        assert_eq!(got[0], b as u8);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert_eq!(stats.misses, 8, "single-flight: each block loaded once");
        assert_eq!(stats.resident, 8);
        assert!(format!("{stats}").contains("hit rate"));
    }

    #[test]
    fn racing_misses_on_one_cold_block_single_flight() {
        // Regression: the lock is dropped across file reads, so before the
        // in-flight table, 8 threads missing the same cold block would all
        // read and decode it — duplicate I/O and 8 counted misses. Now the
        // leader loads once; everyone else waits and is billed a hit.
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let cache = Arc::new(BlockCache::new(4));
        let loads = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let got = cache
                        .get_or_load(key(0), || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that the
                            // racers genuinely overlap the read.
                            std::thread::sleep(std::time::Duration::from_millis(25));
                            Ok(bytes(42))
                        })
                        .unwrap();
                    assert_eq!(got[0], 42);
                });
            }
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1, "exactly one file read");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one miss");
        assert_eq!(stats.hits, 7, "every racer was served from memory");
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn failed_leader_wakes_followers_and_the_next_caller_retries() {
        use std::sync::Barrier;
        let cache = Arc::new(BlockCache::new(4));
        let barrier = Barrier::new(4);
        // Every racer's load fails: all must get an error (no deadlock,
        // no stranded in-flight entry).
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    let result = cache.get_or_load(key(0), || {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        Err(StorageError::BadMagic)
                    });
                    assert!(result.is_err());
                });
            }
        });
        assert_eq!(cache.stats().resident, 0);
        // The key is not stuck in flight: a fresh call loads and caches.
        let got = cache.get_or_load(key(0), || Ok(bytes(7))).unwrap();
        assert_eq!(got[0], 7);
        assert_eq!(cache.stats().resident, 1);
    }

    #[test]
    fn second_touch_promotes_and_scans_cannot_evict_the_protected_set() {
        // Hot set: blocks 0..4, each touched twice (resident + protected).
        // Then a one-touch scan of 100 cold blocks floods past. Under
        // strict LRU the hot set would be annihilated; under SLRU +
        // TinyLFU every hot block must still be resident.
        let cache = BlockCache::new(8);
        for round in 0..2 {
            for b in 0..4 {
                let loaded = std::cell::Cell::new(false);
                cache
                    .get_or_load(key(b), || {
                        loaded.set(true);
                        Ok(bytes(b as u8))
                    })
                    .unwrap();
                assert_eq!(loaded.get(), round == 0);
            }
        }
        for b in 100..200 {
            cache.get_or_load(key(b), || Ok(bytes(0))).unwrap();
        }
        for b in 0..4 {
            cache
                .get_or_load(key(b), || panic!("hot block {b} was evicted by the scan"))
                .unwrap();
        }
    }

    #[test]
    fn clear_resets_admission_state_but_keeps_request_counters() {
        let cache = BlockCache::new(2);
        for b in 0..8 {
            cache.get_or_load(key(b), || Ok(bytes(b as u8))).unwrap();
        }
        let before = cache.stats();
        assert_eq!(
            before.admitted + before.rejected,
            8,
            "every load is an admission decision: {before}"
        );
        cache.clear();
        let after = cache.stats();
        assert_eq!((after.admitted, after.rejected, after.resident), (0, 0, 0));
        assert_eq!(after.misses, before.misses, "request history survives");
        assert_eq!(after.hits, before.hits);
        // The sketch was reset too: a fresh insert duel starts from zero
        // history, so the first loads after clear are all admitted.
        for b in 100..102 {
            cache.get_or_load(key(b), || Ok(bytes(0))).unwrap();
        }
        assert_eq!(cache.stats().admitted, 2);
        assert_eq!(cache.stats().resident, 2);
    }

    #[test]
    fn rejected_blocks_are_still_served_and_reload_next_time() {
        // Make block 0 frequent, fill the cache, then request a brand-new
        // block repeatedly: while its frequency trails the victims', it is
        // served but not cached (every request loads).
        let cache = BlockCache::new(1);
        for _ in 0..6 {
            cache.get_or_load(key(0), || Ok(bytes(7))).unwrap();
        }
        let loads = std::cell::Cell::new(0);
        for _ in 0..2 {
            let got = cache
                .get_or_load(key(1), || {
                    loads.set(loads.get() + 1);
                    Ok(bytes(9))
                })
                .unwrap();
            assert_eq!(got[0], 9, "rejected blocks still serve their bytes");
        }
        assert_eq!(loads.get(), 2, "a rejected block is not resident");
        let stats = cache.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.evictions, 0, "the incumbent was never displaced");
        cache.get_or_load(key(0), || panic!("hit")).unwrap();
    }

    #[test]
    fn capacity_zero_does_not_single_flight() {
        // The cold-bench contract: with no residency, every request reads
        // the file — racing requests included.
        use std::sync::Barrier;
        let cache = Arc::new(BlockCache::new(0));
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    cache.get_or_load(key(0), || Ok(bytes(1))).unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (0, 4, 0));
    }
}
