//! A disk-backed subsystem: one persistent segment file per attribute.
//!
//! [`DiskSubsystem`] is [`crate::mem::VectorSubsystem`]'s durable twin.
//! Where the vector subsystem holds each attribute's ranking in RAM, the
//! disk subsystem holds an opened [`SegmentSource`] per attribute — the
//! corpus lives in segment files, RAM holds only the footers and whatever
//! the shared [`BlockCache`] keeps resident, and a process restart loses
//! nothing. Evaluation is still an `Arc` clone of an owned handle, so a
//! thousand concurrent queries over one attribute share one open file and
//! one cache working set, exactly like the in-memory subsystems.
//!
//! Crisp attributes (every grade exactly 0 or 1 — learned by the
//! open-time scan, which reads every grade) additionally serve set access,
//! making persistent collections eligible for the Section 4 filtered
//! strategy; the exact-match count the same scan counts doubles as free
//! planner selectivity.
//!
//! Attributes come in two mutabilities. A segment-backed attribute
//! ([`DiskSubsystem::open_segment`]) is immutable — its statistics are
//! fixed at open, when the scan counts them. A **live** attribute
//! ([`DiskSubsystem::open_live`]) is backed by a writable
//! [`garlic_storage::LiveSource`] (WAL + memtables + compacted base
//! segment): queries evaluate to epoch-pinned snapshots, and
//! `estimate_matches`/`is_crisp` read the same snapshot — cached per write
//! version, so the planner and the query it plans see one state whenever
//! no write lands between them, and the planner sees every acknowledged
//! write.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Weak};

use garlic_core::access::{GradedSource, SetAccess};
use garlic_core::{ObjectId, ShardedSource};
use garlic_storage::{
    std_vfs, BlockCache, CacheStats, LiveOptions, LiveSource, SegmentSource, StorageError, Vfs,
};
use garlic_telemetry::{MetricEntry, MetricValue, Telemetry};

use crate::api::{AtomicQuery, Subsystem, SubsystemError};

/// Default cache budget for a subsystem that was not handed a shared
/// cache: 1024 blocks (4 MiB at the default 4 KiB block size).
pub const DEFAULT_CACHE_BLOCKS: usize = 1024;

/// One registered persistent ranking: the concrete handle behind it, and
/// the only place the subsystem keeps it.
///
/// A **fixed** attribute (a single [`SegmentSource`], or a
/// [`ShardedSource`] over an id-range partition of shard segments) takes
/// its statistics from its segments' open-time scans, fixed when the files
/// were opened. A **live** attribute takes them, and its answer handles, from
/// the current [`LiveSource::snapshot`], so every acknowledged write is
/// reflected immediately.
#[derive(Clone)]
enum DiskAttribute {
    Segment(Arc<SegmentSource>),
    Sharded(Arc<ShardedSource<SegmentSource>>),
    Live(Arc<LiveSource>),
}

impl DiskAttribute {
    /// The segments behind a fixed attribute (none behind a live one), for
    /// their statistics, health and telemetry.
    fn segments(&self) -> &[SegmentSource] {
        match self {
            DiskAttribute::Segment(segment) => std::slice::from_ref(&**segment),
            DiskAttribute::Sharded(sharded) => sharded.shards(),
            DiskAttribute::Live(_) => &[],
        }
    }

    fn crisp(&self) -> bool {
        match self {
            DiskAttribute::Live(live) => live.snapshot().is_crisp(),
            fixed => fixed.segments().iter().all(SegmentSource::is_crisp),
        }
    }

    fn ones(&self) -> u64 {
        match self {
            DiskAttribute::Live(live) => live.snapshot().exact_match_count(),
            fixed => fixed
                .segments()
                .iter()
                .map(SegmentSource::exact_match_count)
                .sum(),
        }
    }

    /// The I/O health of the segments behind this attribute, read now: a
    /// fixed attribute's segments, or a live attribute's current base
    /// segment (`None` before its first compaction wrote one).
    fn health(&self, attribute: &str) -> Option<AttributeHealth> {
        let base;
        let segments = match self {
            DiskAttribute::Live(live) => {
                base = live.base()?;
                std::slice::from_ref(&*base)
            }
            fixed => fixed.segments(),
        };
        let mut report = AttributeHealth {
            attribute: attribute.to_owned(),
            quarantined: Vec::new(),
            io_retries: 0,
            io_gave_up: 0,
        };
        for segment in segments {
            report.io_retries += segment.io_retries();
            report.io_gave_up += segment.io_gave_up();
            if segment.is_quarantined() {
                report.quarantined.push(segment.path().to_path_buf());
            }
        }
        Some(report)
    }

    /// Appends this attribute's metrics under
    /// `storage.<subsystem>.<attribute>`: the shard merge stats of a
    /// sharded attribute, and the I/O health [`DiskAttribute::health`]
    /// reports, if any.
    fn collect(&self, subsystem: &str, attribute: &str, out: &mut Vec<MetricEntry>) {
        let prefix = format!("storage.{subsystem}.{attribute}");
        let counter = |name: String, value: u64| MetricEntry {
            name,
            value: MetricValue::Counter(value),
        };
        if let DiskAttribute::Sharded(sharded) = self {
            let stats = sharded.scan_stats();
            out.push(counter(format!("{prefix}.shard.emitted"), stats.emitted));
            out.push(counter(format!("{prefix}.shard.consumed"), stats.consumed));
            out.push(MetricEntry {
                name: format!("{prefix}.shard.count"),
                value: MetricValue::Gauge(stats.shards as i64),
            });
            // Realised early-termination savings, in basis points (the
            // registry is integer-valued).
            out.push(MetricEntry {
                name: format!("{prefix}.shard.savings_bp"),
                value: MetricValue::Gauge((stats.early_termination_savings() * 10_000.0) as i64),
            });
        }
        let Some(report) = self.health(attribute) else {
            return;
        };
        out.push(counter(format!("{prefix}.io_retries"), report.io_retries));
        out.push(counter(format!("{prefix}.io_gave_up"), report.io_gave_up));
        out.push(MetricEntry {
            name: format!("{prefix}.quarantined"),
            value: MetricValue::Gauge(report.quarantined.len() as i64),
        });
    }
}

/// What the telemetry collector keeps of one attribute: a fixed handle, or
/// a live store held weakly (see [`DiskSubsystem::register_telemetry`]).
enum Watched {
    Fixed(DiskAttribute),
    Live(Weak<LiveSource>),
}

/// Footer-level only: a sharded source's derived `Debug` would dump its
/// merged prefix.
impl std::fmt::Debug for DiskAttribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskAttribute::Live(live) => f.debug_tuple("Live").field(live).finish(),
            fixed => f.debug_tuple("Fixed").field(&fixed.segments()).finish(),
        }
    }
}

/// A subsystem serving graded lists from immutable segment files, keyed by
/// attribute.
///
/// Like [`crate::mem::VectorSubsystem`], the atomic query's *target* is
/// ignored: each attribute has exactly one persistent ranking, fixed when
/// its segment was written.
#[derive(Debug)]
pub struct DiskSubsystem {
    name: String,
    universe: usize,
    cache: Arc<BlockCache>,
    /// Every attribute, by name. They also feed the telemetry collector:
    /// per-attribute I/O retry and shard scatter-gather stats are read
    /// straight off their handles at snapshot time (pull-based — the
    /// query path pays nothing).
    segments: BTreeMap<String, DiskAttribute>,
    /// When set, sharded attributes registered afterwards opt in to
    /// degraded reads (a quarantined shard is dropped instead of failing
    /// the query; see [`ShardedSource::with_degraded_reads`]).
    degraded_reads: bool,
    /// Filesystem abstraction every subsequently opened attribute reads
    /// through — the real filesystem unless a test installed a
    /// [`garlic_storage::FaultVfs`].
    vfs: Arc<dyn Vfs>,
}

/// One segment-backed attribute's I/O health, as reported by
/// [`DiskSubsystem::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeHealth {
    /// The attribute this report covers.
    pub attribute: String,
    /// Segment files quarantined after exhausting their I/O retry budget.
    /// Empty means the attribute is fully healthy.
    pub quarantined: Vec<std::path::PathBuf>,
    /// Total transient read faults absorbed by retries across the
    /// attribute's segments.
    pub io_retries: u64,
    /// Block loads that exhausted the retry budget (each one quarantined
    /// a segment).
    pub io_gave_up: u64,
}

impl AttributeHealth {
    /// Whether every segment behind the attribute is serving reads.
    pub fn healthy(&self) -> bool {
        self.quarantined.is_empty()
    }
}

impl DiskSubsystem {
    /// An empty subsystem over a universe of `universe` objects, with its
    /// own [`DEFAULT_CACHE_BLOCKS`]-block cache.
    pub fn new(name: &str, universe: usize) -> Self {
        DiskSubsystem::with_cache(
            name,
            universe,
            Arc::new(BlockCache::new(DEFAULT_CACHE_BLOCKS)),
        )
    }

    /// An empty subsystem reading through a caller-provided cache — the
    /// way several subsystems (or a subsystem and ad-hoc
    /// [`SegmentSource`]s) share one RAM budget.
    pub fn with_cache(name: &str, universe: usize, cache: Arc<BlockCache>) -> Self {
        DiskSubsystem {
            name: name.to_owned(),
            universe,
            cache,
            segments: BTreeMap::new(),
            degraded_reads: false,
            vfs: std_vfs(),
        }
    }

    /// Routes **subsequently opened** attributes' file I/O through `vfs` —
    /// the hook chaos tests use to open real segment files behind a
    /// [`garlic_storage::FaultVfs`] and drive the full middleware stack
    /// into its failure paths.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Opts **subsequently registered** sharded attributes in to degraded
    /// reads: when one shard of a sharded attribute is quarantined, reads
    /// drop that shard (treating its id range as ungraded) and flag the
    /// answer [`GradedSource::degraded`] instead of failing the whole
    /// query. Single-segment and live attributes are unaffected — with
    /// only one replica of the data there is nothing to degrade *to*.
    pub fn with_degraded_reads(mut self) -> Self {
        self.degraded_reads = true;
        self
    }

    /// Opens (and fully verifies) the segment at `path` as the ranking of
    /// `attribute`. A corrupted or truncated file is a typed
    /// [`StorageError`]; registering it never partially succeeds. So is a
    /// segment that does not grade exactly this subsystem's universe
    /// `0..N` ([`StorageError::UniverseMismatch`]): entry count `N` plus
    /// largest id `< N` plus the verified id uniqueness pin the dense
    /// universe exactly.
    pub fn open_segment(mut self, attribute: &str, path: &Path) -> Result<Self, StorageError> {
        let segment = SegmentSource::open_with(path, Arc::clone(&self.cache), &self.vfs)?;
        self.check_universe(segment.len(), segment.max_object())?;
        self.segments.insert(
            attribute.to_owned(),
            DiskAttribute::Segment(Arc::new(segment)),
        );
        Ok(self)
    }

    /// Opens (and fully verifies) the segments at `paths` as one sharded
    /// ranking of `attribute` — an id-range partition, typically the files
    /// a [`SegmentWriter::write_sharded_pairs`] build published. Evaluation
    /// serves the [`ShardedSource`] scatter-gather merge: bit-identical to
    /// a single segment over the same pairs, with `estimate_matches` summed
    /// over the shards' exact-match counts and crispness the conjunction of
    /// the shards'.
    ///
    /// [`SegmentWriter::write_sharded_pairs`]: garlic_storage::SegmentWriter::write_sharded_pairs
    ///
    /// Files that do not partition this subsystem's universe `0..N` are a
    /// [`StorageError::UniverseMismatch`]: no files, a file with no
    /// entries, id ranges that overlap or come out of order, or a union
    /// that is not exactly `0..N`. Nothing is registered then.
    pub fn open_sharded_segment(
        mut self,
        attribute: &str,
        paths: impl IntoIterator<Item = impl AsRef<Path>>,
    ) -> Result<Self, StorageError> {
        let mismatch = |detail: String| StorageError::UniverseMismatch {
            universe: self.universe,
            detail,
        };
        let mut shards = Vec::new();
        let mut fences = Vec::new();
        let mut prev_max: Option<ObjectId> = None;
        for path in paths {
            let path = path.as_ref();
            let shard = SegmentSource::open_with(path, Arc::clone(&self.cache), &self.vfs)?;
            let (Some(min), Some(max)) = (shard.min_object(), shard.max_object()) else {
                return Err(mismatch(format!(
                    "shard {} holds no entries",
                    path.display()
                )));
            };
            if let Some(prev) = prev_max.filter(|&prev| prev >= min) {
                return Err(mismatch(format!(
                    "shard {} starts at {min}, not after the previous shard's {prev}",
                    path.display()
                )));
            }
            fences.push(min.0);
            prev_max = Some(max);
            shards.push(shard);
        }
        if shards.is_empty() {
            return Err(mismatch("no shard files".into()));
        }
        let total: usize = shards.iter().map(|s| s.len()).sum();
        self.check_universe(total, prev_max)?;
        let mut sharded = ShardedSource::new(shards, fences);
        if self.degraded_reads {
            sharded = sharded.with_degraded_reads(self.universe as u64);
        }
        self.segments.insert(
            attribute.to_owned(),
            DiskAttribute::Sharded(Arc::new(sharded)),
        );
        Ok(self)
    }

    /// Refuses a fixed ranking — `len` entries, largest graded object
    /// `max` — that does not grade exactly the universe `0..N`.
    fn check_universe(&self, len: usize, max: Option<ObjectId>) -> Result<(), StorageError> {
        let detail = if len != self.universe {
            format!("ranking holds {len} entries")
        } else if let Some(max) = max.filter(|max| max.index() >= self.universe) {
            format!("ranking grades object {max}")
        } else {
            return Ok(());
        };
        Err(StorageError::UniverseMismatch {
            universe: self.universe,
            detail,
        })
    }

    /// Opens (creating or crash-recovering) the **writable** live store in
    /// `dir` as the ranking of `attribute` — WAL, memtables, and base
    /// segment per [`LiveSource`]. The background compactor is enabled and
    /// the universe bound is enforced on every write; unlike a fixed
    /// segment the collection may be *sparse* (ungraded objects simply
    /// miss), since its membership changes over time.
    ///
    /// Queries against a live attribute evaluate to an epoch-pinned
    /// snapshot, and `estimate_matches`/`is_crisp` read the current
    /// snapshot too, so the planner's Filtered-vs-stream decision tracks
    /// every acknowledged write instead of a stale base segment's count.
    pub fn open_live(self, attribute: &str, dir: &Path) -> Result<Self, StorageError> {
        let opts = LiveOptions {
            auto_compact: true,
            ..LiveOptions::default()
        };
        self.open_live_with(attribute, dir, opts)
    }

    /// [`open_live`](DiskSubsystem::open_live) with explicit
    /// [`LiveOptions`] — deterministic tests disable `auto_compact` and
    /// shrink `memtable_limit`. The universe bound is always pinned to
    /// this subsystem's universe, overriding `opts.universe`.
    pub fn open_live_with(
        mut self,
        attribute: &str,
        dir: &Path,
        opts: LiveOptions,
    ) -> Result<Self, StorageError> {
        let opts = LiveOptions {
            universe: Some(self.universe),
            vfs: opts.vfs.or_else(|| Some(Arc::clone(&self.vfs))),
            ..opts
        };
        let live = LiveSource::open(dir, Arc::clone(&self.cache), opts)?;
        self.segments
            .insert(attribute.to_owned(), DiskAttribute::Live(Arc::new(live)));
        Ok(self)
    }

    /// The writable [`LiveSource`] behind `attribute`, if it was opened
    /// with [`open_live`](DiskSubsystem::open_live) — the handle writers
    /// upsert and delete through.
    pub fn live_source(&self, attribute: &str) -> Option<&Arc<LiveSource>> {
        match self.segments.get(attribute)? {
            DiskAttribute::Live(live) => Some(live),
            DiskAttribute::Segment(_) | DiskAttribute::Sharded(_) => None,
        }
    }

    /// The shared cache every segment of this subsystem reads through.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Hit/miss/eviction counters of the shared cache — the operator's
    /// cache-tuning signal.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Registers this subsystem's storage stats with `telemetry`, all
    /// pull-based: the shared cache's counters (under
    /// `storage.<name>.cache.*`, via [`BlockCache::register_telemetry`])
    /// plus, per attribute [`health`](Self::health) reports, the I/O
    /// health counters (`storage.<name>.<attr>.io_retries`, `.io_gave_up`,
    /// `.quarantined`) and — for sharded attributes — the scatter-gather
    /// merge stats (`.shard.emitted`, `.shard.consumed`, `.shard.count`,
    /// `.shard.savings_bp`). Query hot paths are untouched; everything is
    /// read at snapshot time from counters the sources already keep.
    ///
    /// A live attribute reports the base segment current at snapshot
    /// time, so its `io_retries` and `io_gave_up` count that base only and
    /// restart from 0 when a compaction swaps in a new one. The collector
    /// holds a live store weakly: the store may hold `telemetry` itself
    /// (`LiveOptions::telemetry`), and a strong handle would keep it, and
    /// its background compactor, alive after the subsystem is dropped.
    /// Once it is gone it reports nothing.
    pub fn register_telemetry(&self, telemetry: &Telemetry) {
        self.cache
            .register_telemetry(telemetry, &format!("storage.{}.cache", self.name));
        let attributes: Vec<(String, Watched)> = self
            .segments
            .iter()
            .map(|(attribute, handle)| {
                let watched = match handle {
                    DiskAttribute::Live(live) => Watched::Live(Arc::downgrade(live)),
                    fixed => Watched::Fixed(fixed.clone()),
                };
                (attribute.clone(), watched)
            })
            .collect();
        let name = self.name.clone();
        telemetry.register_collector(move |out| {
            for (attribute, watched) in &attributes {
                let handle = match watched {
                    Watched::Fixed(fixed) => fixed.clone(),
                    Watched::Live(live) => match live.upgrade() {
                        Some(live) => DiskAttribute::Live(live),
                        None => continue,
                    },
                };
                handle.collect(&name, attribute, out);
            }
        });
    }

    /// The I/O health of every segment-backed attribute, in name order:
    /// each fixed attribute, and each live attribute through its current
    /// base segment (one without a base yet reads no file and is left
    /// out). A report holds retry totals and any quarantined segment
    /// files. A quarantined segment keeps failing fast with a typed error
    /// until its file is repaired and the subsystem is reopened; under
    /// [`with_degraded_reads`](Self::with_degraded_reads) a sharded
    /// attribute keeps answering (flagged degraded) around it.
    pub fn health(&self) -> Vec<AttributeHealth> {
        self.segments
            .iter()
            .filter_map(|(attribute, handle)| handle.health(attribute))
            .collect()
    }

    fn segment(&self, query: &AtomicQuery) -> Result<&DiskAttribute, SubsystemError> {
        self.segments
            .get(&query.attribute)
            .ok_or_else(|| SubsystemError::UnknownAttribute {
                attribute: query.attribute.clone(),
                subsystem: self.name.clone(),
            })
    }
}

impl Subsystem for DiskSubsystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn attributes(&self) -> Vec<String> {
        self.segments.keys().cloned().collect()
    }

    fn universe_size(&self) -> usize {
        self.universe
    }

    /// Evaluation is an `Arc::clone` of the opened segment — no I/O, no
    /// re-verification; blocks fault in through the shared cache as the
    /// answer is consumed. The handle serves both batched access paths
    /// natively: `sorted_batch` decodes each data block once, and
    /// `random_batch` groups probes by table block so a grade-completion
    /// sweep touches each block once per batch. A **live** attribute
    /// evaluates to an epoch-pinned snapshot of its current contents —
    /// still one `Arc` clone between writes (snapshots are cached per
    /// write version), and entirely unaffected by writes or compactions
    /// that land while the query runs.
    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        Ok(match self.segment(query)? {
            DiskAttribute::Segment(segment) => Arc::clone(segment) as Arc<dyn GradedSource>,
            DiskAttribute::Sharded(sharded) => Arc::clone(sharded) as Arc<dyn GradedSource>,
            DiskAttribute::Live(live) => live.snapshot() as Arc<dyn GradedSource>,
        })
    }

    fn is_crisp(&self, attribute: &str) -> bool {
        self.segments.get(attribute).is_some_and(|s| s.crisp())
    }

    /// A live attribute's set and crispness come from one snapshot, so a
    /// write landing during the call cannot pair a fuzzy set with a crisp
    /// verdict.
    fn evaluate_set(&self, query: &AtomicQuery) -> Result<Arc<dyn SetAccess>, SubsystemError> {
        let segment = self.segment(query)?;
        let (set, crisp): (Arc<dyn SetAccess>, bool) = match segment {
            DiskAttribute::Segment(source) => (Arc::clone(source) as _, segment.crisp()),
            DiskAttribute::Sharded(source) => (Arc::clone(source) as _, segment.crisp()),
            DiskAttribute::Live(live) => {
                let snapshot = live.snapshot();
                let crisp = snapshot.is_crisp();
                (snapshot, crisp)
            }
        };
        if !crisp {
            return Err(SubsystemError::Unsupported {
                reason: format!(
                    "{}.{} is not crisp, so it offers no set access",
                    self.name, query.attribute
                ),
            });
        }
        Ok(set)
    }

    /// The exact-match count a segment's open-time scan counted (summed
    /// over the shards for a sharded attribute): free, exact selectivity. A live attribute
    /// reads its current snapshot's count of visible grade-1 objects —
    /// memtable deltas included — so a write can flip the planner's
    /// decision immediately.
    fn estimate_matches(&self, query: &AtomicQuery) -> Option<usize> {
        self.segments
            .get(&query.attribute)
            .map(|s| s.ones() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Target;
    use garlic_agg::Grade;
    use garlic_storage::SegmentWriter;
    use std::path::PathBuf;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    fn temp_seg(name: &str, grades: &[Grade]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("garlic-subsys-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        SegmentWriter::new().write_grades(&path, grades).unwrap();
        path
    }

    fn subsystem() -> DiskSubsystem {
        let a = temp_seg("a.seg", &[g(0.1), g(0.9), g(0.5)]);
        let b = temp_seg("b.seg", &[g(1.0), g(0.0), g(1.0)]);
        DiskSubsystem::new("disk", 3)
            .open_segment("A", &a)
            .unwrap()
            .open_segment("B", &b)
            .unwrap()
    }

    #[test]
    fn serves_its_attributes() {
        let s = subsystem();
        assert_eq!(s.attributes(), vec!["A".to_owned(), "B".to_owned()]);
        assert_eq!(s.universe_size(), 3);
        let src = s
            .evaluate(&AtomicQuery::new("A", Target::text("anything")))
            .unwrap();
        assert_eq!(src.len(), 3);
        assert_eq!(src.sorted_access(0).unwrap().object.0, 1);
        assert!(s
            .evaluate(&AtomicQuery::new("C", Target::text("x")))
            .is_err());
    }

    #[test]
    fn answer_handles_serve_batched_random_access() {
        let s = subsystem();
        let src = s
            .evaluate(&AtomicQuery::new("A", Target::text("t")))
            .unwrap();
        use garlic_core::ObjectId;
        let probes = [ObjectId(2), ObjectId(9), ObjectId(0), ObjectId(2)];
        let mut batched = Vec::new();
        src.random_batch(&probes, &mut batched);
        let looped: Vec<_> = probes.iter().map(|&p| src.random_access(p)).collect();
        assert_eq!(batched, looped);
        assert_eq!(batched[1], None, "out-of-universe probe misses");
    }

    #[test]
    fn evaluation_shares_one_open_segment() {
        let s = subsystem();
        let q = AtomicQuery::new("A", Target::text("t"));
        let a = s.evaluate(&q).unwrap();
        let b = s.evaluate(&q).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "answers are clones of one handle");
    }

    #[test]
    fn crispness_comes_from_the_open_scan() {
        let s = subsystem();
        assert!(!s.is_crisp("A"));
        assert!(s.is_crisp("B"));
        assert!(!s.is_crisp("C"));
        let set = s
            .evaluate_set(&AtomicQuery::new("B", Target::text("t")))
            .unwrap();
        assert_eq!(
            set.matching_set(),
            vec![garlic_core::ObjectId(0), garlic_core::ObjectId(2)]
        );
        assert!(matches!(
            s.evaluate_set(&AtomicQuery::new("A", Target::text("t"))),
            Err(SubsystemError::Unsupported { .. })
        ));
    }

    #[test]
    fn estimates_come_from_the_open_scan() {
        let s = subsystem();
        assert_eq!(
            s.estimate_matches(&AtomicQuery::new("B", Target::text("t"))),
            Some(2)
        );
        assert_eq!(
            s.estimate_matches(&AtomicQuery::new("A", Target::text("t"))),
            Some(0)
        );
        assert_eq!(
            s.estimate_matches(&AtomicQuery::new("C", Target::text("t"))),
            None
        );
    }

    #[test]
    fn corrupt_segment_never_registers() {
        let path = temp_seg("corrupt.seg", &[g(0.1), g(0.9), g(0.5)]);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        let err = DiskSubsystem::new("disk", 3)
            .open_segment("A", &path)
            .unwrap_err();
        assert!(matches!(
            err,
            StorageError::ChecksumMismatch { .. } | StorageError::FooterCorrupt { .. }
        ));
    }

    /// The universe error every mismatch below must be; returns it.
    fn assert_universe_error(
        result: Result<DiskSubsystem, StorageError>,
        universe: usize,
    ) -> StorageError {
        let err = result.unwrap_err();
        assert!(
            matches!(err, StorageError::UniverseMismatch { universe: u, .. } if u == universe),
            "{err:?}"
        );
        let message = format!("universe mismatch (size {universe})");
        assert!(err.to_string().starts_with(&message), "{err}");
        err
    }

    #[test]
    fn mismatched_universe_is_a_typed_error() {
        let path = temp_seg("short.seg", &[g(0.1)]);
        assert_universe_error(DiskSubsystem::new("disk", 3).open_segment("A", &path), 3);
    }

    #[test]
    fn out_of_universe_objects_are_a_typed_error() {
        // Right entry count, but sparse ids beyond the declared universe:
        // fused queries against dense sibling attributes would silently
        // miss on random access, so registration must refuse.
        let dir = std::env::temp_dir().join(format!("garlic-subsys-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sparse.seg");
        SegmentWriter::new()
            .write_pairs(
                &path,
                vec![
                    (garlic_core::ObjectId(10), g(0.5)),
                    (garlic_core::ObjectId(20), g(0.4)),
                    (garlic_core::ObjectId(999), g(0.3)),
                ],
            )
            .unwrap();
        assert_universe_error(DiskSubsystem::new("disk", 3).open_segment("A", &path), 3);
    }

    #[test]
    fn shared_cache_is_observable() {
        let cache = Arc::new(BlockCache::new(16));
        let a = temp_seg("cache-a.seg", &[g(0.1), g(0.9), g(0.5)]);
        let s = DiskSubsystem::with_cache("disk", 3, Arc::clone(&cache))
            .open_segment("A", &a)
            .unwrap();
        assert_eq!(s.cache_stats().resident, 0, "open verifies without warming");
        let src = s
            .evaluate(&AtomicQuery::new("A", Target::text("t")))
            .unwrap();
        let mut out = Vec::new();
        src.sorted_batch(0, 3, &mut out);
        assert!(s.cache_stats().misses > 0);
        assert!(Arc::ptr_eq(s.cache(), &cache));
    }

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("garlic-subsys-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sharded_segments_answer_identically_to_one_segment() {
        let grades: Vec<Grade> = (0..64).map(|i| g((i % 21) as f64 / 20.0)).collect();
        let dir = temp_dir();
        let flat = dir.join("shardeq.seg");
        SegmentWriter::new().write_grades(&flat, &grades).unwrap();
        for shards in [1usize, 2, 3, 7] {
            let parts = SegmentWriter::new()
                .write_sharded_grades(&dir, &format!("shardeq-{shards}"), shards, &grades)
                .unwrap();
            let s = DiskSubsystem::new("disk", grades.len())
                .open_segment("FLAT", &flat)
                .unwrap()
                .open_sharded_segment("SHARDED", parts.iter().map(|p| &p.path))
                .unwrap();
            let a = s
                .evaluate(&AtomicQuery::new("FLAT", Target::text("t")))
                .unwrap();
            let b = s
                .evaluate(&AtomicQuery::new("SHARDED", Target::text("t")))
                .unwrap();
            let (mut flat_run, mut sharded_run) = (Vec::new(), Vec::new());
            a.sorted_batch(0, grades.len(), &mut flat_run);
            b.sorted_batch(0, grades.len(), &mut sharded_run);
            assert_eq!(flat_run, sharded_run, "bit-identical stream at S={shards}");
            use garlic_core::ObjectId;
            let probes: Vec<ObjectId> = (0..80).map(ObjectId).collect();
            let (mut fp, mut sp) = (Vec::new(), Vec::new());
            a.random_batch(&probes, &mut fp);
            b.random_batch(&probes, &mut sp);
            assert_eq!(fp, sp, "identical probe answers at S={shards}");
            assert_eq!(
                s.estimate_matches(&AtomicQuery::new("FLAT", Target::text("t"))),
                s.estimate_matches(&AtomicQuery::new("SHARDED", Target::text("t"))),
                "estimates sum across shards"
            );
        }
    }

    #[test]
    fn sharded_crisp_segments_serve_set_access() {
        let grades: Vec<Grade> = (0..20).map(|i| Grade::from_bool(i % 3 == 0)).collect();
        let dir = temp_dir();
        let parts = SegmentWriter::new()
            .write_sharded_grades(&dir, "shardcrisp", 4, &grades)
            .unwrap();
        let s = DiskSubsystem::new("disk", grades.len())
            .open_sharded_segment("C", parts.iter().map(|p| &p.path))
            .unwrap();
        assert!(s.is_crisp("C"));
        let set = s
            .evaluate_set(&AtomicQuery::new("C", Target::text("t")))
            .unwrap();
        let mut matches = set.matching_set();
        matches.sort_unstable();
        let expected: Vec<_> = (0..20)
            .filter(|i| i % 3 == 0)
            .map(garlic_core::ObjectId)
            .collect();
        assert_eq!(matches, expected);
        assert_eq!(
            s.estimate_matches(&AtomicQuery::new("C", Target::text("t"))),
            Some(expected.len())
        );
    }

    #[test]
    fn live_attributes_serve_writes_and_fresh_estimates() {
        use garlic_core::ObjectId;
        let dir = temp_dir().join("live-attr");
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskSubsystem::new("disk", 8)
            .open_live_with("L", &dir, garlic_storage::LiveOptions::default())
            .unwrap();
        let q = AtomicQuery::new("L", Target::text("t"));
        assert_eq!(s.estimate_matches(&q), Some(0));
        assert!(
            s.is_crisp("L"),
            "an empty live attribute is vacuously crisp"
        );

        let live = s.live_source("L").unwrap();
        live.upsert(ObjectId(1), Grade::ONE).unwrap();
        live.upsert(ObjectId(4), Grade::ONE).unwrap();
        live.upsert(ObjectId(6), Grade::ZERO).unwrap();
        // The estimate reflects the memtable immediately — no flush, no
        // reopen, no stale base segment.
        assert_eq!(s.estimate_matches(&q), Some(2));
        assert!(s.is_crisp("L"));
        let set = s.evaluate_set(&q).unwrap();
        assert_eq!(set.matching_set(), vec![ObjectId(1), ObjectId(4)]);

        // A snapshot taken before a write keeps answering the old state.
        let before = s.evaluate(&q).unwrap();
        live.upsert(ObjectId(4), g(0.5)).unwrap();
        assert_eq!(s.estimate_matches(&q), Some(1));
        assert!(!s.is_crisp("L"), "a fuzzy write makes the attribute fuzzy");
        assert!(s.evaluate_set(&q).is_err());
        assert_eq!(before.random_access(ObjectId(4)), Some(Grade::ONE));
        let after = s.evaluate(&q).unwrap();
        assert_eq!(after.random_access(ObjectId(4)), Some(g(0.5)));
        assert_eq!(after.sorted_access(0).unwrap().object, ObjectId(1));
    }

    #[test]
    fn reopening_an_attribute_reports_it_once() {
        let a = temp_seg("reopen-a.seg", &[g(0.1), g(0.9), g(0.5)]);
        let b = temp_seg("reopen-b.seg", &[g(1.0), g(0.0), g(1.0)]);
        let live_dir = temp_dir().join("reopen-live");
        let _ = std::fs::remove_dir_all(&live_dir);
        let s = DiskSubsystem::new("disk", 3)
            .open_segment("B", &b)
            .unwrap()
            .open_segment("A", &a)
            .unwrap()
            .open_segment("A", &b)
            .unwrap()
            .open_segment("L", &a)
            .unwrap()
            .open_live_with("L", &live_dir, garlic_storage::LiveOptions::default())
            .unwrap();
        // Fixed attributes only, once each, in name order; the live
        // attribute that replaced `L`'s segment has no segment health.
        let reported: Vec<String> = s.health().into_iter().map(|h| h.attribute).collect();
        assert_eq!(reported, ["A", "B"]);
        assert!(s.is_crisp("A"), "the reopened `A` is the crisp file");
        let telemetry = Telemetry::new();
        s.register_telemetry(&telemetry);
        let retries: Vec<String> = telemetry
            .snapshot()
            .entries
            .into_iter()
            .map(|e| e.name)
            .filter(|name| name.ends_with(".io_retries"))
            .collect();
        assert_eq!(
            retries,
            ["storage.disk.A.io_retries", "storage.disk.B.io_retries"]
        );
    }

    #[test]
    fn live_writes_outside_the_universe_are_a_typed_error() {
        use garlic_core::ObjectId;
        let dir = temp_dir().join("live-universe");
        let _ = std::fs::remove_dir_all(&dir);
        let s = DiskSubsystem::new("disk", 4)
            .open_live_with("L", &dir, garlic_storage::LiveOptions::default())
            .unwrap();
        let err = s.live_source("L").unwrap().upsert(ObjectId(4), g(0.5));
        assert!(
            matches!(err, Err(StorageError::UniverseMismatch { universe: 4, .. })),
            "{err:?}"
        );
        assert_eq!(s.live_source("L").unwrap().snapshot().len(), 0);
    }

    #[test]
    fn shard_files_that_do_not_partition_the_universe_are_a_typed_error() {
        use garlic_core::ObjectId;
        let dir = temp_dir();
        let write = |name: &str, pairs: Vec<(ObjectId, Grade)>| {
            let path = dir.join(name);
            SegmentWriter::new().write_pairs(&path, pairs).unwrap();
            path
        };
        let lo = write(
            "overlap-lo.seg",
            vec![(ObjectId(0), g(0.5)), (ObjectId(2), g(0.4))],
        );
        let hi = write(
            "overlap-hi.seg",
            vec![(ObjectId(1), g(0.3)), (ObjectId(3), g(0.2))],
        );
        let empty = write("empty-shard.seg", Vec::new());
        let cases: [(&[&PathBuf], &str); 4] = [
            (&[], "no shard files"),
            (&[&lo, &empty], "empty-shard.seg holds no entries"),
            (&[&lo, &hi], "overlap-hi.seg starts at #1"),
            (&[&hi, &lo], "overlap-lo.seg starts at #0"),
        ];
        for (paths, detail) in cases {
            let opened = DiskSubsystem::new("disk", 4).open_sharded_segment("A", paths);
            let err = assert_universe_error(opened, 4);
            assert!(err.to_string().contains(detail), "{err}");
        }
    }

    #[test]
    fn health_reports_a_live_attributes_quarantined_base() {
        use garlic_core::ObjectId;
        use garlic_storage::{std_vfs, FaultKind, FaultOp, FaultRule, FaultVfs, LiveOptions, Vfs};
        let dir = temp_dir().join("live-health");
        let _ = std::fs::remove_dir_all(&dir);
        let fault = Arc::new(FaultVfs::wrapping(std_vfs()));
        // No cache: every read of the base segment goes to the file.
        let s = DiskSubsystem::with_cache("disk", 64, Arc::new(BlockCache::new(0)))
            .open_live_with(
                "L",
                &dir,
                LiveOptions {
                    vfs: Some(Arc::clone(&fault) as Arc<dyn Vfs>),
                    ..LiveOptions::default()
                },
            )
            .unwrap();
        let live = s.live_source("L").unwrap();
        for i in 0..64u64 {
            live.upsert(ObjectId(i), g(i as f64 / 64.0)).unwrap();
        }
        live.flush().unwrap();
        let base = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .find(|path| path.extension().is_some_and(|x| x == "seg"))
            .expect("the flush wrote a base segment");
        assert_eq!(s.health().len(), 1);
        assert!(s.health()[0].healthy());

        fault.push_rule(FaultRule {
            path_contains: ".seg".to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Permanent,
        });
        let src = s
            .evaluate(&AtomicQuery::new("L", Target::text("t")))
            .unwrap();
        let err = src.try_sorted_batch(0, 64, &mut Vec::new()).unwrap_err();
        assert!(err.quarantined, "{err}");
        let report = s.health();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].attribute, "L");
        assert_eq!(report[0].quarantined, [base]);
        assert!(report[0].io_gave_up >= 1);
        // Telemetry reports the same base segment, read at snapshot time.
        let telemetry = Telemetry::new();
        s.register_telemetry(&telemetry);
        let snapshot = telemetry.snapshot();
        assert!(matches!(
            snapshot.get("storage.disk.L.quarantined"),
            Some(MetricValue::Gauge(1))
        ));
        assert_eq!(
            snapshot.counter("storage.disk.L.io_gave_up"),
            report[0].io_gave_up
        );
    }

    #[test]
    fn telemetry_does_not_keep_a_dropped_live_store_alive() {
        use garlic_core::ObjectId;
        use garlic_storage::LiveOptions;
        let dir = temp_dir().join("live-telemetry-drop");
        let _ = std::fs::remove_dir_all(&dir);
        // The store and the subsystem report into one registry, so the
        // registry's collector must not own the store that owns it.
        let telemetry = Telemetry::new();
        let s = DiskSubsystem::new("disk", 64)
            .open_live_with(
                "L",
                &dir,
                LiveOptions {
                    telemetry: Some(Arc::clone(&telemetry)),
                    ..LiveOptions::default()
                },
            )
            .unwrap();
        s.register_telemetry(&telemetry);
        let live = s.live_source("L").unwrap();
        for i in 0..64u64 {
            live.upsert(ObjectId(i), g(i as f64 / 64.0)).unwrap();
        }
        live.flush().unwrap();
        let watched = Arc::downgrade(live);
        assert_eq!(telemetry.snapshot().counter("storage.disk.L.io_retries"), 0);
        assert!(telemetry
            .snapshot()
            .get("storage.disk.L.quarantined")
            .is_some());

        drop(s);
        assert!(
            watched.upgrade().is_none(),
            "dropping the subsystem drops the live store"
        );
        assert!(telemetry
            .snapshot()
            .get("storage.disk.L.quarantined")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_sharded_reads_survive_a_quarantined_shard() {
        use garlic_storage::{std_vfs, FaultKind, FaultOp, FaultRule, FaultVfs, Vfs};
        let grades: Vec<Grade> = (0..64).map(|i| g((i % 21) as f64 / 20.0)).collect();
        let dir = temp_dir();
        let parts = SegmentWriter::new()
            .write_sharded_grades(&dir, "degraded", 4, &grades)
            .unwrap();
        // Reopen the shards through a FaultVfs so shard 1 can be killed
        // after its (fault-free) open.
        let fault = Arc::new(FaultVfs::wrapping(std_vfs()));
        let cache = Arc::new(BlockCache::new(64));
        let mut shards = Vec::new();
        for part in &parts {
            let vfs = Arc::clone(&fault) as Arc<dyn Vfs>;
            shards.push(SegmentSource::open_with(&part.path, Arc::clone(&cache), &vfs).unwrap());
        }
        let victim = parts[1].path.file_name().unwrap().to_str().unwrap();
        let fences: Vec<u64> = shards.iter().map(|s| s.min_object().unwrap().0).collect();
        let sharded = Arc::new(
            garlic_core::ShardedSource::new(shards, fences)
                .with_degraded_reads(grades.len() as u64),
        );
        let mut s = DiskSubsystem::with_cache("disk", grades.len(), cache);
        s.segments
            .insert("D".to_owned(), DiskAttribute::Sharded(sharded));
        assert!(s.health().iter().all(AttributeHealth::healthy));
        fault.push_rule(FaultRule {
            path_contains: victim.to_owned(),
            op: FaultOp::Read,
            nth: 0,
            kind: FaultKind::Permanent,
        });
        let src = s
            .evaluate(&AtomicQuery::new("D", Target::text("t")))
            .unwrap();
        let mut out = Vec::new();
        let got = src.try_sorted_batch(0, grades.len(), &mut out).unwrap();
        assert_eq!(got, grades.len(), "degraded scan still spans the universe");
        assert!(src.degraded(), "the answer must be flagged");
        // The dropped shard's ids answer grade zero, the others exactly.
        let dropped = s.health();
        let report = dropped.iter().find(|h| h.attribute == "D").unwrap();
        assert!(!report.healthy());
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.io_gave_up >= 1);
        assert!(
            report.quarantined[0].to_str().unwrap().contains(victim),
            "health names the dead file"
        );
    }

    #[test]
    fn sharded_universe_mismatch_is_a_typed_error() {
        let dir = temp_dir();
        let parts = SegmentWriter::new()
            .write_sharded_grades(&dir, "shardshort", 2, &[g(0.1), g(0.2), g(0.3)])
            .unwrap();
        let opened =
            DiskSubsystem::new("disk", 5).open_sharded_segment("A", parts.iter().map(|p| &p.path));
        assert_universe_error(opened, 5);
    }
}
