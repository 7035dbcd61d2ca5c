//! The four workloads: how each is built on disk, opened, driven for one
//! pass over the trace, and checked.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use garlic_agg::Grade;
use garlic_core::access::{GradedSource, MemorySource};
use garlic_core::{AccessStats, GradedEntry, ObjectId};
use garlic_middleware::{parse_query, Catalog, Garlic, GarlicService, QueryResult, Strategy};
use garlic_storage::{
    std_vfs, BlockCache, LiveOptions, LiveSource, SegmentWriter, StorageError, Vfs, WalOp,
};
use garlic_subsys::{DiskSubsystem, Subsystem, VectorSubsystem};
use garlic_telemetry::Telemetry;

use crate::gen::{attribute_names, TraceQuery, WriteStream, QUERIES_PER_WRITE_ROUND};
use crate::trace::{Recorder, TimedVfs, TracedSubsystem};

/// Id-range shards per attribute on `sharded_warm`.
pub const SHARDS: usize = 4;
/// Cache large enough for the whole working set (about 5 100 blocks).
pub const WARM_CACHE_BLOCKS: usize = 65_536;
/// Cache of about 2.5 % of the working set.
pub const COLD_CACHE_BLOCKS: usize = 128;
/// Ops per memtable on `live_mixed`, and per bulk-ingest batch.
pub const MEMTABLE_LIMIT: usize = 4096;
/// Set-up pre-writes `i * DEPHASE_STEP` upserts to live attribute `i`, so
/// the eight memtables fill, freeze and compact at different moments
/// instead of in one burst every 64th write round.
pub const DEPHASE_STEP: usize = 512;

/// How many upserts set-up pre-writes to the `i`-th live attribute: short
/// of a full memtable, and no more than the universe holds.
pub fn dephase_upserts(i: usize, n: usize) -> usize {
    (i * DEPHASE_STEP).min(MEMTABLE_LIMIT - 1).min(n)
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One flat segment per attribute, cache larger than the working set.
    FlatWarm,
    /// The same files, cache of 512 blocks.
    FlatCold,
    /// Four id-range shards per attribute behind the k-way merge.
    ShardedWarm,
    /// Writable live stores, one write round before every 4th query.
    LiveMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FlatWarm,
        Workload::FlatCold,
        Workload::ShardedWarm,
        Workload::LiveMixed,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatWarm => "flat_warm",
            Workload::FlatCold => "flat_cold",
            Workload::ShardedWarm => "sharded_warm",
            Workload::LiveMixed => "live_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether queries run beside writes.
    pub fn is_live(self) -> bool {
        self == Workload::LiveMixed
    }

    fn cache_blocks(self) -> usize {
        match self {
            Workload::FlatCold => COLD_CACHE_BLOCKS,
            _ => WARM_CACHE_BLOCKS,
        }
    }
}

/// Strategy names as they appear in `exec.<strategy>.*` metrics.
pub const STRATEGIES: [&str; 5] = ["fa_min", "b0_max", "fa_generic", "filtered", "naive"];

/// The `exec.<strategy>.*` label of a plan's strategy.
pub fn strategy_label(strategy: &Strategy) -> Option<&'static str> {
    match strategy {
        Strategy::FaMin => Some("fa_min"),
        Strategy::B0Max => Some("b0_max"),
        Strategy::FaGeneric => Some("fa_generic"),
        Strategy::Filtered { .. } => Some("filtered"),
        Strategy::NaiveCalculus => Some("naive"),
        Strategy::InternalPushdown { .. } | Strategy::FaNnf => None,
    }
}

/// What a query must return: entries in order, and the Section 5 bill.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    entries: Vec<GradedEntry>,
    stats: AccessStats,
}

impl Expected {
    /// Billed accesses, sorted plus random.
    pub fn accesses(&self) -> u64 {
        self.stats.sorted + self.stats.random
    }
}

/// A service over in-memory lists holding `grades` (one dense vector per
/// attribute): the reference every disk answer is compared with.
pub fn memory_service(grades: &[Vec<Grade>]) -> GarlicService {
    let n = grades.first().map_or(0, Vec::len);
    let mut lists = VectorSubsystem::new("reference", n);
    for (name, list) in attribute_names().iter().zip(grades) {
        lists = lists.with_source(name, MemorySource::from_grades(list));
    }
    let mut catalog = Catalog::new();
    catalog
        .register(lists)
        .expect("one subsystem, distinct attributes");
    GarlicService::with_threads(Garlic::new(catalog), 1)
}

/// Reference answers for `trace` from `service`.
pub fn reference(service: &GarlicService, trace: &[TraceQuery]) -> Result<Vec<Expected>, String> {
    trace
        .iter()
        .map(|q| {
            let query = parse_query(&q.text).map_err(|e| format!("{}: {e}", q.text))?;
            let result = service
                .top_k(&query, q.k)
                .map_err(|e| format!("{}: {e}", q.text))?;
            Ok(Expected {
                entries: result.answers.into_entries(),
                stats: result.stats,
            })
        })
        .collect()
}

fn bit_equal(a: &[GradedEntry], b: &[GradedEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.object == y.object && x.grade.value().to_bits() == y.grade.value().to_bits()
        })
}

/// Writes the workload's files into the empty directory `dir`. `telemetry`
/// is handed to the live stores the ingest runs through.
pub fn build(
    workload: Workload,
    dir: &Path,
    grades: &[Vec<Grade>],
    telemetry: Option<&Arc<Telemetry>>,
) -> Result<(), StorageError> {
    std::fs::create_dir_all(dir)?;
    let names = attribute_names();
    match workload {
        Workload::FlatWarm | Workload::FlatCold => {
            let writer = SegmentWriter::new();
            for (name, list) in names.iter().zip(grades) {
                writer.write_grades(&dir.join(format!("{name}.seg")), list)?;
            }
        }
        Workload::ShardedWarm => {
            let writer = SegmentWriter::new();
            for (name, list) in names.iter().zip(grades) {
                writer.write_sharded_grades(dir, name, SHARDS, list)?;
            }
        }
        Workload::LiveMixed => {
            // Bulk load with compaction deferred to one `flush` per
            // attribute. With the compactor racing the ingest, how many
            // frozen layers each compaction merged depended on how fast
            // fsync was that minute, and `write_amp` moved by 40 % with it.
            let n = grades.first().map_or(0, Vec::len);
            let cache = Arc::new(BlockCache::new(workload.cache_blocks()));
            for (i, (name, list)) in names.iter().zip(grades).enumerate() {
                let options = LiveOptions {
                    memtable_limit: MEMTABLE_LIMIT,
                    auto_compact: false,
                    universe: Some(n),
                    telemetry: telemetry.cloned(),
                    ..LiveOptions::default()
                };
                let live = LiveSource::open(&dir.join(name), Arc::clone(&cache), options)?;
                let upsert = |object: usize| WalOp::Upsert {
                    object: ObjectId(object as u64),
                    grade: list[object],
                };
                let all: Vec<WalOp> = (0..n).map(upsert).collect();
                for batch in all.chunks(MEMTABLE_LIMIT) {
                    live.write_batch(batch)?;
                }
                live.flush()?;
                // De-phase: rewrite grades the objects already hold, which
                // fills the memtable without changing the contents.
                live.write_batch(&all[..dephase_upserts(i, n)])?;
            }
        }
    }
    Ok(())
}

/// An opened workload: the disk subsystem and a single-threaded service
/// over it, with or without the tracing wrappers in between.
pub struct Stack {
    /// The disk subsystem itself (never the wrapper), for stats and writes.
    pub disk: Arc<DiskSubsystem>,
    /// Serves queries on the calling thread.
    pub service: GarlicService,
    /// Present when the tracing wrappers are installed.
    pub recorder: Option<Arc<Recorder>>,
}

impl Stack {
    /// Opens (and verifies) the files [`build`] left in `dir`.
    ///
    /// With a `recorder`, file I/O goes through [`TimedVfs`] and the
    /// catalog holds a [`TracedSubsystem`]. `telemetry` is always handed to
    /// the live stores, where it costs one histogram sample per fsync and
    /// per compaction, so that compactions are counted over the whole run;
    /// a traced stack also attaches it to the middleware and to the disk
    /// subsystem's pull collectors.
    pub fn open(
        workload: Workload,
        dir: &Path,
        n: usize,
        recorder: Option<Arc<Recorder>>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Stack, StorageError> {
        let cache = Arc::new(BlockCache::new(workload.cache_blocks()));
        let vfs: Arc<dyn Vfs> = match &recorder {
            Some(recorder) => Arc::new(TimedVfs::new(std_vfs(), Arc::clone(recorder))),
            None => std_vfs(),
        };
        let mut disk = DiskSubsystem::with_cache("disk", n, cache).with_vfs(vfs);
        for name in attribute_names() {
            disk = match workload {
                Workload::FlatWarm | Workload::FlatCold => {
                    disk.open_segment(&name, &dir.join(format!("{name}.seg")))?
                }
                Workload::ShardedWarm => {
                    let shards: Vec<PathBuf> = (0..SHARDS)
                        .map(|i| dir.join(format!("{name}.{i:03}.seg")))
                        .filter(|path| path.exists())
                        .collect();
                    disk.open_sharded_segment(&name, shards)?
                }
                Workload::LiveMixed => {
                    let options = LiveOptions {
                        memtable_limit: MEMTABLE_LIMIT,
                        auto_compact: true,
                        telemetry: telemetry.clone(),
                        ..LiveOptions::default()
                    };
                    disk.open_live_with(&name, &dir.join(&name), options)?
                }
            };
        }
        let disk = Arc::new(disk);
        let subsystem: Arc<dyn Subsystem> = match &recorder {
            Some(recorder) => Arc::new(TracedSubsystem::new(
                Arc::clone(&disk) as Arc<dyn Subsystem>,
                Arc::clone(recorder),
            )),
            None => Arc::clone(&disk) as Arc<dyn Subsystem>,
        };
        let mut catalog = Catalog::new();
        catalog
            .register_arc(subsystem)
            .expect("one subsystem, distinct attributes");
        let mut garlic = Garlic::new(catalog);
        if let (Some(_), Some(telemetry)) = (&recorder, &telemetry) {
            disk.register_telemetry(telemetry);
            garlic = garlic.with_telemetry(Arc::clone(telemetry));
        }
        Ok(Stack {
            disk,
            service: GarlicService::with_threads(garlic, 1),
            recorder,
        })
    }

    fn live(&self, attribute: &str) -> &Arc<LiveSource> {
        self.disk
            .live_source(attribute)
            .expect("live_mixed opens every attribute live")
    }
}

/// The client-side model of a live run: what every acknowledged write left
/// in each attribute, and the stream the next writes come from.
pub struct WriteState {
    stream: WriteStream,
    /// `model[a][object]`: the grade attribute `a` must now hold.
    pub model: Vec<Vec<Grade>>,
}

impl WriteState {
    /// Starts from the corpus `build` ingested.
    pub fn new(seed: u64, grades: &[Vec<Grade>]) -> Self {
        let n = grades.first().map_or(0, Vec::len);
        WriteState {
            stream: WriteStream::new(seed, n),
            model: grades.to_vec(),
        }
    }
}

/// What one pass over the trace produced.
#[derive(Default)]
pub struct Pass {
    /// Client wall time of the whole pass, write rounds included.
    pub wall_ns: u64,
    /// Text-in to page-out latency of each query, in trace order.
    pub latency_ns: Vec<u64>,
    /// Each query's outcome, in trace order.
    pub results: Vec<Result<QueryResult, String>>,
    /// Latency of each `write_batch` call.
    pub write_ns: Vec<u64>,
    /// `write_batch` calls that returned an error.
    pub write_errors: u64,
    /// Upserts acknowledged.
    pub upserts: u64,
    /// Most frozen memtables any attribute had waiting after a write round.
    pub frozen_layers_max: usize,
    /// The id of the pass's root span, when traced.
    pub root_span: u32,
}

impl Pass {
    /// Operations attempted: queries plus `write_batch` calls.
    pub fn attempted(&self) -> u64 {
        (self.results.len() + self.write_ns.len()) as u64
    }

    /// Mean billed accesses (sorted plus random) per answered query.
    pub fn accesses_per_query(&self) -> f64 {
        let answered: Vec<u64> = self
            .results
            .iter()
            .flatten()
            .map(|r| r.stats.sorted + r.stats.random)
            .collect();
        answered.iter().sum::<u64>() as f64 / answered.len().max(1) as f64
    }

    /// Queries that errored or disagree with `expected` on entries, tie
    /// order or billed stats.
    pub fn mismatches(&self, expected: &[Expected]) -> u64 {
        self.results
            .iter()
            .zip(expected)
            .filter(|(result, want)| match result {
                Ok(got) => {
                    got.degraded
                        || got.stats != want.stats
                        || !bit_equal(got.answers.entries(), &want.entries)
                }
                Err(_) => true,
            })
            .count() as u64
    }

    /// Queries that errored, were flagged degraded, or returned a page of
    /// the wrong length — all that can be said while the data is moving.
    pub fn unsound(&self, trace: &[TraceQuery], n: usize) -> u64 {
        self.results
            .iter()
            .zip(trace)
            .filter(|(result, query)| match result {
                Ok(got) => got.degraded || got.answers.len() != query.k.min(n),
                Err(_) => true,
            })
            .count() as u64
    }
}

/// One write round: every attribute takes one fsynced batch of row copies.
fn write_round(stack: &Stack, state: &mut WriteState, pass: &mut Pass) {
    let round = state.stream.next_round();
    for (a, name) in attribute_names().iter().enumerate() {
        let live = stack.live(name);
        let ops: Vec<WalOp> = round
            .iter()
            .map(|w| WalOp::Upsert {
                object: ObjectId(u64::from(w.object)),
                grade: state.model[a][w.donor as usize],
            })
            .collect();
        let start = Instant::now();
        let written = match &stack.recorder {
            Some(recorder) => recorder.time("live.write", || live.write_batch(&ops)),
            None => live.write_batch(&ops),
        };
        pass.write_ns.push(elapsed_ns(start));
        match written {
            Ok(()) => {
                pass.upserts += ops.len() as u64;
                for op in ops {
                    if let WalOp::Upsert { object, grade } = op {
                        state.model[a][object.index()] = grade;
                    }
                }
            }
            Err(_) => pass.write_errors += 1,
        }
        pass.frozen_layers_max = pass.frozen_layers_max.max(live.frozen_layers());
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs every query of `trace` once, in order, on the calling thread. With
/// `writes`, a write round runs before every
/// [`QUERIES_PER_WRITE_ROUND`]-th query.
///
/// On a traced stack whose recorder is enabled the pass records a `pass`
/// root, a `query` span per query, and below it `parse`, `plan` (an extra
/// `plan_for` call that exists only to be timed) and `top_k`.
pub fn run_pass(stack: &Stack, trace: &[TraceQuery], mut writes: Option<&mut WriteState>) -> Pass {
    let mut pass = Pass::default();
    let recorder = stack.recorder.as_deref();
    let start = Instant::now();
    let mut root = recorder.map(|r| r.enter("pass"));
    pass.root_span = root.as_ref().map_or(0, |span| span.id());
    for (i, query) in trace.iter().enumerate() {
        if let Some(state) = writes.as_deref_mut() {
            if i % QUERIES_PER_WRITE_ROUND == 0 {
                write_round(stack, state, &mut pass);
            }
        }
        if let Some(r) = recorder {
            r.set_query(i as u32 + 1);
        }
        let query_span = recorder.map(|r| r.enter("query"));
        let asked = Instant::now();
        let result = match recorder {
            None => parse_query(&query.text)
                .map_err(|e| e.to_string())
                .and_then(|q| stack.service.top_k(&q, query.k).map_err(|e| e.to_string())),
            Some(r) => r
                .time("parse", || parse_query(&query.text))
                .map_err(|e| e.to_string())
                .and_then(|q| {
                    let garlic = stack.service.garlic();
                    let _ = r.time("plan", || garlic.plan_for(&q, query.k));
                    r.time("top_k", || stack.service.top_k(&q, query.k))
                        .map_err(|e| e.to_string())
                }),
        };
        pass.latency_ns.push(elapsed_ns(asked));
        drop(query_span);
        pass.results.push(result);
    }
    if let Some(r) = recorder {
        r.set_query(0);
    }
    root.take();
    pass.wall_ns = elapsed_ns(start);
    pass
}

/// Checks that every live attribute streams exactly what the model holds,
/// returning how many do not.
pub fn live_contents_mismatches(stack: &Stack, state: &WriteState) -> u64 {
    attribute_names()
        .iter()
        .zip(&state.model)
        .filter(|(name, grades)| {
            let want = MemorySource::from_grades(grades);
            let snapshot = stack.live(name).snapshot();
            let (mut got, mut expected) = (Vec::new(), Vec::new());
            let streamed = snapshot.try_sorted_batch(0, grades.len() + 1, &mut got);
            want.sorted_batch(0, grades.len() + 1, &mut expected);
            streamed.is_err() || !bit_equal(&got, &expected)
        })
        .count() as u64
}

/// Total size of the regular files below `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{corpus, trace, Shape};

    const N: usize = 3000;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-e2e-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The planner picks each of the five strategies for some trace query.
    fn covers_every_strategy(pass: &Pass) -> bool {
        STRATEGIES.iter().all(|want| {
            pass.results
                .iter()
                .flatten()
                .any(|r| strategy_label(&r.plan.strategy) == Some(want))
        })
    }

    #[test]
    fn wrappers_are_transparent_on_every_read_only_workload() {
        let grades = corpus(21, N);
        let queries = trace(21, 200);
        assert!(queries.iter().any(|q| q.shape == Shape::Negated));
        let expected = reference(&memory_service(&grades), &queries).unwrap();
        for workload in [
            Workload::FlatWarm,
            Workload::FlatCold,
            Workload::ShardedWarm,
        ] {
            let dir = test_dir(workload.name());
            build(workload, &dir, &grades, None).unwrap();

            let plain = Stack::open(workload, &dir, N, None, None).unwrap();
            let untraced = run_pass(&plain, &queries, None);
            assert_eq!(untraced.mismatches(&expected), 0, "{workload:?} untraced");
            assert!(covers_every_strategy(&untraced), "{workload:?}");

            let recorder = Recorder::new();
            recorder.set_enabled(true);
            let wrapped = Stack::open(
                workload,
                &dir,
                N,
                Some(Arc::clone(&recorder)),
                Some(Telemetry::new()),
            )
            .unwrap();
            let traced = run_pass(&wrapped, &queries, None);
            assert_eq!(traced.mismatches(&expected), 0, "{workload:?} traced");
            assert_eq!(traced.accesses_per_query(), untraced.accesses_per_query());

            let spans = recorder.take();
            for name in ["pass", "query", "parse", "plan", "top_k", "subsys.evaluate"] {
                assert!(
                    spans.iter().any(|s| s.name == name),
                    "{workload:?}: no {name}"
                );
            }
            for name in ["source.sorted", "source.random", "source.set", "vfs.read"] {
                assert!(
                    spans.iter().any(|s| s.name == name),
                    "{workload:?}: no {name}"
                );
            }
            let layers = crate::trace::self_times(&spans, traced.root_span);
            let total: u64 = layers.iter().map(|(_, l)| l.self_ns).sum();
            let root = spans.iter().find(|s| s.id == traced.root_span).unwrap();
            assert_eq!(total, root.duration());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn live_run_matches_its_model_with_and_without_wrappers() {
        // A memtable freezes at MEMTABLE_LIMIT distinct objects, so the
        // universe must be larger than that for a freeze ever to happen.
        const N: usize = 2 * MEMTABLE_LIMIT;
        let grades = corpus(22, N);
        let queries = trace(22, 160);
        let dir = test_dir("live");
        build(Workload::LiveMixed, &dir, &grades, None).unwrap();
        let mut state = WriteState::new(22, &grades);

        let plain = Stack::open(Workload::LiveMixed, &dir, N, None, None).unwrap();
        // Before any write round the live stores hold the corpus itself.
        let still = run_pass(&plain, &queries, None);
        let expected = reference(&memory_service(&grades), &queries).unwrap();
        assert_eq!(still.mismatches(&expected), 0);

        let mixed = run_pass(&plain, &queries, Some(&mut state));
        assert_eq!(mixed.unsound(&queries, N), 0);
        assert_eq!(mixed.write_errors, 0);
        assert_eq!(mixed.upserts, 40 * 8 * 64);
        assert_ne!(state.model, grades);
        assert_eq!(live_contents_mismatches(&plain, &state), 0);
        drop(plain);

        // Reopen behind the wrappers: recovery replays the log, more writes
        // land, and answers still match a catalog built from the model.
        let recorder = Recorder::new();
        recorder.set_enabled(true);
        let telemetry = Telemetry::new();
        let wrapped = Stack::open(
            Workload::LiveMixed,
            &dir,
            N,
            Some(Arc::clone(&recorder)),
            Some(Arc::clone(&telemetry)),
        )
        .unwrap();
        // 40 write rounds a pass: within a few passes every memtable has
        // frozen (and renamed a manifest) behind the wrappers.
        let frozen = |t: &Telemetry| t.snapshot().counter("live.memtable.freezes");
        for _ in 0..8 {
            let traced = run_pass(&wrapped, &queries, Some(&mut state));
            assert_eq!(traced.unsound(&queries, N), 0);
            assert_eq!(traced.write_errors, 0);
            if frozen(&telemetry) >= attribute_names().len() as u64 {
                break;
            }
        }
        assert!(frozen(&telemetry) >= attribute_names().len() as u64);
        assert_eq!(live_contents_mismatches(&wrapped, &state), 0);
        let expected = reference(&memory_service(&state.model), &queries).unwrap();
        let settled = run_pass(&wrapped, &queries, None);
        assert_eq!(settled.mismatches(&expected), 0);
        assert!(covers_every_strategy(&settled));

        let spans = recorder.take();
        for name in ["live.write", "vfs.write", "vfs.sync", "vfs.rename"] {
            assert!(spans.iter().any(|s| s.name == name), "no {name}");
        }
        drop(wrapped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wrong_answer_is_a_mismatch() {
        let grades = corpus(23, 500);
        let queries = trace(23, 20);
        let service = memory_service(&grades);
        let expected = reference(&service, &queries).unwrap();
        let mut other = grades.clone();
        other[0].reverse();
        let wrong = reference(&memory_service(&other), &queries).unwrap();
        assert_ne!(expected, wrong);
        let pass = Pass {
            results: queries
                .iter()
                .map(|q| {
                    service
                        .top_k(&parse_query(&q.text).unwrap(), q.k)
                        .map_err(|e| e.to_string())
                })
                .collect(),
            ..Pass::default()
        };
        assert_eq!(pass.mismatches(&expected), 0);
        assert!(pass.mismatches(&wrong) > 0);
        assert_eq!(pass.unsound(&queries, 500), 0);
        assert_eq!(pass.unsound(&queries, 5), queries.len() as u64);
    }
}
