//! Benchmark-side tracing: a span recorder and the three wrappers that
//! record spans at the program's public boundaries.
//!
//! * [`TracedSubsystem`] wraps any [`Subsystem`]; the handles it returns
//!   ([`Timed`]) forward every [`GradedSource`] and [`SetAccess`] method.
//! * [`TimedVfs`] wraps any [`Vfs`] and the file handles it opens.
//!
//! All of them forward arguments and results untouched, so answers, tie
//! order and Section 5 billing are the same with and without them (pinned
//! by the tests in `workload.rs`). Spans are kept in memory; nothing is
//! written while a pass runs.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use garlic_agg::Grade;
use garlic_core::access::{BoundedBatch, GradedSource, SetAccess, SourceError};
use garlic_core::{GradedEntry, ObjectId};
use garlic_storage::{Vfs, VfsFile, VfsRead};
use garlic_subsys::{AtomicQuery, Subsystem, SubsystemError};

use crate::stats::self_time;

/// Which kind of file a Vfs span touched, from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// A segment file or its tmp sibling.
    Segment,
    /// A write-ahead log.
    Wal,
    /// A live store's manifest or its tmp sibling.
    Manifest,
    /// A directory or anything else.
    Other,
}

impl FileClass {
    fn of(path: &Path) -> FileClass {
        let name = path.file_name().map(|n| n.to_string_lossy());
        match name.as_deref() {
            Some(n) if n.contains(".seg") => FileClass::Segment,
            Some(n) if n.contains(".wal") => FileClass::Wal,
            Some(n) if n.starts_with("MANIFEST") => FileClass::Manifest,
            _ => FileClass::Other,
        }
    }

    /// Short name used in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            FileClass::Segment => "seg",
            FileClass::Wal => "wal",
            FileClass::Manifest => "manifest",
            FileClass::Other => "other",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder; ids start at 1.
    pub id: u32,
    /// The span open on the same thread when this one started; 0 for none.
    pub parent: u32,
    /// The query being served when the span started; 0 outside queries.
    pub query: u32,
    /// A small per-thread number; the client thread records the root.
    pub thread: u32,
    /// Layer boundary, e.g. `source.sorted`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    /// Nanoseconds since the recorder was created.
    pub end: u64,
    /// Entries, probes or other items the call handled.
    pub units: u64,
    /// Bytes moved, for Vfs spans.
    pub bytes: u64,
    /// File class, for Vfs spans.
    pub class: FileClass,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static QUERY: Cell<u32> = const { Cell::new(0) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Collects spans from every thread. Recording is off until
/// [`Recorder::set_enabled`] turns it on, so a traced stack can warm up
/// without filling memory.
pub struct Recorder {
    enabled: AtomicBool,
    next_id: AtomicU32,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder with recording off.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Turns recording on or off. Spans open across the switch are dropped.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Tags spans started on this thread from now on with `query`.
    pub fn set_query(&self, query: u32) {
        QUERY.with(|q| q.set(query));
    }

    /// Opens a span that closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        self.enter_file(name, FileClass::Other)
    }

    fn enter_file(&self, name: &'static str, class: FileClass) -> SpanGuard<'_> {
        if !self.enabled.load(Ordering::Relaxed) {
            return SpanGuard {
                recorder: self,
                span: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        SpanGuard {
            recorder: self,
            span: Some(Span {
                id,
                parent,
                query: QUERY.with(Cell::get),
                thread: thread_number(),
                name,
                start: self.now(),
                end: 0,
                units: 0,
                bytes: 0,
                class,
            }),
        }
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.enter(name);
        f()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no panics while holding the span list"),
        )
    }
}

/// An open span; see [`Recorder::enter`].
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    span: Option<Span>,
}

impl SpanGuard<'_> {
    /// The span's id; 0 while recording is off.
    pub fn id(&self) -> u32 {
        self.span.as_ref().map_or(0, |span| span.id)
    }

    /// Records how many items the call handled.
    pub fn units(&mut self, units: usize) {
        if let Some(span) = &mut self.span {
            span.units = units as u64;
        }
    }

    fn bytes(&mut self, bytes: usize) {
        if let Some(span) = &mut self.span {
            span.bytes = bytes as u64;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut span) = self.span.take() else {
            return;
        };
        span.end = self.recorder.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == span.id) {
                open.truncate(at);
            }
        });
        if self.recorder.enabled.load(Ordering::Relaxed) {
            if let Ok(mut spans) = self.recorder.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Self time and call count of one span name inside a root span's tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name in the tree.
    pub calls: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
    /// Sum of their `units`.
    pub units: u64,
}

/// Self time per span name over the tree below `root` (the root included).
/// Only spans reachable from the root through parent links count, which
/// restricts the sum to the root's thread: a span started on another thread
/// has no parent there. The self times of a tree sum to the root's
/// duration.
pub fn self_times(spans: &[Span], root: u32) -> Vec<(&'static str, LayerTime)> {
    let mut children: std::collections::HashMap<u32, Vec<usize>> = std::collections::HashMap::new();
    let mut root_at = None;
    for (at, span) in spans.iter().enumerate() {
        children.entry(span.parent).or_default().push(at);
        if span.id == root {
            root_at = Some(at);
        }
    }
    let mut layers: Vec<(&'static str, LayerTime)> = Vec::new();
    let mut pending: Vec<usize> = root_at.into_iter().collect();
    while let Some(at) = pending.pop() {
        let span = &spans[at];
        let below = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
        let mut intervals: Vec<(u64, u64)> = below
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let own = self_time(span.start, span.end, &mut intervals);
        let slot = match layers.iter().position(|(name, _)| *name == span.name) {
            Some(slot) => slot,
            None => {
                layers.push((span.name, LayerTime::default()));
                layers.len() - 1
            }
        };
        layers[slot].1.calls += 1;
        layers[slot].1.self_ns += own;
        layers[slot].1.units += span.units;
        pending.extend_from_slice(below);
    }
    layers
}

/// A [`Subsystem`] that records a span around every call into the wrapped
/// one and hands out [`Timed`] answer handles.
pub struct TracedSubsystem {
    inner: Arc<dyn Subsystem>,
    recorder: Arc<Recorder>,
}

impl TracedSubsystem {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Subsystem>, recorder: Arc<Recorder>) -> Self {
        TracedSubsystem { inner, recorder }
    }

    fn timed<S: ?Sized>(&self, inner: Arc<S>) -> Arc<Timed<S>> {
        Arc::new(Timed {
            inner,
            recorder: Arc::clone(&self.recorder),
        })
    }
}

impl Subsystem for TracedSubsystem {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attributes(&self) -> Vec<String> {
        self.inner.attributes()
    }

    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn evaluate(&self, query: &AtomicQuery) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        let _span = self.recorder.enter("subsys.evaluate");
        let source = self.inner.evaluate(query)?;
        Ok(self.timed(source))
    }

    fn is_crisp(&self, attribute: &str) -> bool {
        self.inner.is_crisp(attribute)
    }

    fn evaluate_set(&self, query: &AtomicQuery) -> Result<Arc<dyn SetAccess>, SubsystemError> {
        let _span = self.recorder.enter("subsys.evaluate");
        let source = self.inner.evaluate_set(query)?;
        Ok(self.timed(source))
    }

    fn estimate_matches(&self, query: &AtomicQuery) -> Option<usize> {
        self.inner.estimate_matches(query)
    }

    fn supports_internal_conjunction(&self) -> bool {
        self.inner.supports_internal_conjunction()
    }

    fn evaluate_internal_conjunction(
        &self,
        queries: &[AtomicQuery],
    ) -> Result<Arc<dyn GradedSource>, SubsystemError> {
        let _span = self.recorder.enter("subsys.evaluate");
        let source = self.inner.evaluate_internal_conjunction(queries)?;
        Ok(self.timed(source))
    }
}

/// An answer handle that records a span around every access: over
/// `dyn GradedSource` the timed source, over `dyn SetAccess` the timed set.
pub struct Timed<S: ?Sized> {
    inner: Arc<S>,
    recorder: Arc<Recorder>,
}

const SORTED: &str = "source.sorted";
const RANDOM: &str = "source.random";
const SET: &str = "source.set";

impl<S: GradedSource + ?Sized> GradedSource for Timed<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn sorted_access(&self, rank: usize) -> Option<GradedEntry> {
        let mut span = self.recorder.enter(SORTED);
        let entry = self.inner.sorted_access(rank);
        span.units(usize::from(entry.is_some()));
        entry
    }

    fn random_access(&self, object: ObjectId) -> Option<Grade> {
        let mut span = self.recorder.enter(RANDOM);
        span.units(1);
        self.inner.random_access(object)
    }

    fn random_batch(&self, objects: &[ObjectId], out: &mut Vec<Option<Grade>>) {
        let mut span = self.recorder.enter(RANDOM);
        span.units(objects.len());
        self.inner.random_batch(objects, out);
    }

    fn sorted_batch(&self, start: usize, count: usize, out: &mut Vec<GradedEntry>) -> usize {
        let mut span = self.recorder.enter(SORTED);
        let appended = self.inner.sorted_batch(start, count, out);
        span.units(appended);
        appended
    }

    fn sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> BoundedBatch {
        let mut span = self.recorder.enter(SORTED);
        let batch = self.inner.sorted_batch_bounded(start, count, bound, out);
        span.units(batch.appended);
        batch
    }

    fn try_sorted_batch(
        &self,
        start: usize,
        count: usize,
        out: &mut Vec<GradedEntry>,
    ) -> Result<usize, SourceError> {
        let mut span = self.recorder.enter(SORTED);
        let appended = self.inner.try_sorted_batch(start, count, out)?;
        span.units(appended);
        Ok(appended)
    }

    fn try_random_batch(
        &self,
        objects: &[ObjectId],
        out: &mut Vec<Option<Grade>>,
    ) -> Result<(), SourceError> {
        let mut span = self.recorder.enter(RANDOM);
        span.units(objects.len());
        self.inner.try_random_batch(objects, out)
    }

    fn try_sorted_batch_bounded(
        &self,
        start: usize,
        count: usize,
        bound: Grade,
        out: &mut Vec<GradedEntry>,
    ) -> Result<BoundedBatch, SourceError> {
        let mut span = self.recorder.enter(SORTED);
        let batch = self
            .inner
            .try_sorted_batch_bounded(start, count, bound, out)?;
        span.units(batch.appended);
        Ok(batch)
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }
}

impl<S: SetAccess + ?Sized> SetAccess for Timed<S> {
    fn matching_set(&self) -> Vec<ObjectId> {
        let mut span = self.recorder.enter(SET);
        let set = self.inner.matching_set();
        span.units(set.len());
        set
    }

    fn try_matching_set(&self) -> Result<Vec<ObjectId>, SourceError> {
        let mut span = self.recorder.enter(SET);
        let set = self.inner.try_matching_set()?;
        span.units(set.len());
        Ok(set)
    }
}

const READ: &str = "vfs.read";
const WRITE: &str = "vfs.write";
const SYNC: &str = "vfs.sync";
const RENAME: &str = "vfs.rename";
const META: &str = "vfs.meta";

/// A [`Vfs`] that records a span around every operation of the wrapped one
/// and of the file handles it opens.
#[derive(Debug)]
pub struct TimedVfs {
    inner: Arc<dyn Vfs>,
    recorder: Arc<Recorder>,
}

impl TimedVfs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Vfs>, recorder: Arc<Recorder>) -> Self {
        TimedVfs { inner, recorder }
    }

    fn file(&self, class: FileClass, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(TimedFile {
            inner,
            class,
            recorder: Arc::clone(&self.recorder),
        })
    }
}

impl Vfs for TimedVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        let class = FileClass::of(path);
        let _span = self.recorder.enter_file(META, class);
        Ok(Box::new(TimedRead {
            inner: self.inner.open_read(path)?,
            class,
            recorder: Arc::clone(&self.recorder),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let class = FileClass::of(path);
        let _span = self.recorder.enter_file(META, class);
        Ok(self.file(class, self.inner.create(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let class = FileClass::of(path);
        let _span = self.recorder.enter_file(META, class);
        Ok(self.file(class, self.inner.open_rw(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let _span = self.recorder.enter_file(RENAME, FileClass::of(to));
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let _span = self.recorder.enter_file(META, FileClass::of(path));
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let _span = self.recorder.enter_file(SYNC, FileClass::Other);
        self.inner.sync_dir(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let _span = self.recorder.enter_file(META, FileClass::Other);
        self.inner.read_dir(dir)
    }
}

struct TimedRead {
    inner: Box<dyn VfsRead>,
    class: FileClass,
    recorder: Arc<Recorder>,
}

impl VfsRead for TimedRead {
    fn len(&self) -> io::Result<u64> {
        let _span = self.recorder.enter_file(META, self.class);
        self.inner.len()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let mut span = self.recorder.enter_file(READ, self.class);
        span.bytes(buf.len());
        self.inner.read_exact_at(buf, offset)
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
    recorder: Arc<Recorder>,
}

impl VfsFile for TimedFile {
    fn read_to_end(&mut self, out: &mut Vec<u8>) -> io::Result<usize> {
        let mut span = self.recorder.enter_file(READ, self.class);
        let read = self.inner.read_to_end(out)?;
        span.bytes(read);
        Ok(read)
    }

    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.inner.seek_to(offset)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut span = self.recorder.enter_file(WRITE, self.class);
        span.bytes(buf.len());
        self.inner.write_all(buf)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let _span = self.recorder.enter_file(WRITE, self.class);
        self.inner.set_len(len)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let _span = self.recorder.enter_file(SYNC, self.class);
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let _span = self.recorder.enter_file(SYNC, self.class);
        self.inner.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            query: 0,
            thread: 1,
            name,
            start,
            end,
            units: 1,
            bytes: 0,
            class: FileClass::Other,
        }
    }

    fn layer(layers: &[(&'static str, LayerTime)], name: &str) -> LayerTime {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, l)| *l)
            .unwrap_or_default()
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let spans = vec![
            span(1, 0, "pass", 0, 1000),
            span(2, 1, "query", 100, 600),
            span(3, 2, "top_k", 150, 550),
            span(4, 3, "source.sorted", 200, 300),
            span(5, 4, "vfs.read", 220, 260),
            span(6, 3, "source.sorted", 320, 400),
            span(7, 1, "query", 700, 900),
            // Another thread's work is not below the root.
            span(8, 0, "vfs.write", 100, 900),
        ];
        let layers = self_times(&spans, 1);
        assert_eq!(layer(&layers, "pass").self_ns, 300);
        assert_eq!(layer(&layers, "query").self_ns, 100 + 200);
        assert_eq!(layer(&layers, "top_k").self_ns, 400 - 100 - 80);
        assert_eq!(layer(&layers, "source.sorted").self_ns, 60 + 80);
        assert_eq!(layer(&layers, "source.sorted").calls, 2);
        assert_eq!(layer(&layers, "vfs.read").self_ns, 40);
        assert_eq!(layer(&layers, "vfs.write").calls, 0);
        let total: u64 = layers.iter().map(|(_, l)| l.self_ns).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn recorder_links_nested_spans_and_respects_the_switch() {
        let recorder = Recorder::new();
        recorder.time("ignored", || ());
        assert!(recorder.take().is_empty());

        recorder.set_enabled(true);
        recorder.set_query(9);
        {
            let _outer = recorder.enter("outer");
            let mut inner = recorder.enter("inner");
            inner.units(3);
        }
        recorder.set_query(0);
        recorder.time("after", || ());
        let spans = recorder.take();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).expect("recorded");
        assert_eq!(by_name("inner").parent, by_name("outer").id);
        assert_eq!(by_name("inner").units, 3);
        assert_eq!(by_name("inner").query, 9);
        assert_eq!(by_name("outer").parent, 0);
        assert_eq!(by_name("after").parent, 0);
        assert_eq!(by_name("after").query, 0);
        assert!(by_name("outer").start <= by_name("inner").start);
        assert!(by_name("inner").end <= by_name("outer").end);
    }

    #[test]
    fn file_classes_follow_the_store_naming() {
        assert_eq!(FileClass::of(Path::new("d/F0.seg")), FileClass::Segment);
        assert_eq!(FileClass::of(Path::new("d/F0.seg.tmp")), FileClass::Segment);
        assert_eq!(
            FileClass::of(Path::new("d/seg-000004.seg")),
            FileClass::Segment
        );
        assert_eq!(FileClass::of(Path::new("d/wal-000003.wal")), FileClass::Wal);
        assert_eq!(
            FileClass::of(Path::new("d/MANIFEST.tmp")),
            FileClass::Manifest
        );
        assert_eq!(FileClass::of(Path::new("d")), FileClass::Other);
    }
}
