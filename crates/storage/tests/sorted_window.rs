//! The engine's sorted read window is one default segment block: a list
//! fetches to the end of the 256-rank window holding a round's last folded
//! rank, and a default segment stores exactly those 256 ranks in one data
//! block, so a page loads each data block its fold reaches once and no
//! block past it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use garlic_agg::iterated::min_agg;
use garlic_agg::Grade;
use garlic_core::access::SORTED_WINDOW;
use garlic_core::{EngineSession, ObjectId};
use garlic_storage::format::{Footer, DEFAULT_BLOCK_SIZE, ENTRY_LEN, HEADER_LEN, TRAILER_LEN};
use garlic_storage::{std_vfs, BlockCache, SegmentSource, SegmentWriter, Vfs, VfsFile, VfsRead};

#[test]
fn the_sorted_window_is_one_default_block_of_entries() {
    assert_eq!(SORTED_WINDOW, DEFAULT_BLOCK_SIZE / ENTRY_LEN);
}

/// Every positioned read made through the files it opens, as `(path,
/// offset)`.
#[derive(Debug, Default)]
struct Recording(Arc<Mutex<Vec<(PathBuf, u64)>>>);

struct RecordedRead {
    path: PathBuf,
    inner: Box<dyn VfsRead>,
    log: Arc<Mutex<Vec<(PathBuf, u64)>>>,
}

impl VfsRead for RecordedRead {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.log.lock().unwrap().push((self.path.clone(), offset));
        self.inner.read_exact_at(buf, offset)
    }
}

impl Vfs for Recording {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        Ok(Box::new(RecordedRead {
            path: path.to_path_buf(),
            inner: std_vfs().open_read(path)?,
            log: self.0.clone(),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        std_vfs().create(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        std_vfs().open_rw(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std_vfs().rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std_vfs().remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std_vfs().sync_dir(dir)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std_vfs().read_dir(dir)
    }
}

/// The byte offset where the data region of the segment at `path` ends:
/// the header, then every data block's stored bytes.
fn data_end(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap();
    let trailer = bytes.len() - TRAILER_LEN as usize;
    let at = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    let footer = Footer::parse(&bytes[at..trailer]).unwrap();
    HEADER_LEN + footer.data_block_lens.iter().sum::<u64>()
}

#[test]
fn an_a0_page_loads_one_data_block_per_window_it_folds_into() {
    let dir = std::env::temp_dir().join(format!("garlic-sorted-window-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Three lists over `0..N`, each a different scramble of the ids, in
    // default 4 KiB blocks.
    let n: u64 = 20_000;
    let paths: Vec<PathBuf> = [7_919u64, 104_729, 15_485_863]
        .iter()
        .enumerate()
        .map(|(i, &step)| {
            let grade = |x: u64| Grade::clamped((x * step % n) as f64 / n as f64);
            let pairs: Vec<_> = (0..n).map(|x| (ObjectId(x), grade(x))).collect();
            let path = dir.join(format!("{i}.seg"));
            SegmentWriter::new().write_pairs(&path, pairs).unwrap();
            path
        })
        .collect();

    let vfs = Recording::default();
    let log = vfs.0.clone();
    let vfs: Arc<dyn Vfs> = Arc::new(vfs);
    let cache = Arc::new(BlockCache::new(1 << 12));
    let lists: Vec<SegmentSource> = paths
        .iter()
        .map(|path| SegmentSource::open_with(path, cache.clone(), &vfs).unwrap())
        .collect();
    // Opening verifies every block without filling the cache: what follows
    // is read cold.
    log.lock().unwrap().clear();

    let mut session = EngineSession::new(lists, min_agg()).unwrap();
    session.next_batch(10).unwrap();
    let depth = session.depth();
    assert!(
        depth > SORTED_WINDOW && !depth.is_multiple_of(SORTED_WINDOW),
        "depth {depth}"
    );
    let log = log.lock().unwrap();
    for path in &paths {
        let end = data_end(path);
        let loads = log
            .iter()
            .filter(|(read, offset)| read == path && (HEADER_LEN..end).contains(offset))
            .count();
        assert_eq!(loads, depth.div_ceil(SORTED_WINDOW), "{}", path.display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
