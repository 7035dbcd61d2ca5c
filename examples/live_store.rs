//! Writable graded collections, end to end: open a live store, stream in
//! upserts and deletes, query through the middleware mid-write, "crash"
//! (drop with the memtable unflushed), reopen in a "second process" and
//! watch the WAL hand every acknowledged write back, then compact to
//! immutable segments and query again — same answers at every step.
//!
//! ```sh
//! cargo run --release --example live_store
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use garlic::core::access::GradedSource;
use garlic::middleware::{parse_query, Catalog, Garlic};
use garlic::storage::LiveSource;
use garlic::subsys::DiskSubsystem;
use garlic::{BlockCache, Grade, ObjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 5_000;

fn store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("garlic-live-store-{}", std::process::id()))
}

/// Opens (or recovers) the live store and wires it into the middleware.
/// The `Arc<LiveSource>` handles are the write API; the subsystem serves
/// reads from the same state.
fn open_store(cache: &Arc<BlockCache>) -> (Garlic, Vec<Arc<LiveSource>>) {
    let dir = store_dir();
    let sub = DiskSubsystem::with_cache("live_store", N, Arc::clone(cache))
        .open_live("Color", &dir.join("Color"))
        .expect("open live attribute")
        .open_live("Shape", &dir.join("Shape"))
        .expect("open live attribute")
        .open_live("InStock", &dir.join("InStock"))
        .expect("open live attribute");
    let handles: Vec<Arc<LiveSource>> = ["Color", "Shape", "InStock"]
        .iter()
        .map(|attr| Arc::clone(sub.live_source(attr).expect("live attribute")))
        .collect();
    let mut catalog = Catalog::new();
    catalog.register(sub).unwrap();
    (Garlic::new(catalog), handles)
}

fn run_queries(garlic: &Garlic, label: &str) -> Vec<Vec<ObjectId>> {
    let texts = [
        "Color = red AND Shape = round",
        "InStock = yes AND Color = red",
    ];
    println!("-- queries {label} --");
    let mut answers = Vec::new();
    for text in texts {
        let query = parse_query(text).expect("demo queries parse");
        let result = garlic.top_k(&query, 3).expect("demo queries execute");
        println!(
            "top-3 for {query}  [{:?}]  cost: {} sorted + {} random",
            result.plan.strategy, result.stats.sorted, result.stats.random
        );
        for entry in result.answers.entries() {
            println!("  {}  grade {}", entry.object, entry.grade);
        }
        answers.push(result.answers.entries().iter().map(|e| e.object).collect());
    }
    answers
}

fn main() {
    let _ = std::fs::remove_dir_all(store_dir());
    let cache = Arc::new(BlockCache::new(256));
    let mut rng = StdRng::seed_from_u64(2026);

    // "First process": stream the corpus in as writes. Every upsert is
    // WAL-appended and fsynced before it is acknowledged.
    let (garlic, handles) = open_store(&cache);
    for i in 0..N as u64 {
        handles[0]
            .upsert(
                ObjectId(i),
                Grade::clamped(rng.gen_range(0..=100) as f64 / 100.0),
            )
            .unwrap();
        handles[1]
            .upsert(
                ObjectId(i),
                Grade::clamped(rng.gen_range(0..=100) as f64 / 100.0),
            )
            .unwrap();
        handles[2]
            .upsert(ObjectId(i), Grade::from_bool(rng.gen_bool(0.01)))
            .unwrap();
    }
    // A few corrections: overwrites move objects across the ranking,
    // tombstones remove them — the next snapshot sees it all. Deleting a
    // row means tombstoning it in *every* attribute: the fusion
    // algorithms require all sources to grade the same object universe.
    handles[0].upsert(ObjectId(7), Grade::ONE).unwrap();
    handles[1].upsert(ObjectId(7), Grade::ONE).unwrap();
    for handle in &handles {
        handle.delete(ObjectId(3)).unwrap();
    }
    println!(
        "wrote {} objects; Color: {} live entries, {} WAL bytes, epoch {}\n",
        N,
        handles[0].snapshot().len(),
        handles[0].wal_bytes(),
        handles[0].epoch()
    );
    let before = run_queries(&garlic, "while everything is in memtables");

    // "Crash": drop the store without flushing anything. The memtables
    // die; the WAL is the only survivor.
    drop(garlic);
    drop(handles);

    // "Second process": recovery replays the committed WAL records.
    let (garlic, handles) = open_store(&cache);
    println!(
        "\nrecovered Color: {} live entries, epoch {} (replayed from the WAL)\n",
        handles[0].snapshot().len(),
        handles[0].epoch()
    );
    let recovered = run_queries(&garlic, "after crash recovery");
    assert_eq!(before, recovered, "recovery must reproduce every answer");

    // Compact: freeze the memtables and flush them into checksummed
    // immutable segments; the replayed WALs are garbage-collected.
    for handle in &handles {
        handle.flush().expect("compaction");
    }
    println!(
        "\ncompacted Color: {} WAL bytes, epoch {}, {} frozen layers",
        handles[0].wal_bytes(),
        handles[0].epoch(),
        handles[0].frozen_layers()
    );
    let compacted = run_queries(&garlic, "served from compacted segments");
    assert_eq!(before, compacted, "compaction must be invisible to reads");

    // Writes keep flowing after compaction — the overlay merges over the
    // new base segment seamlessly.
    handles[0].upsert(ObjectId(11), Grade::ONE).unwrap();
    handles[1].upsert(ObjectId(11), Grade::ONE).unwrap();
    run_queries(&garlic, "after one more write on top of the segments");

    println!("\ncache: {}", cache.stats());
    let _ = std::fs::remove_dir_all(store_dir());
}
