//! Durable graded collections, end to end: build segment files on disk,
//! drop everything, reopen them cold in a "second process", and serve
//! fused top-k queries through `GarlicService` — with the shared block
//! cache's hit/miss/eviction/admission counters showing exactly what the
//! queries cost in I/O terms and what the scan-resistant doorkeeper let
//! into the budget.
//!
//! ```sh
//! cargo run --release --example persistent_store
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use garlic::middleware::{parse_query, Catalog, Garlic, GarlicService, QueryRequest};
use garlic::subsys::{DiskSubsystem, Subsystem};
use garlic::{BlockCache, Grade, SegmentWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 20_000;

fn segment_dir() -> PathBuf {
    std::env::temp_dir().join(format!("garlic-persistent-store-{}", std::process::id()))
}

/// "First process": grade the corpus and publish one segment per
/// attribute. Publication is atomic (tmp file + fsync + rename), so a
/// crash mid-build never leaves a half-written segment at the final path.
fn build_segments() -> std::io::Result<()> {
    let dir = segment_dir();
    std::fs::create_dir_all(&dir)?;
    let mut rng = StdRng::seed_from_u64(2026);
    let writer = SegmentWriter::new(); // 4 KiB blocks

    let fuzzy = |rng: &mut StdRng| -> Vec<Grade> {
        (0..N)
            .map(|_| Grade::clamped(rng.gen_range(0..=1000) as f64 / 1000.0))
            .collect()
    };
    for attr in ["Color", "Shape"] {
        let grades = fuzzy(&mut rng);
        let info = writer
            .write_grades(&dir.join(format!("{attr}.seg")), &grades)
            .expect("segment build");
        println!(
            "built {attr}.seg: {} entries, {} blocks/region, {} bytes",
            info.entries, info.blocks_per_region, info.bytes
        );
    }
    // A crisp attribute — a classical predicate, persisted. Its footer
    // records crispness and the exact match count, so the reopened store
    // is immediately eligible for the Section 4 filtered strategy.
    let crisp: Vec<Grade> = (0..N)
        .map(|_| Grade::from_bool(rng.gen_bool(0.002)))
        .collect();
    let info = writer
        .write_grades(&dir.join("InStock.seg"), &crisp)
        .expect("segment build");
    println!(
        "built InStock.seg: crisp = {}, {} exact matches\n",
        info.crisp, info.ones
    );
    Ok(())
}

/// "Second process": no grades in RAM — just segment paths, one shared
/// cache budget, and the same middleware as always.
fn serve() {
    let cache = Arc::new(BlockCache::new(256)); // 256 × 4 KiB = 1 MiB budget
    let dir = segment_dir();
    let store = DiskSubsystem::with_cache("disk_store", N, Arc::clone(&cache))
        .open_segment("Color", &dir.join("Color.seg"))
        .expect("verified open")
        .open_segment("Shape", &dir.join("Shape.seg"))
        .expect("verified open")
        .open_segment("InStock", &dir.join("InStock.seg"))
        .expect("verified open");
    println!(
        "reopened {} segments (each fully checksum-verified); cache: {}",
        store.attributes().len(),
        cache.stats()
    );

    let mut catalog = Catalog::new();
    catalog.register(store).unwrap();
    let service = GarlicService::new(Garlic::new(catalog));

    let texts = [
        "Color = red AND Shape = round",
        "Color = red OR Shape = round",
        "InStock = yes AND Color = red",
        "Shape = round AND NOT Color = red",
    ];
    let queries: Vec<_> = texts
        .iter()
        .map(|t| parse_query(t).expect("demo queries parse"))
        .collect();
    let batch: Vec<_> = queries.iter().map(|q| QueryRequest::new(q, 3)).collect();
    for (request, result) in batch.iter().zip(service.serve_batch(&batch)) {
        let result = result.expect("demo queries execute");
        let QueryRequest { query, k, .. } = request;
        println!("\ntop-{k} for {query}  [{:?}]", result.plan.strategy);
        for entry in result.answers.entries() {
            println!("  {}  grade {}", entry.object, entry.grade);
        }
        println!(
            "  cost: {} sorted + {} random accesses",
            result.stats.sorted, result.stats.random
        );
    }

    let cold = cache.stats();
    println!("\ncache after the cold batch: {cold}");
    // The same batch again: the working set is now resident.
    for result in service.serve_batch(&batch) {
        result.expect("demo queries execute");
    }
    let warm = cache.stats();
    println!(
        "cache after the warm batch:  {warm} (+{} hits, +{} misses)",
        warm.hits - cold.hits,
        warm.misses - cold.misses
    );
    println!(
        "lifetime hit rate: {:.1}% — tune the cache budget until this \
         stays high for your working set",
        100.0 * warm.hit_rate()
    );
    println!(
        "admission: {} admitted / {} rejected ({:.1}%) — at capacity the \
         TinyLFU doorkeeper only admits blocks requested at least as \
         often as the one they would evict, so one-pass scans cannot \
         flush the hot working set",
        warm.admitted,
        warm.rejected,
        100.0 * warm.admission_rate()
    );
}

fn main() {
    build_segments().expect("building segments");
    serve();
}
