//! Smoke coverage for `examples/`: every example must keep building, and
//! the `quickstart` path is exercised end-to-end in-process so its output
//! claims stay true.

use garlic::agg::iterated::min_agg;
use garlic::core::access::MemorySource;
use garlic::core::algorithms::fa::fagin_run;
use garlic::core::ObjectId;
use garlic::Grade;

/// Builds every `examples/*.rs` via the same cargo that is running this
/// test. A compile regression in any example fails here rather than rotting
/// silently (examples are not touched by `cargo test` otherwise).
#[test]
fn all_examples_build() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let status = std::process::Command::new(cargo)
        .args(["build", "--examples", "--quiet"])
        .current_dir(manifest_dir)
        .status()
        .expect("failed to spawn cargo build --examples");
    assert!(status.success(), "cargo build --examples failed: {status}");
}

/// `federated_search` — the weighted, negated and paged walkthrough — is
/// seeded, so its output is pinned byte for byte: weights ride on the
/// request and paging on its session without a character changing.
#[test]
fn federated_search_output_is_pinned() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = std::process::Command::new(cargo)
        .args(["run", "--quiet", "--example", "federated_search"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to spawn cargo run --example federated_search");
    assert!(output.status.success(), "example failed: {output:?}");
    let expected = r"== weighted: red covers (x2) with rock reviews (x1)
   Scarlet Parade — Beatles       grade 0.4220
   Ruby District — Animals        grade 0.3847
   Crimson Meadows — Beatles      grade 0.3720
   cost: S=12 R=1

== negated: red covers that are NOT round (NNF pushdown)
   strategy: FaMin
   Scarlet Parade — Beatles       grade 0.7185
   Crimson Meadows — Beatles      grade 0.5935
   Ruby District — Animals        grade 0.5791
   cost: S=12 R=2

== paged: psychedelic-or-rock reviews AND red-ish covers, 2 pages of 4
   page 1:
     Crimson Meadows — Beatles    grade 0.3626
     Rose Highway — Byrds         grade 0.2531
     Scarlet Parade — Beatles     grade 0.2479
     Cinnamon Mile — Byrds        grade 0.2317
   page 2:
     Ruby District — Animals      grade 0.2317
     Red Lantern — Kinks          grade 0.2138
     Pinball Sky — Who            grade 0.1384
     Odessey Grove — Zombies      grade 0.1168
   total cost across both pages: S=30 R=11
";
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
}

/// The `quickstart.rs` scenario, asserted rather than printed: two ranked
/// lists, min-rule conjunction, top 3 by A₀.
#[test]
fn quickstart_path_end_to_end() {
    let g = |v: f64| Grade::new(v).expect("grade in [0,1]");
    // Same data as examples/quickstart.rs.
    let color = MemorySource::from_grades(&[g(0.95), g(0.30), g(0.80), g(0.60), g(0.10)]);
    let shape = MemorySource::from_grades(&[g(0.20), g(0.90), g(0.75), g(0.85), g(0.40)]);

    let run = fagin_run(&[color, shape], &min_agg(), 3).expect("valid query");
    let top = &run.topk;

    // Per-object min grades: 0.20, 0.30, 0.75, 0.60, 0.10 → top 3 are
    // objects 2 (0.75), 3 (0.60), 1 (0.30), in that order.
    assert_eq!(top.len(), 3);
    assert_eq!(
        top.objects(),
        vec![ObjectId(2), ObjectId(3), ObjectId(1)],
        "ranking under the min rule"
    );
    let grades: Vec<f64> = top.grades().iter().map(|gr| gr.value()).collect();
    assert!(grades[0] - 0.75 < 1e-12 && 0.75 - grades[0] < 1e-12);
    assert!(grades[1] - 0.60 < 1e-12 && 0.60 - grades[1] < 1e-12);
    assert!(grades[2] - 0.30 < 1e-12 && 0.30 - grades[2] < 1e-12);

    // The quickstart's cost claim: the naive algorithm retrieves all
    // 2 × 5 = 10 entries under sorted access; A₀'s bill must not exceed
    // that.
    let stats = run.stats;
    assert!(stats.sorted > 0, "A₀ must perform sorted accesses");
    assert!(
        stats.sorted <= 10,
        "sorted accesses ({}) exceed the naive bound of 10",
        stats.sorted
    );
}

/// The `persistent_store.rs` scenario, asserted rather than printed: build
/// segments to a temp dir, reopen them cold, and serve parsed queries via
/// `GarlicService` — answers and per-query costs must match the same data
/// served straight from RAM, and the shared cache must actually be used.
#[test]
fn persistent_store_path_end_to_end() {
    use garlic::middleware::{parse_query, Catalog, Garlic, GarlicService, QueryRequest};
    use garlic::subsys::{DiskSubsystem, VectorSubsystem};
    use garlic::{BlockCache, SegmentWriter};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const N: usize = 2_000;
    let dir = std::env::temp_dir().join(format!("garlic-smoke-persistent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = |v: f64| Grade::clamped(v);

    // Build the corpus once, in RAM and on disk.
    let mut rng = StdRng::seed_from_u64(2026);
    let writer = SegmentWriter::new();
    let mut mem = VectorSubsystem::new("mem_store", N);
    let cache = Arc::new(BlockCache::new(64));
    let mut disk = DiskSubsystem::with_cache("disk_store", N, Arc::clone(&cache));
    for attr in ["Color", "Shape", "InStock"] {
        let grades: Vec<Grade> = if attr == "InStock" {
            (0..N)
                .map(|_| Grade::from_bool(rng.gen_bool(0.01)))
                .collect()
        } else {
            (0..N)
                .map(|_| g(rng.gen_range(0..=100) as f64 / 100.0))
                .collect()
        };
        let path = dir.join(format!("{attr}.seg"));
        writer.write_grades(&path, &grades).unwrap();
        mem = mem.with_list(attr, &grades);
        disk = disk.open_segment(attr, &path).unwrap();
    }

    let service = |sub| {
        let mut catalog = Catalog::new();
        catalog.register_arc(sub).unwrap();
        GarlicService::new(Garlic::new(catalog))
    };
    let mem_service = service(Arc::new(mem) as _);
    let disk_service = service(Arc::new(disk) as _);

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
    for (query, (from_disk, from_mem)) in queries.iter().zip(
        disk_service
            .serve_batch(&batch)
            .into_iter()
            .zip(mem_service.serve_batch(&batch)),
    ) {
        let (from_disk, from_mem) = (from_disk.unwrap(), from_mem.unwrap());
        assert_eq!(
            from_disk.answers.entries(),
            from_mem.answers.entries(),
            "{query}"
        );
        assert_eq!(from_disk.stats, from_mem.stats, "{query}");
        assert_eq!(from_disk.plan.strategy, from_mem.plan.strategy, "{query}");
    }
    let stats = cache.stats();
    assert!(stats.misses > 0, "the disk batch faulted blocks in");
    assert!(stats.resident > 0, "blocks stayed resident");
}

/// The `live_store.rs` scenario, asserted rather than printed: stream
/// writes into live attributes, query mid-write, "crash" (drop without
/// flushing), recover from the WAL, compact to segments — the answers
/// must match an in-RAM twin at every step.
#[test]
fn live_store_path_end_to_end() {
    use garlic::middleware::{parse_query, Catalog, Garlic};
    use garlic::subsys::{DiskSubsystem, VectorSubsystem};
    use garlic::BlockCache;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const N: usize = 600;
    let dir = std::env::temp_dir().join(format!("garlic-smoke-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let attrs = ["Color", "Shape", "InStock"];

    let open = || {
        let cache = Arc::new(BlockCache::new(64));
        let mut sub = DiskSubsystem::with_cache("live_store", N, cache);
        for attr in attrs {
            sub = sub.open_live(attr, &dir.join(attr)).unwrap();
        }
        let handles: Vec<_> = attrs
            .iter()
            .map(|attr| Arc::clone(sub.live_source(attr).unwrap()))
            .collect();
        let mut catalog = Catalog::new();
        catalog.register(sub).unwrap();
        (Garlic::new(catalog), handles)
    };

    // Write the corpus, mirroring it into in-RAM grade lists.
    let mut rng = StdRng::seed_from_u64(2026);
    let (garlic, handles) = open();
    let mut lists = vec![vec![Grade::ZERO; N]; attrs.len()];
    for (a, (handle, list)) in handles.iter().zip(lists.iter_mut()).enumerate() {
        for (i, slot) in list.iter_mut().enumerate() {
            let grade = if a == 2 {
                Grade::from_bool(rng.gen_bool(0.05))
            } else {
                Grade::clamped(rng.gen_range(0..=100) as f64 / 100.0)
            };
            handle.upsert(ObjectId(i as u64), grade).unwrap();
            *slot = grade;
        }
    }

    let texts = [
        "Color = red AND Shape = round",
        "InStock = yes AND Color = red",
    ];
    let check = |garlic: &Garlic, lists: &[Vec<Grade>], step: &str| {
        let mut twin = VectorSubsystem::new("twin", N);
        for (attr, grades) in attrs.iter().zip(lists) {
            twin = twin.with_list(attr, grades);
        }
        let mut catalog = Catalog::new();
        catalog.register(twin).unwrap();
        let twin = Garlic::new(catalog);
        for text in texts {
            let query = parse_query(text).unwrap();
            let live = garlic.top_k(&query, 3).unwrap();
            let want = twin.top_k(&query, 3).unwrap();
            assert_eq!(
                live.answers.entries(),
                want.answers.entries(),
                "{step}: {text}"
            );
            assert_eq!(live.stats, want.stats, "{step}: {text}");
            assert_eq!(live.plan.strategy, want.plan.strategy, "{step}: {text}");
        }
    };
    check(&garlic, &lists, "memtable-only");

    // "Crash" without flushing, then recover: the WAL replays everything.
    drop(garlic);
    drop(handles);
    let (garlic, handles) = open();
    check(&garlic, &lists, "after crash recovery");

    // Compact to segments, then keep writing on top of them.
    for handle in &handles {
        handle.flush().unwrap();
    }
    check(&garlic, &lists, "after compaction");
    for (a, handle) in handles.iter().enumerate() {
        let grade = if a == 2 {
            Grade::ONE
        } else {
            Grade::clamped(0.99)
        };
        handle.upsert(ObjectId(11), grade).unwrap();
        lists[a][11] = grade;
    }
    check(&garlic, &lists, "write after compaction");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `service_demo.rs` scenario, asserted rather than printed: a batch of
/// parsed queries served concurrently over one shared catalog must match
/// serving each query directly, answer for answer and cost for cost.
#[test]
fn service_demo_path_end_to_end() {
    use garlic::middleware::{parse_query, Catalog, Garlic, GarlicService, QueryRequest};
    use garlic::subsys::cd_store::demo_subsystems;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(2026);
    let (relational, qbic, text) = demo_subsystems(&mut rng);
    let mut catalog = Catalog::new();
    catalog.register(relational).unwrap();
    catalog.register(qbic).unwrap();
    catalog.register(text).unwrap();
    let service = GarlicService::new(Garlic::new(catalog));

    let texts = [
        r#"Artist = "Beatles" AND AlbumColor = red"#,
        "AlbumColor = red AND Shape = round",
        "AlbumColor = blue OR Shape = round",
        r#"Review ~ "psychedelic rock" AND AlbumColor = red"#,
        "AlbumColor = green AND NOT Shape = round",
        r#"Artist = "Kinks""#,
        "Shape = oval AND AlbumColor = orange",
        r#"Review ~ "gentle folk" OR AlbumColor = purple"#,
    ];
    let queries: Vec<_> = texts
        .iter()
        .map(|t| parse_query(t).expect("demo queries parse"))
        .collect();
    let batch: Vec<_> = queries.iter().map(|q| QueryRequest::new(q, 2)).collect();

    let results = service.serve_batch(&batch);
    assert_eq!(results.len(), batch.len());
    for (request, result) in batch.iter().zip(results) {
        let concurrent = result.expect("demo queries execute");
        let direct = service.garlic().run(request).unwrap();
        assert_eq!(concurrent.answers.entries(), direct.answers.entries());
        assert_eq!(concurrent.stats, direct.stats);
    }
}
