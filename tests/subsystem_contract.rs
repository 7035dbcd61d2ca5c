//! Every source any subsystem hands to the middleware must honour the
//! Section 4 access contract (descending sorted order, each object exactly
//! once, random access consistent with sorted access) — audited with
//! `garlic::core::validate::validate_source` across the whole subsystem
//! zoo, including the complement adapter.

use garlic::core::complement::ComplementSource;
use garlic::core::validate::validate_source;
use garlic::subsys::cd_store::demo_subsystems;
use garlic::subsys::{AtomicQuery, DiskSubsystem, QbicStore, Subsystem, Target, TextStore};
use garlic::{BlockCache, Grade, SegmentWriter};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn relational_predicates_honour_the_contract() {
    let mut rng = StdRng::seed_from_u64(1);
    let (rel, _, _) = demo_subsystems(&mut rng);
    for q in [
        AtomicQuery::new("Artist", Target::text("Beatles")),
        AtomicQuery::new("Artist", Target::text("Nobody")),
        AtomicQuery::new("Year", Target::Number(1968.0)),
    ] {
        let src = rel.evaluate(&q).unwrap();
        validate_source(&src).unwrap_or_else(|e| panic!("{q}: {e}"));
    }
}

#[test]
fn qbic_queries_honour_the_contract() {
    let mut rng = StdRng::seed_from_u64(2);
    let store = QbicStore::synthetic("qbic", 200, &mut rng);
    for (attr, name) in [
        ("Color", "red"),
        ("Color", "blue"),
        ("Shape", "round"),
        ("Shape", "elongated"),
        ("Texture", "smooth"),
        ("Texture", "striped"),
    ] {
        let src = store
            .evaluate(&AtomicQuery::new(attr, Target::text(name)))
            .unwrap();
        validate_source(&src).unwrap_or_else(|e| panic!("{attr}={name}: {e}"));
    }
    // Internal conjunction output is a graded source too.
    let fused = store
        .evaluate_internal_conjunction(&[
            AtomicQuery::new("Color", Target::text("red")),
            AtomicQuery::new("Shape", Target::text("round")),
        ])
        .unwrap();
    validate_source(&fused).unwrap();
}

#[test]
fn text_queries_honour_the_contract() {
    let mut rng = StdRng::seed_from_u64(3);
    let store = TextStore::synthetic("docs", "Body", 150, 80, 30, &mut rng);
    for terms in [vec!["w1"], vec!["w3", "w7", "w11"], vec!["nosuchword"]] {
        let src = store
            .evaluate(&AtomicQuery::new(
                "Body",
                Target::Terms(terms.iter().map(|t| t.to_string()).collect()),
            ))
            .unwrap();
        validate_source(&src).unwrap_or_else(|e| panic!("{terms:?}: {e}"));
    }
}

#[test]
fn disk_subsystem_honours_the_contract() {
    let dir = std::env::temp_dir().join(format!("garlic-contract-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(5);

    // One fuzzy attribute (random grades, heavy ties) and one crisp one.
    let fuzzy: Vec<Grade> = (0..300)
        .map(|_| Grade::clamped(rng.gen_range(0..=10) as f64 / 10.0))
        .collect();
    let crisp: Vec<Grade> = (0..300)
        .map(|_| Grade::from_bool(rng.gen_bool(0.2)))
        .collect();
    let writer = SegmentWriter::with_block_size(128).unwrap();
    writer.write_grades(&dir.join("fuzzy.seg"), &fuzzy).unwrap();
    writer.write_grades(&dir.join("crisp.seg"), &crisp).unwrap();

    let cache = Arc::new(BlockCache::new(8)); // small: audits run under eviction
    let sub = DiskSubsystem::with_cache("disk", 300, Arc::clone(&cache))
        .open_segment("Fuzzy", &dir.join("fuzzy.seg"))
        .unwrap()
        .open_segment("Crisp", &dir.join("crisp.seg"))
        .unwrap();

    for attr in ["Fuzzy", "Crisp"] {
        let q = AtomicQuery::new(attr, Target::text("anything"));
        let src = sub.evaluate(&q).unwrap();
        // Cold (fresh from open) and warm (same handle again) audits.
        validate_source(&src).unwrap_or_else(|e| panic!("{attr} cold: {e}"));
        validate_source(&src).unwrap_or_else(|e| panic!("{attr} warm: {e}"));
    }
    assert!(cache.stats().evictions > 0, "the audit exercised eviction");

    // The crisp attribute's set-access face honours the contract too.
    let set = sub
        .evaluate_set(&AtomicQuery::new("Crisp", Target::text("t")))
        .unwrap();
    validate_source(&set).unwrap();
    assert!(sub.is_crisp("Crisp") && !sub.is_crisp("Fuzzy"));
}

#[test]
fn complemented_subsystem_sources_honour_the_contract() {
    let mut rng = StdRng::seed_from_u64(4);
    let (rel, qbic, text) = demo_subsystems(&mut rng);
    let sources: Vec<std::sync::Arc<dyn garlic::core::GradedSource>> = vec![
        rel.evaluate(&AtomicQuery::new("Artist", Target::text("Kinks")))
            .unwrap(),
        qbic.evaluate(&AtomicQuery::new("AlbumColor", Target::text("red")))
            .unwrap(),
        text.evaluate(&AtomicQuery::new("Review", Target::terms(&["rock"])))
            .unwrap(),
    ];
    for src in sources {
        validate_source(&ComplementSource::new(&src)).unwrap();
    }
}
