//! Chaos suite: random fault schedules against the full strategy matrix.
//!
//! The robustness acceptance criterion — under ANY deterministic fault
//! schedule (transient and permanent I/O errors, torn writes, injected
//! latency, in any combination), every query served through the hardened
//! service stack ends in exactly one of three states:
//!
//! 1. **bit-identical** to the fault-free run (transient faults absorbed
//!    by retries, latency absorbed by patience),
//! 2. a **typed error** ([`MiddlewareError::SourceFailed`],
//!    [`MiddlewareError::DeadlineExceeded`], or — for an isolated panic —
//!    [`MiddlewareError::Internal`]), or
//! 3. a **correctly-flagged degraded** result (only possible when the
//!    faulted attribute is sharded with degraded reads enabled).
//!
//! Never an unwinding panic into the caller; never a silently wrong
//! answer. A second "healed disk" phase then clears the schedule and
//! checks determinism again: anything that still answers cleanly answers
//! bit-identically, run after run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use garlic::middleware::{
    Catalog, Garlic, GarlicQuery, GarlicService, MiddlewareError, QueryResult, Strategy,
};
use garlic::storage::{FaultKind, FaultOp, FaultRule, FaultVfs, Vfs};
use garlic::subsys::{DiskSubsystem, Target};
use garlic::{BlockCache, Grade, SegmentWriter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fresh directory per proptest case: schedules must not leak between
/// cases through shared segment files.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "garlic-chaos-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three fuzzy lists plus one selective crisp list — the mix that makes
/// the planner's whole catalogue (filtered, A₀ family, B₀, naive)
/// reachable.
fn grade_lists(data_seed: u64, n: usize) -> Vec<(&'static str, Vec<Grade>)> {
    let mut rng = StdRng::seed_from_u64(data_seed);
    let fuzzy = |rng: &mut StdRng| -> Vec<Grade> {
        (0..n)
            .map(|_| Grade::clamped(rng.gen_range(0..=16) as f64 / 16.0))
            .collect()
    };
    vec![
        ("A", fuzzy(&mut rng)),
        ("B", fuzzy(&mut rng)),
        ("C", fuzzy(&mut rng)),
        (
            "K",
            (0..n)
                .map(|_| Grade::from_bool(rng.gen_bool(0.06)))
                .collect(),
        ),
    ]
}

/// Every strategy the planner can choose over these attributes: filtered
/// (crisp `K`), A₀′ conjunctions, generic A₀ compounds, B₀ disjunctions,
/// and naive-calculus negations.
fn query_pool() -> Vec<GarlicQuery> {
    let a = || GarlicQuery::atom("A", Target::text("t"));
    let b = || GarlicQuery::atom("B", Target::text("t"));
    let c = || GarlicQuery::atom("C", Target::text("t"));
    let k = || GarlicQuery::atom("K", Target::text("t"));
    vec![
        a(),
        GarlicQuery::and(a(), b()),
        GarlicQuery::and(a(), GarlicQuery::and(b(), c())),
        GarlicQuery::or(a(), c()),
        GarlicQuery::or(b(), GarlicQuery::or(a(), c())),
        GarlicQuery::and(a(), GarlicQuery::or(b(), c())),
        GarlicQuery::and(k(), a()),
        GarlicQuery::and(k(), GarlicQuery::or(a(), b())),
        GarlicQuery::and(a(), GarlicQuery::not(b())),
    ]
}

/// The fault-free reference: the same segment files served through the
/// real filesystem.
fn reference_garlic(dir: &Path, lists: &[(&'static str, Vec<Grade>)], n: usize) -> Garlic {
    let mut sub = DiskSubsystem::with_cache("disk", n, Arc::new(BlockCache::new(64)));
    for (attr, _) in lists {
        sub = sub
            .open_segment(attr, &dir.join(format!("{attr}.seg")))
            .unwrap();
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    Garlic::new(cat)
}

/// The chaos target: every attribute read through one [`FaultVfs`], with
/// `A` sharded three ways and degraded reads enabled — the one attribute
/// where a permanent fault can degrade instead of fail.
fn chaos_garlic(
    dir: &Path,
    lists: &[(&'static str, Vec<Grade>)],
    n: usize,
) -> (Garlic, Arc<FaultVfs>) {
    let fault = Arc::new(FaultVfs::new());
    let mut sub = DiskSubsystem::with_cache("disk", n, Arc::new(BlockCache::new(64)))
        .with_vfs(Arc::clone(&fault) as Arc<dyn Vfs>)
        .with_degraded_reads();
    for (attr, _) in lists {
        if *attr == "A" {
            let shards: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("A-{i}.seg"))).collect();
            sub = sub.open_sharded_segment(attr, &shards).unwrap();
        } else {
            sub = sub
                .open_segment(attr, &dir.join(format!("{attr}.seg")))
                .unwrap();
        }
    }
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    (Garlic::new(cat), fault)
}

/// The invariant: one of {bit-identical, typed error, flagged degraded}.
fn assert_outcome(
    query: &GarlicQuery,
    outcome: &Result<QueryResult, MiddlewareError>,
    reference: &QueryResult,
) {
    match outcome {
        Ok(res) if !res.degraded => {
            assert_eq!(
                res.answers.entries(),
                reference.answers.entries(),
                "non-degraded chaos answers must be bit-identical ({query}; \
                 chaos plan {:?}, reference plan {:?})",
                res.plan.strategy,
                reference.plan.strategy
            );
            assert_eq!(res.stats, reference.stats, "billing must match ({query})");
        }
        Ok(res) => {
            // Degraded: only the sharded attribute `A` can lose a shard,
            // so the flag may only appear on queries that touch it.
            assert!(
                format!("{query}").contains("(A "),
                "degraded flag without the sharded attribute in the query ({query})"
            );
            assert!(res.answers.len() <= reference.answers.len().max(1));
        }
        Err(
            MiddlewareError::SourceFailed(_)
            | MiddlewareError::DeadlineExceeded
            | MiddlewareError::Internal { .. },
        ) => {}
        Err(other) => {
            panic!("untyped / unexpected failure class for {query}: {other}");
        }
    }
}

/// Case count: 16 locally; CI's chaos job bumps it via `PROPTEST_CASES`
/// and pins `PROPTEST_SEED` to replay fixed schedules.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random fault schedules × the full strategy matrix, served through
    /// the hardened [`GarlicService`]: every outcome is bit-identical,
    /// typed, or flagged degraded — then the disk heals and surviving
    /// answers are bit-identical again.
    #[test]
    fn every_fault_schedule_yields_identical_typed_or_degraded(
        data_seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        n in 48usize..128,
        k in 1usize..6,
    ) {
        let dir = case_dir();
        let lists = grade_lists(data_seed, n);
        let writer = SegmentWriter::with_block_size(256).unwrap();
        for (attr, grades) in &lists {
            writer.write_grades(&dir.join(format!("{attr}.seg")), grades).unwrap();
            if *attr == "A" {
                for (i, shard) in writer
                    .write_sharded_grades(&dir, "A-shard", 3, grades)
                    .unwrap()
                    .into_iter()
                    .enumerate()
                {
                    std::fs::rename(&shard.path, dir.join(format!("A-{i}.seg"))).unwrap();
                }
            }
        }

        let reference = reference_garlic(&dir, &lists, n);
        // The plan is armed only after a clean open: this suite exercises
        // *runtime* faults (open-time faults already surface as typed
        // StorageErrors, covered by the storage crate's own tests).
        let (chaos, fault) = chaos_garlic(&dir, &lists, n);
        fault.seeded_plan(fault_seed, ".seg");

        // On some cases a tight deadline joins the matrix, so cooperative
        // cancellation races real faults.
        let tight_deadline = fault_seed % 5 == 0;
        let mut service = GarlicService::with_threads(chaos, 2).with_admission_limit(8);
        if tight_deadline {
            service = service.with_deadline(Duration::from_micros(fault_seed % 400));
        }

        let pool = query_pool();
        // One fault-free reference per query: with or without a deadline
        // the service executes the same session.
        let mut references = Vec::with_capacity(pool.len());
        for query in &pool {
            let want = reference.top_k(query, k).unwrap();
            let got = service.top_k(query, k);
            assert_outcome(query, &got, &want);
            references.push(want);
        }

        // Heal the disk. Quarantines are sticky for the life of the open
        // segment (by design: fail fast, reopen to recover), so queries
        // may still fail typed or run degraded — but anything that
        // answers cleanly must answer bit-identically, every time.
        fault.clear();
        let healed = GarlicService::with_threads(service.garlic().clone(), 2);
        for (query, want) in pool.iter().zip(&references) {
            let got = healed.top_k(query, k);
            assert_outcome(query, &got, want);
            // Determinism after healing: two runs of the same query agree
            // exactly — same answers or the same failure class.
            let again = healed.top_k(query, k);
            match (&got, &again) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.answers.entries(), y.answers.entries());
                    assert_eq!(x.degraded, y.degraded);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("healed runs of {query} disagree on success vs failure"),
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A crisp attribute sharded with degraded reads loses a shard to a
/// permanent read fault: the filtered strategy reads it only through its
/// match set, and the answer must still be bit-identical or flagged
/// degraded — never a shorter match set reported as whole.
#[test]
fn a_filtered_query_over_a_degraded_crisp_attribute_is_flagged() {
    let (n, k) = (96, 8);
    let dir = case_dir();
    let crisp: Vec<Grade> = (0..n).map(|i| Grade::from_bool(i % 9 == 0)).collect();
    let lists = vec![grade_lists(1, n).swap_remove(0), ("K", crisp)];
    let writer = SegmentWriter::with_block_size(256).unwrap();
    for (attr, grades) in &lists {
        writer
            .write_grades(&dir.join(format!("{attr}.seg")), grades)
            .unwrap();
    }
    let shards: Vec<PathBuf> = writer
        .write_sharded_grades(&dir, "K-shard", 3, &lists[1].1)
        .unwrap()
        .into_iter()
        .map(|shard| shard.path)
        .collect();
    let query = GarlicQuery::and(
        GarlicQuery::atom("K", Target::text("t")),
        GarlicQuery::atom("A", Target::text("t")),
    );
    let want = reference_garlic(&dir, &lists, n).top_k(&query, k).unwrap();

    let fault = Arc::new(FaultVfs::new());
    let sub = DiskSubsystem::with_cache("disk", n, Arc::new(BlockCache::new(64)))
        .with_vfs(Arc::clone(&fault) as Arc<dyn Vfs>)
        .with_degraded_reads()
        .open_segment("A", &dir.join("A.seg"))
        .unwrap()
        .open_sharded_segment("K", &shards)
        .unwrap();
    fault.push_rule(FaultRule {
        path_contains: "K-shard.001".into(),
        op: FaultOp::Read,
        nth: 0,
        kind: FaultKind::Permanent,
    });
    let mut cat = Catalog::new();
    cat.register(sub).unwrap();
    let got = Garlic::new(cat).top_k(&query, k).unwrap();

    assert!(matches!(got.plan.strategy, Strategy::Filtered { .. }));
    assert!(fault.injected() > 0, "the fault never fired");
    assert!(
        got.degraded || (got.answers == want.answers && got.stats == want.stats),
        "unflagged answer {:?} (billed {:?}) against {:?} (billed {:?})",
        got.answers.objects(),
        got.stats,
        want.answers.objects(),
        want.stats
    );
    std::fs::remove_dir_all(&dir).ok();
}
