//! End-to-end middleware tests: the full Garlic stack (catalog → planner →
//! executor → subsystems) on the compact-disk demo and on synthetic stores.

use garlic::core::{GradedSource, SetAccess};
use garlic::middleware::{Catalog, Garlic, GarlicQuery, PlannerOptions, Strategy};
use garlic::subsys::cd_store::{demo_albums, demo_subsystems};
use garlic::subsys::{AtomicQuery, QbicStore, Subsystem, SubsystemError, Target};
use garlic::Grade;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

struct Fixture {
    rel: garlic::subsys::RelationalStore,
    qbic: garlic::subsys::QbicStore,
    text: garlic::subsys::TextStore,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rel, qbic, text) = demo_subsystems(&mut rng);
        Fixture { rel, qbic, text }
    }

    fn garlic(&self) -> Garlic {
        let mut cat = Catalog::new();
        cat.register(self.rel.clone()).unwrap();
        cat.register(self.qbic.clone()).unwrap();
        cat.register(self.text.clone()).unwrap();
        Garlic::new(cat)
    }
}

/// Section 2's promise: the Beatles/red query returns "a sorted list that
/// contains only albums by the Beatles, where the list is sorted by
/// goodness of match in color".
#[test]
fn beatles_red_returns_only_beatles_sorted_by_color() {
    let f = Fixture::new(1);
    let garlic = f.garlic();
    let q = GarlicQuery::and(
        GarlicQuery::atom("Artist", Target::text("Beatles")),
        GarlicQuery::atom("AlbumColor", Target::text("red")),
    );
    let result = garlic.top_k(&q, 4).unwrap();
    let albums = demo_albums();

    // Every positive-grade answer is a Beatles album.
    for e in result.answers.entries() {
        if e.grade > Grade::ZERO {
            assert_eq!(albums[e.object.index()].artist, "Beatles");
        }
    }
    // Grades descend.
    let grades = result.answers.grades();
    assert!(grades.windows(2).all(|w| w[0] >= w[1]));
}

/// All three conjunction strategies (filtered, A0', naive-calculus via a
/// degenerate plan) agree on the answer grades.
#[test]
fn strategies_agree_on_answers() {
    let f = Fixture::new(2);

    let q = GarlicQuery::and(
        GarlicQuery::atom("Artist", Target::text("Beatles")),
        GarlicQuery::atom("AlbumColor", Target::text("red")),
    );

    // Filtered (the planner's choice for this query).
    let filtered = f.garlic().top_k(&q, 4).unwrap();
    assert!(matches!(filtered.plan.strategy, Strategy::Filtered { .. }));

    // Reference: naive evaluation of the same semantics via core.
    use garlic::agg::iterated::min_agg;
    use garlic::core::algorithms::naive::naive_topk;
    let artist = f
        .rel
        .evaluate(&garlic::subsys::AtomicQuery::new(
            "Artist",
            Target::text("Beatles"),
        ))
        .unwrap();
    let color = f
        .qbic
        .evaluate(&garlic::subsys::AtomicQuery::new(
            "AlbumColor",
            Target::text("red"),
        ))
        .unwrap();
    let reference = naive_topk(&[artist, color], &min_agg(), 4).unwrap();

    assert!(filtered.answers.same_grades(&reference, 1e-12));
}

/// The planner's cost estimates are honest enough: the measured unweighted
/// cost of the filtered strategy never exceeds its estimate by more than a
/// small factor, and B0's estimate is exact.
#[test]
fn estimates_track_measurements() {
    let f = Fixture::new(3);
    let garlic = f.garlic();

    let disj = GarlicQuery::or(
        GarlicQuery::atom("AlbumColor", Target::text("red")),
        GarlicQuery::atom("Shape", Target::text("round")),
    );
    let result = garlic.top_k(&disj, 5).unwrap();
    assert_eq!(result.stats.unweighted() as f64, result.plan.estimated_cost);
}

/// Section 8: internal (product) vs external (min) conjunction produce
/// different grades but both descend and grade the same universe.
#[test]
fn internal_vs_external_semantics_differ_but_are_valid() {
    let f = Fixture::new(4);
    let q = GarlicQuery::and(
        GarlicQuery::atom("AlbumColor", Target::text("red")),
        GarlicQuery::atom("Shape", Target::text("round")),
    );

    let external = f.garlic().top_k(&q, 12).unwrap();

    let mut qbic_only = Catalog::new();
    qbic_only.register(f.qbic.clone()).unwrap();
    let internal = Garlic::with_options(
        qbic_only,
        PlannerOptions {
            prefer_internal: true,
            ..Default::default()
        },
    )
    .top_k(&q, 12)
    .unwrap();

    // Product <= min pointwise, so every internal grade is bounded by the
    // external grade of the same rank... not necessarily rank-wise, but the
    // *top* internal grade cannot exceed the top external grade.
    assert!(internal.answers.grades()[0] <= external.answers.grades()[0]);
    assert_ne!(internal.answers.grades(), external.answers.grades());
}

/// Ten thousand synthetic images through the full middleware: the planner
/// picks A0' and the cost stays well below the naive 2N.
#[test]
fn large_image_store_is_sublinear_through_middleware() {
    let mut rng = StdRng::seed_from_u64(5);
    let qbic = QbicStore::synthetic("big_qbic", 10_000, &mut rng);
    let mut cat = Catalog::new();
    cat.register(qbic.clone()).unwrap();
    let garlic = Garlic::new(cat);

    let q = GarlicQuery::and(
        GarlicQuery::atom("Color", Target::text("blue")),
        GarlicQuery::atom("Shape", Target::text("round")),
    );
    let result = garlic.top_k(&q, 10).unwrap();
    assert_eq!(result.answers.len(), 10);
    assert!(matches!(result.plan.strategy, Strategy::FaMin));
    assert!(
        result.stats.unweighted() < 20_000 / 2,
        "cost {} should be far below the naive 20000",
        result.stats.unweighted()
    );
}

/// Unknown attributes and bad targets surface as errors, not panics.
#[test]
fn error_paths() {
    let f = Fixture::new(6);
    let garlic = f.garlic();

    let unknown = GarlicQuery::atom("Tempo", Target::text("fast"));
    assert!(garlic.top_k(&unknown, 1).is_err());

    let bad_color = GarlicQuery::atom("AlbumColor", Target::text("ultraviolet"));
    assert!(garlic.top_k(&bad_color, 1).is_err());

    let q = GarlicQuery::atom("Artist", Target::text("Beatles"));
    assert!(garlic.top_k(&q, 0).is_err());
    assert!(garlic.top_k(&q, 13).is_err()); // N = 12
}

/// Repeated atoms are evaluated once: Q AND NOT Q plans one source.
#[test]
fn repeated_atom_evaluated_once() {
    let f = Fixture::new(7);
    let garlic = f.garlic();
    let red = GarlicQuery::atom("AlbumColor", Target::text("red"));
    let hard = GarlicQuery::and(red.clone(), GarlicQuery::not(red));
    let result = garlic.top_k(&hard, 1).unwrap();
    assert_eq!(result.plan.nnf.atoms().len(), 1);
    // Naive over one list of 12 objects: exactly 12 sorted accesses.
    assert_eq!(result.stats.sorted, 12);
    assert!(result.answers.best().unwrap().grade <= Grade::HALF);
}

/// A subsystem that logs the attribute of every `evaluate` and
/// `evaluate_set` call and forwards everything to the wrapped one.
struct Logged<S> {
    inner: S,
    log: Arc<Mutex<Vec<String>>>,
}

impl<S> Logged<S> {
    fn new(inner: S, log: &Arc<Mutex<Vec<String>>>) -> Self {
        Logged {
            inner,
            log: Arc::clone(log),
        }
    }
}

impl<S: Subsystem> Subsystem for Logged<S> {
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
        self.log.lock().unwrap().push(query.attribute.clone());
        self.inner.evaluate(query)
    }
    fn is_crisp(&self, attribute: &str) -> bool {
        self.inner.is_crisp(attribute)
    }
    fn evaluate_set(&self, query: &AtomicQuery) -> Result<Arc<dyn SetAccess>, SubsystemError> {
        self.log.lock().unwrap().push(query.attribute.clone());
        self.inner.evaluate_set(query)
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
        self.inner.evaluate_internal_conjunction(queries)
    }
}

/// Under negation pushdown an atom and its negation are two lists, but the
/// subsystem is asked for the atom once: both lists read one answer, so a
/// live attribute cannot grade `Q` and `¬Q` from two different states.
#[test]
fn each_atom_is_evaluated_once_under_pushdown() {
    let f = Fixture::new(7);
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut cat = Catalog::new();
    cat.register(Logged::new(f.rel.clone(), &log)).unwrap();
    cat.register(Logged::new(f.qbic.clone(), &log)).unwrap();
    cat.register(Logged::new(f.text.clone(), &log)).unwrap();
    let options = PlannerOptions {
        negation_pushdown: true,
        ..Default::default()
    };
    let garlic = Garlic::with_options(cat, options);
    let atom = |attribute, target| GarlicQuery::atom(attribute, Target::text(target));
    let (q, b, k) = (
        atom("AlbumColor", "red"),
        atom("Shape", "round"),
        atom("Artist", "Beatles"),
    );
    let not = GarlicQuery::not;
    let shapes = [
        GarlicQuery::and(q.clone(), not(q.clone())),
        GarlicQuery::and(q.clone(), GarlicQuery::or(b, not(q))),
        GarlicQuery::and(k.clone(), not(k)),
    ];
    for query in &shapes {
        log.lock().unwrap().clear();
        let result = garlic.top_k(query, 3).unwrap();
        assert!(result.plan.nnf.literals.len() > result.plan.nnf.atoms().len());
        let mut asked = log.lock().unwrap().clone();
        let calls = asked.len();
        asked.sort();
        asked.dedup();
        assert_eq!(
            calls,
            asked.len(),
            "{query}: {asked:?} asked more than once"
        );
        assert_eq!(calls, result.plan.nnf.atoms().len(), "{query}");
    }
}

/// Single-atom queries work through every entry point.
#[test]
fn single_atom_query() {
    let f = Fixture::new(8);
    let garlic = f.garlic();
    let q = GarlicQuery::atom("Review", Target::terms(&["psychedelic"]));
    let result = garlic.top_k(&q, 3).unwrap();
    assert_eq!(result.answers.len(), 3);
    let grades = result.answers.grades();
    assert!(grades.windows(2).all(|w| w[0] >= w[1]));
}
