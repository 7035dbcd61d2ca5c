//! Compile-time assertions that the service API stays thread-safe.
//!
//! The ownership redesign makes every layer of the stack `Send + Sync`:
//! sources, subsystems, the catalog, the middleware, live query sessions,
//! and the concurrent service. These checks are *compile-time* — if a
//! future change smuggles a `Cell`, `Rc`, or borrowed lifetime back into
//! any of these types, this file stops building, which is the point.

use std::sync::Arc;

use garlic_core::access::{CountingSource, MemorySource, SortedCursor};
use garlic_core::algorithms::engine::{Engine, EngineSession};
use garlic_core::complement::ComplementSource;
use garlic_core::{GradedSource, SetAccess};
use garlic_middleware::{
    Catalog, Explain, Garlic, GarlicService, QueryRequest, QueryResult, QuerySession,
};
use garlic_subsys::{
    CrispSource, QbicStore, RelationalStore, Subsystem, TextStore, VectorSubsystem,
};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_static<T: 'static>() {}

#[test]
fn core_source_types_are_send_sync() {
    assert_send_sync::<MemorySource>();
    assert_send_sync::<CrispSource>();
    assert_send_sync::<ComplementSource<MemorySource>>();
    assert_send_sync::<CountingSource<MemorySource>>();
    assert_send_sync::<CountingSource<Arc<dyn GradedSource>>>();
    assert_send_sync::<Arc<dyn GradedSource>>();
    assert_send_sync::<Arc<dyn SetAccess>>();
    assert_send_sync::<Box<dyn GradedSource>>();
    assert_send_sync::<SortedCursor<'_, dyn GradedSource>>();
}

#[test]
fn engine_and_sessions_are_send_sync() {
    assert_send_sync::<Engine<Arc<dyn GradedSource>>>();
    // One session type, whatever the rule (A₀, A₀′, the scan, B₀); the
    // aggregation slot used by the middleware is Send + Sync.
    assert_send_sync::<
        EngineSession<
            CountingSource<Arc<dyn GradedSource>>,
            Box<dyn garlic_agg::Aggregation + Send + Sync>,
        >,
    >();
}

#[test]
fn all_subsystem_types_are_send_sync() {
    assert_send_sync::<RelationalStore>();
    assert_send_sync::<QbicStore>();
    assert_send_sync::<TextStore>();
    assert_send_sync::<VectorSubsystem>();
    assert_send_sync::<Arc<dyn Subsystem>>();
    assert_send_sync::<Box<dyn Subsystem>>();
}

#[test]
fn middleware_service_types_are_send_sync_and_static() {
    assert_send_sync::<Catalog>();
    assert_send_sync::<Garlic>();
    assert_send_sync::<QuerySession>();
    assert_send_sync::<GarlicService>();
    assert_send_sync::<QueryRequest<'_>>();
    assert_send_sync::<QueryResult>();
    assert_send_sync::<Explain>();

    // Sessions and services are 'static: storable in server state, movable
    // across threads, no borrow of a subsystem's stack frame.
    assert_static::<Catalog>();
    assert_static::<Garlic>();
    assert_static::<QuerySession>();
    assert_static::<GarlicService>();
}

#[test]
fn a_live_session_actually_moves_across_threads() {
    // The dynamic counterpart of the static checks: open a session on this
    // thread, page it on another, bring it back, page again.
    let mut rng = garlic_workload::seeded_rng(11);
    let (rel, qbic, text) = garlic_subsys::cd_store::demo_subsystems(&mut rng);
    let mut cat = Catalog::new();
    cat.register(rel).unwrap();
    cat.register(qbic).unwrap();
    cat.register(text).unwrap();
    let garlic = Garlic::new(cat);

    let q = garlic_middleware::parse_query("AlbumColor = red AND Shape = round").unwrap();
    let mut session = garlic.open_session(&QueryRequest::new(&q, 6)).unwrap();
    let first = session.next_batch(3).unwrap();

    let (session, second) = std::thread::spawn(move || {
        let batch = session.next_batch(3).unwrap();
        (session, batch)
    })
    .join()
    .unwrap();
    assert_eq!(session.returned(), 6);

    // Identical to a single-threaded paged run over the same catalog.
    let mut reference = garlic.open_session(&QueryRequest::new(&q, 6)).unwrap();
    assert_eq!(first.entries(), reference.next_batch(3).unwrap().entries());
    assert_eq!(second.entries(), reference.next_batch(3).unwrap().entries());
    assert_eq!(session.stats(), reference.stats());
}
