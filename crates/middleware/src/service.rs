//! The concurrent service layer: many independent requests, one shared
//! catalog.
//!
//! Fagin's middleware is explicitly *multi-user* — "a single Garlic query
//! can access data in a number of different subsystems", and many users
//! issue such queries at once. The ownership redesign (owned
//! [`Catalog`](crate::Catalog), `Send + Sync` subsystems, `Arc` answer
//! handles) makes that literal: [`GarlicService`] takes the same
//! [`QueryRequest`] as [`Garlic::run`] and returns the same
//! [`QueryResult`], one at a time ([`GarlicService::run`], or
//! [`GarlicService::top_k`] for the plain request) or as a batch executed
//! concurrently on a scoped thread pool ([`GarlicService::serve_batch`]) —
//! so a traced, weighted or deadline-bound request is served like any
//! other.
//!
//! Every request, batched or not, goes through one serve path: admission
//! → deadline → `catch_unwind` → service metrics.
//!
//! # Cost accounting under concurrency
//!
//! Each query evaluation wraps its own fresh
//! [`CountingSource`](garlic_core::access::CountingSource)s around the
//! subsystem answers, so per-query [`AccessStats`](garlic_core::AccessStats)
//! are computed in isolation: running a batch concurrently reports, for
//! every query, exactly the Section 5 access counts a sequential run would
//! (pinned by the `concurrent_service` equivalence suite). Concurrency
//! changes wall-clock time, never measured cost.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use garlic_telemetry::SpanTimer;

use crate::error::MiddlewareError;
use crate::exec::{Garlic, QueryRequest, QueryResult};
use crate::query::GarlicQuery;

/// A thread-safe, cloneable query service over one shared [`Garlic`].
///
/// Cloning the service (or sharing it behind an `Arc`) shares the
/// underlying middleware and catalog; each clone can serve batches from
/// its own thread. Clones also share the admission counter, so a
/// [`GarlicService::with_admission_limit`] bound holds across every
/// clone serving concurrently.
///
/// Every query served through the service is **isolated**: a panicking
/// evaluation is caught ([`MiddlewareError::Internal`]) instead of
/// unwinding into the caller or poisoning shared state, an optional
/// per-query deadline fails runaway queries with
/// [`MiddlewareError::DeadlineExceeded`], and the optional admission
/// limit sheds excess load with [`MiddlewareError::Overloaded`] instead
/// of queueing unboundedly.
#[derive(Clone)]
pub struct GarlicService {
    garlic: Arc<Garlic>,
    threads: usize,
    /// Per-query time budget, applied from the moment a query is admitted.
    deadline: Option<Duration>,
    /// Admission control: `(in-flight counter, limit)`. Shared across
    /// clones so the bound is service-wide.
    admission: Option<(Arc<AtomicUsize>, usize)>,
}

/// RAII admission permit: decrements the in-flight counter however the
/// query ends — success, typed error, or caught panic.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl GarlicService {
    /// Wraps a middleware instance, sizing the worker pool from
    /// [`std::thread::available_parallelism`].
    pub fn new(garlic: Garlic) -> Self {
        GarlicService::shared(Arc::new(garlic))
    }

    /// Like [`GarlicService::new`], over an already-shared middleware.
    pub fn shared(garlic: Arc<Garlic>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        GarlicService {
            garlic,
            threads,
            deadline: None,
            admission: None,
        }
    }

    /// Wraps a middleware instance with an explicit worker count
    /// (`threads == 1` degenerates to sequential in-thread execution,
    /// useful as a baseline).
    pub fn with_threads(garlic: Garlic, threads: usize) -> Self {
        GarlicService {
            garlic: Arc::new(garlic),
            threads: threads.max(1),
            deadline: None,
            admission: None,
        }
    }

    /// Applies a per-query deadline: each served query gets `budget` from
    /// admission, checked cooperatively by the engine between batch
    /// rounds, and fails with [`MiddlewareError::DeadlineExceeded`] once
    /// it passes. A request that carries its own
    /// [`QueryRequest::deadline`] runs under the earlier of the two.
    /// Sessions opened directly on the [`Garlic`] are not affected.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Bounds the number of concurrently admitted queries (across all
    /// clones of this service): the `limit + 1`-th concurrent query is
    /// shed immediately with [`MiddlewareError::Overloaded`] rather than
    /// queued, keeping latency bounded under overload.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission = Some((Arc::new(AtomicUsize::new(0)), limit.max(1)));
        self
    }

    /// The shared middleware.
    pub fn garlic(&self) -> &Garlic {
        &self.garlic
    }

    /// The worker-pool size used for batches.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Serves the plain top-k request — shorthand for
    /// [`GarlicService::run`] on [`QueryRequest::new`].
    pub fn top_k(&self, query: &GarlicQuery, k: usize) -> Result<QueryResult, MiddlewareError> {
        self.serve(&QueryRequest::new(query, k))
    }

    /// Serves one request on the calling thread, with the service's full
    /// isolation (admission control, deadline, panic containment).
    pub fn run(&self, request: &QueryRequest<'_>) -> Result<QueryResult, MiddlewareError> {
        self.serve(request)
    }

    /// Tries to admit one query, shedding load with a typed error when
    /// the in-flight bound is hit.
    fn admit(&self) -> Result<Option<Admitted<'_>>, MiddlewareError> {
        let Some((inflight, limit)) = &self.admission else {
            return Ok(None);
        };
        let admitted = inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < *limit).then_some(n + 1)
            })
            .is_ok();
        if admitted {
            Ok(Some(Admitted(inflight)))
        } else {
            Err(MiddlewareError::Overloaded { limit: *limit })
        }
    }

    /// The one hardened serve path: admission → deadline → catch_unwind →
    /// metrics. With telemetry attached to the shared [`Garlic`], every
    /// request that enters — answered, failed, shed or panicked — is
    /// counted once by `service.queries` and timed into the
    /// `service.query_latency_ns` histogram, and the three abnormal
    /// outcomes by `service.shed_load`, `service.deadline_exceeded` and
    /// `service.panics`.
    ///
    /// `AssertUnwindSafe` is sound here because a panicking evaluation
    /// only ever touches per-query state (its own sessions and counters);
    /// the shared catalog is read-only during queries and the storage
    /// layer recovers poisoned locks via `PoisonError::into_inner`.
    fn serve(&self, request: &QueryRequest<'_>) -> Result<QueryResult, MiddlewareError> {
        let timer = SpanTimer::start();
        let result = self.admit().and_then(|_permit| {
            let budget = self.deadline.map(|d| Instant::now() + d);
            let request = QueryRequest {
                deadline: [request.deadline, budget].into_iter().flatten().min(),
                ..*request
            };
            catch_unwind(AssertUnwindSafe(|| self.garlic.run(&request))).unwrap_or_else(|panic| {
                let reason = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(MiddlewareError::Internal { reason })
            })
        });
        if let Some(t) = self.garlic.telemetry() {
            t.counter("service.queries").inc();
            t.histogram("service.query_latency_ns")
                .record(timer.elapsed_ns());
            let abnormal = match &result {
                Err(MiddlewareError::Overloaded { .. }) => Some("service.shed_load"),
                Err(MiddlewareError::DeadlineExceeded) => Some("service.deadline_exceeded"),
                Err(MiddlewareError::Internal { .. }) => Some("service.panics"),
                _ => None,
            };
            if let Some(name) = abnormal {
                t.counter(name).inc();
            }
        }
        result
    }

    /// Executes a batch of independent requests concurrently and returns
    /// one result per request, **in request order**.
    ///
    /// Requests are pulled from a shared work queue by up to
    /// `min(threads, batch len)` scoped worker threads, each through the
    /// one serve path; every evaluation is fully independent (own metered
    /// sources, own engine state), so results, tie order, and per-query
    /// access counts are identical to serving the batch sequentially.
    ///
    /// With telemetry attached the batch also keeps the
    /// `service.queue_depth` gauge (requests not yet claimed by a worker).
    pub fn serve_batch(
        &self,
        requests: &[QueryRequest<'_>],
    ) -> Vec<Result<QueryResult, MiddlewareError>> {
        let depth = self
            .garlic
            .telemetry()
            .map(|t| t.gauge("service.queue_depth"));
        let serve_claimed = |i: usize, request: &QueryRequest<'_>| {
            if let Some(depth) = &depth {
                depth.set(requests.len().saturating_sub(i + 1) as i64);
            }
            self.serve(request)
        };

        let workers = self.threads.min(requests.len());
        if workers <= 1 {
            return requests
                .iter()
                .enumerate()
                .map(|(i, request)| serve_claimed(i, request))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<_> = requests.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(i) else {
                        break;
                    };
                    let result = serve_claimed(i, request);
                    *slots[i].lock().expect("no panics while holding the slot") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker threads joined")
                    .expect("every request was claimed by exactly one worker")
            })
            .collect()
    }
}

impl std::fmt::Debug for GarlicService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GarlicService")
            .field("threads", &self.threads)
            .field("catalog", self.garlic.catalog())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use garlic_subsys::cd_store::demo_subsystems;
    use garlic_subsys::Target;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_garlic() -> Garlic {
        let mut rng = StdRng::seed_from_u64(7);
        let (rel, qbic, text) = demo_subsystems(&mut rng);
        let mut cat = Catalog::new();
        cat.register(rel).unwrap();
        cat.register(qbic).unwrap();
        cat.register(text).unwrap();
        Garlic::new(cat)
    }

    fn service(threads: usize) -> GarlicService {
        GarlicService::with_threads(demo_garlic(), threads)
    }

    /// Owned `(query, k)` pairs; [`borrowed`] turns them into requests.
    fn requests() -> Vec<(GarlicQuery, usize)> {
        let atoms = [
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("Review", Target::terms(&["psychedelic", "rock"])),
        ];
        let mut out = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    out.push((
                        GarlicQuery::and(atoms[i].clone(), atoms[j].clone()),
                        1 + (i + j) % 4,
                    ));
                }
            }
        }
        out.push((GarlicQuery::or(atoms[0].clone(), atoms[1].clone()), 5));
        out.push((GarlicQuery::not(atoms[0].clone()), 3));
        out
    }

    fn borrowed(owned: &[(GarlicQuery, usize)]) -> Vec<QueryRequest<'_>> {
        owned
            .iter()
            .map(|(q, k)| QueryRequest::new(q, *k))
            .collect()
    }

    /// A subsystem serving attribute `Hook` whose evaluation first runs a
    /// caller-supplied closure: how the tests park or sabotage a query
    /// *inside* the serve path.
    struct Hooked(Box<dyn Fn() + Send + Sync>);

    impl garlic_subsys::Subsystem for Hooked {
        fn name(&self) -> &str {
            "hooked"
        }
        fn attributes(&self) -> Vec<String> {
            vec!["Hook".to_owned()]
        }
        fn universe_size(&self) -> usize {
            12
        }
        fn evaluate(
            &self,
            _query: &garlic_subsys::AtomicQuery,
        ) -> Result<Arc<dyn garlic_core::GradedSource>, garlic_subsys::SubsystemError> {
            (self.0)();
            let grades = [garlic_agg::Grade::HALF; 12];
            Ok(Arc::new(garlic_core::MemorySource::from_grades(&grades)))
        }
    }

    /// The demo middleware plus a [`Hooked`] subsystem, with telemetry,
    /// and the query that reaches the hook.
    fn hooked_garlic(
        telemetry: &Arc<garlic_telemetry::Telemetry>,
        hook: impl Fn() + Send + Sync + 'static,
    ) -> (Garlic, GarlicQuery) {
        let mut catalog = demo_garlic().catalog().clone();
        catalog.register(Hooked(Box::new(hook))).unwrap();
        let garlic = Garlic::new(catalog).with_telemetry(Arc::clone(telemetry));
        (garlic, GarlicQuery::atom("Hook", Target::text("any")))
    }

    #[test]
    fn batch_results_arrive_in_request_order_and_match_sequential() {
        // One shared middleware for both modes: the comparison isolates
        // concurrency, not fixture construction.
        let garlic = demo_garlic();
        let concurrent = GarlicService::with_threads(garlic.clone(), 4);
        let sequential = GarlicService::with_threads(garlic, 1);
        let owned = requests();
        let reqs = borrowed(&owned);
        assert!(reqs.len() >= 8, "a real batch");

        let par = concurrent.serve_batch(&reqs);
        let seq = sequential.serve_batch(&reqs);
        assert_eq!(par.len(), reqs.len());
        for ((p, s), (q, _)) in par.iter().zip(&seq).zip(&owned) {
            let p = p.as_ref().unwrap();
            let s = s.as_ref().unwrap();
            assert_eq!(p.answers.entries(), s.answers.entries(), "{q}");
            assert_eq!(p.stats, s.stats, "{q}");
        }
    }

    #[test]
    fn batch_reports_per_query_errors_in_place() {
        let svc = service(3);
        let owned = vec![
            (GarlicQuery::atom("AlbumColor", Target::text("red")), 2),
            (GarlicQuery::atom("Tempo", Target::text("fast")), 2),
            (GarlicQuery::atom("Shape", Target::text("round")), 2),
        ];
        let results = svc.serve_batch(&borrowed(&owned));
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(MiddlewareError::UnboundAttribute { .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn one_service_is_shareable_across_caller_threads() {
        let svc = service(2);
        let q = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let reference = svc.top_k(&q, 3).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let svc = svc.clone();
                let q = q.clone();
                let want = reference.answers.entries().to_vec();
                scope.spawn(move || {
                    let got = svc.top_k(&q, 3).unwrap();
                    assert_eq!(got.answers.entries(), want);
                });
            }
        });
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(service(4).serve_batch(&[]).is_empty());
    }

    #[test]
    fn batch_records_service_metrics_when_attached() {
        use garlic_telemetry::{MetricValue, Telemetry};
        let telemetry = Telemetry::new();
        let garlic = demo_garlic().with_telemetry(Arc::clone(&telemetry));
        let svc = GarlicService::with_threads(garlic, 4);
        let owned = requests();
        let reqs = borrowed(&owned);
        let results = svc.serve_batch(&reqs);
        assert!(results.iter().all(|r| r.is_ok()));

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("service.queries"), reqs.len() as u64);
        match snap.get("service.query_latency_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, reqs.len() as u64),
            other => panic!("expected latency histogram, got {other:?}"),
        }
        // The queue drained: the gauge ends at zero.
        assert!(matches!(
            snap.get("service.queue_depth"),
            Some(MetricValue::Gauge(0))
        ));
    }

    #[test]
    fn zero_deadline_fails_engine_queries_with_a_typed_error() {
        use garlic_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        let garlic = demo_garlic().with_telemetry(Arc::clone(&telemetry));
        let svc = GarlicService::with_threads(garlic, 2).with_deadline(Duration::ZERO);
        let color = || GarlicQuery::atom("AlbumColor", Target::text("red"));
        let shape = || GarlicQuery::atom("Shape", Target::text("round"));
        // Every strategy checks the deadline before its first access: the
        // B0 engine, A0', and the two whose whole cost is paid by the
        // first page — the naive scan behind a negation and the filtered
        // strategy behind a crisp conjunct.
        let queries = [
            GarlicQuery::or(color(), shape()),
            GarlicQuery::and(color(), shape()),
            GarlicQuery::and(color(), GarlicQuery::not(shape())),
            GarlicQuery::and(
                GarlicQuery::atom("Artist", Target::text("Beatles")),
                color(),
            ),
        ];
        let relaxed = svc.clone().with_deadline(Duration::from_secs(3600));
        for (i, q) in queries.iter().enumerate() {
            assert!(
                matches!(svc.top_k(q, 3), Err(MiddlewareError::DeadlineExceeded)),
                "{q}"
            );
            assert_eq!(
                telemetry.snapshot().counter("service.deadline_exceeded"),
                i as u64 + 1,
                "{q}"
            );
            // A generous deadline leaves the same query untouched.
            let want = relaxed.top_k(q, 3).unwrap();
            assert_eq!(want.answers.len(), 3, "{q}");

            // The failed page left its session resumable: clear the
            // deadline and it answers, with nothing billed twice.
            let mut session = svc.garlic().open_session(&QueryRequest::new(q, 3)).unwrap();
            session.set_deadline(Some(std::time::Instant::now()));
            assert!(
                matches!(
                    session.next_batch(3),
                    Err(MiddlewareError::DeadlineExceeded)
                ),
                "{q}"
            );
            session.set_deadline(None);
            let page = session.next_batch(3).unwrap();
            assert_eq!(page.entries(), want.answers.entries(), "{q}");
            assert_eq!(session.stats(), want.stats, "{q}");
        }
    }

    #[test]
    fn admission_limit_sheds_excess_load_and_releases_permits() {
        use garlic_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        // An evaluation that parks until the main thread has observed the
        // shed.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let (garlic, parked) = hooked_garlic(&telemetry, {
            let gate = Arc::clone(&gate);
            move || {
                gate.wait(); // slot taken
                gate.wait(); // shed observed
            }
        });
        let svc = GarlicService::with_threads(garlic, 2).with_admission_limit(1);
        let q = GarlicQuery::atom("AlbumColor", Target::text("red"));

        std::thread::scope(|scope| {
            // Occupy the single admission slot with the parked query.
            scope.spawn(|| svc.top_k(&parked, 1).unwrap());
            gate.wait();
            // Clones share the admission counter, so the bound is
            // service-wide.
            assert!(matches!(
                svc.clone().top_k(&q, 2),
                Err(MiddlewareError::Overloaded { limit: 1 })
            ));
            gate.wait();
        });
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("service.shed_load"), 1);
        // The shed query is one served query like the parked one, and
        // nothing else.
        assert_eq!(snap.counter("service.queries"), 2);
        assert_eq!(snap.counter("service.panics"), 0);
        // The permit was returned when the held query finished.
        assert!(svc.top_k(&q, 2).is_ok());
    }

    #[test]
    fn a_panicking_evaluation_is_isolated_as_a_typed_error() {
        use garlic_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        let (garlic, sabotaged) = hooked_garlic(&telemetry, || panic!("sabotaged evaluation"));
        let svc = GarlicService::with_threads(garlic, 2).with_admission_limit(4);
        match svc.top_k(&sabotaged, 1) {
            Err(MiddlewareError::Internal { reason }) => {
                assert!(reason.contains("sabotaged evaluation"))
            }
            other => panic!("expected an isolated internal error, got {other:?}"),
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("service.panics"), 1);
        assert_eq!(snap.counter("service.queries"), 1);
        assert_eq!(snap.counter("service.shed_load"), 0);
        // The panic released its admission permit and left the shared
        // middleware serviceable.
        let q = GarlicQuery::atom("AlbumColor", Target::text("red"));
        assert!(svc.top_k(&q, 2).is_ok());
    }

    #[test]
    fn every_served_query_is_recorded_batched_or_not() {
        use garlic_telemetry::{MetricValue, Telemetry};
        let telemetry = Telemetry::new();
        let garlic = demo_garlic().with_telemetry(Arc::clone(&telemetry));
        let svc = GarlicService::with_threads(garlic, 2);
        let owned = requests();
        for (q, k) in &owned[..3] {
            svc.top_k(q, *k).unwrap();
        }
        let results = svc.serve_batch(&borrowed(&owned[3..7]));
        assert!(results.iter().all(|r| r.is_ok()));

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("service.queries"), 7);
        assert_eq!(snap.counter("middleware.queries"), 7);
        match snap.get("service.query_latency_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 7),
            other => panic!("expected latency histogram, got {other:?}"),
        }
    }

    #[test]
    fn explain_batch_returns_traces_matching_top_k_batch() {
        let garlic = demo_garlic();
        let svc = GarlicService::with_threads(garlic, 4);
        let owned = requests();
        let reqs = borrowed(&owned);
        let with_trace: Vec<_> = reqs
            .iter()
            .map(|r| QueryRequest { trace: true, ..*r })
            .collect();
        let plain = svc.serve_batch(&reqs);
        let traced = svc.serve_batch(&with_trace);
        assert_eq!(plain.len(), traced.len());
        for ((p, t), (q, _)) in plain.iter().zip(&traced).zip(&owned) {
            let (p, t) = (p.as_ref().unwrap(), t.as_ref().unwrap());
            assert_eq!(p.answers.entries(), t.answers.entries(), "{q}");
            // Each trace's per-source counts sum to its own billed total.
            let explain = t.explain.as_ref().expect("a traced request explains");
            let sum = explain
                .per_source
                .iter()
                .fold(garlic_core::AccessStats::default(), |acc, (_, s)| acc + *s);
            assert_eq!(sum, t.stats, "{q}");
        }
    }
}
