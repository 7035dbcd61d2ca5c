//! The executor: one request in, one result out.
//!
//! A [`QueryRequest`] says everything a caller can ask of a query — how
//! many answers, and optionally a deadline, an execution trace and
//! Fagin–Wimmers weights on the conjuncts; the options compose freely.
//! [`Garlic::run`] answers it with a [`QueryResult`]: the ranked page, its
//! measured Section 5 middleware cost (every source is read through a
//! counting wrapper), the plan, and — when the request asked for a trace —
//! what only a traced run adds ([`Explain`]). [`Garlic::top_k`] is the
//! shorthand for the plain request.
//!
//! There is one execution path. The request is planned, the plan's
//! [`QuerySession`] — a resumable session of the core engine, one per
//! strategy — is opened with the request's deadline armed on it, and a
//! page is pulled. "The top k" is the first page of "continue where we
//! left off" (Section 4): a caller that wants more pages takes the armed
//! session itself from [`Garlic::open_session`] and pulls as many as it
//! likes, so paging composes with deadlines and weights through the
//! session, and what a trace shows is what the plain request runs and
//! bills. No source is accessed before the first page is asked for.
//!
//! Ownership: [`Garlic`] owns its [`Catalog`] and a [`QuerySession`] owns
//! the `Arc` answer handles it streams from, so both are `'static`,
//! `Send + Sync`, and freely movable across threads — the substrate the
//! concurrent [`GarlicService`](crate::service::GarlicService) executes on.

use std::sync::Arc;
use std::time::Instant;

use garlic_agg::iterated::{min_agg, IteratedTNorm};
use garlic_agg::tnorms::Minimum;
use garlic_agg::weighted::FaginWimmers;
use garlic_agg::{Aggregation, Grade};
use garlic_core::access::{total_stats, CountingSource};
use garlic_core::algorithms::engine::{EngineProfile, EngineSession};
use garlic_core::algorithms::filtered::FilteredSession;
use garlic_core::complement::ComplementSource;
use garlic_core::{AccessStats, GradedSource, TopK, TopKError};
use garlic_subsys::AtomicQuery;
use garlic_telemetry::{MetricValue, QueryTrace, Span, SpanTimer, Telemetry, TelemetrySnapshot};

use crate::catalog::Catalog;
use crate::error::MiddlewareError;
use crate::plan::{plan, Plan, PlannerOptions, Strategy};
use crate::query::{GarlicQuery, QueryAggregation};

/// A subsystem answer — an owned `Arc` handle — behind the Section 5
/// metering wrapper.
type Counted = CountingSource<Arc<dyn GradedSource>>;

/// A crisp (set-access) answer behind the metering wrapper.
type CountedCrisp = CountingSource<Arc<dyn garlic_core::SetAccess>>;

/// The aggregation a session carries: thread-safe so the session is.
type SessionAgg = Box<dyn Aggregation + Send + Sync>;

/// The one place execution wraps a source in its metering counter.
fn counted<S: GradedSource>(source: S) -> CountingSource<S> {
    CountingSource::new(source)
}

/// Evaluates each atom through the catalog, metered.
fn counted_atoms<'a>(
    catalog: &Catalog,
    atoms: impl IntoIterator<Item = &'a AtomicQuery>,
) -> Result<Vec<Counted>, MiddlewareError> {
    atoms
        .into_iter()
        .map(|a| Ok(counted(catalog.evaluate(a)?)))
        .collect()
}

/// One metered source per NNF *literal*: negated literals read the atom's
/// list reversed with complemented grades (the Section 7 observation).
fn nnf_sources(
    catalog: &Catalog,
    query: &GarlicQuery,
) -> Result<(Vec<Counted>, QueryAggregation), MiddlewareError> {
    let nnf = query.to_nnf();
    let sources: Vec<Counted> = nnf
        .literals
        .iter()
        .map(|lit| {
            let base = catalog.evaluate(&lit.atom)?;
            let source: Arc<dyn GradedSource> = if lit.negated {
                Arc::new(ComplementSource::new(base))
            } else {
                base
            };
            Ok(counted(source))
        })
        .collect::<Result<_, MiddlewareError>>()?;
    Ok((sources, QueryAggregation::nnf(nnf)))
}

/// One top-k request: "the top `k` answers to this query", optionally
/// bounded by a deadline, traced, or with its conjuncts weighted. The
/// request *borrows* the query and the weights, so building one allocates
/// nothing; start from [`QueryRequest::new`] and set what the query needs:
///
/// ```
/// # use garlic_middleware::{GarlicQuery, QueryRequest};
/// # use garlic_subsys::Target;
/// let query = GarlicQuery::atom("AlbumColor", Target::text("red"));
/// let request = QueryRequest {
///     trace: true,
///     ..QueryRequest::new(&query, 10)
/// };
/// assert!(request.deadline.is_none() && request.weights.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QueryRequest<'a> {
    /// The query to answer.
    pub query: &'a GarlicQuery,
    /// How many answers: the page size of [`Garlic::run`], the anticipated
    /// cumulative result size (a planning estimate only) of
    /// [`Garlic::open_session`].
    pub k: usize,
    /// A cooperative deadline. The engine checks it once per batch round —
    /// the first check comes before any source is accessed, whatever the
    /// strategy — and once it has passed the query fails with
    /// [`MiddlewareError::DeadlineExceeded`] instead of running away,
    /// leaving every source consistent.
    pub deadline: Option<Instant>,
    /// EXPLAIN ANALYZE: also return the per-query execution trace
    /// ([`QueryResult::explain`]). The execution traced is the one the
    /// plain request performs: same answers, same bill.
    pub trace: bool,
    /// Fagin–Wimmers weights, one per conjunct of a flat conjunction
    /// (Section 4's pointer to \[FW97\]: "the user decides that color is
    /// twice as important to him as shape"); empty for an unweighted
    /// query. Non-negative, finite, with a positive sum. The weighting of
    /// min is monotone, so algorithm A₀ applies unchanged.
    pub weights: &'a [f64],
}

impl<'a> QueryRequest<'a> {
    /// The plain request: the top `k`, no deadline, no trace, no weights.
    pub fn new(query: &'a GarlicQuery, k: usize) -> Self {
        QueryRequest {
            query,
            k,
            deadline: None,
            trace: false,
            weights: &[],
        }
    }
}

/// A query answer with its plan and measured middleware cost.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The top-k answers (objects with their overall grades).
    pub answers: TopK,
    /// Measured access counts across all subsystems.
    pub stats: AccessStats,
    /// The plan that produced the answer.
    pub plan: Plan,
    /// `true` when some source served a degraded stream (e.g. a sharded
    /// attribute that dropped a quarantined shard): the answers are
    /// correct for the surviving data and `stats` bills exactly the
    /// accesses performed, but unreadable objects are missing.
    pub degraded: bool,
    /// What the trace adds, when the request set [`QueryRequest::trace`].
    pub explain: Option<Box<Explain>>,
}

/// What only a traced run adds to its [`QueryResult`]: the per-source
/// split of the bill and the per-query execution trace.
///
/// The trace's `source[i]` spans are rendered from the same
/// [`CountingSource`] totals `stats` sums over — the per-source counts in
/// the trace are **bit-equal to the billed totals by construction**, not
/// re-derived estimates (pinned by the `explain_equivalence` suite).
#[derive(Debug, Clone)]
pub struct Explain {
    /// Per-source `(label, cost)` pairs, in source order — the exact
    /// [`CountingSource`] totals, summing to [`QueryResult::stats`].
    pub per_source: Vec<(String, AccessStats)>,
    /// The execution trace (plan decision, engine phases, per-source
    /// costs, storage counter deltas when telemetry is attached).
    pub trace: QueryTrace,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.trace)
    }
}

/// The Garlic middleware: a catalog plus planner options, optionally
/// wired to a [`Telemetry`] registry.
///
/// Owns its catalog, so it is `'static`, `Send + Sync`, and cheaply
/// cloneable (clones share the registered subsystems). All query entry
/// points take `&self`: one `Garlic` — or one `Arc<Garlic>` — serves any
/// number of concurrent callers.
#[derive(Clone)]
pub struct Garlic {
    catalog: Catalog,
    options: PlannerOptions,
    telemetry: Option<Arc<Telemetry>>,
}

impl Garlic {
    /// Wraps a catalog with default options.
    pub fn new(catalog: Catalog) -> Self {
        Garlic {
            catalog,
            options: PlannerOptions::default(),
            telemetry: None,
        }
    }

    /// Wraps a catalog with explicit options.
    pub fn with_options(catalog: Catalog, options: PlannerOptions) -> Self {
        Garlic {
            catalog,
            options,
            telemetry: None,
        }
    }

    /// Attaches a metrics registry (builder style). [`Garlic::run`] then
    /// records `middleware.queries` and the `middleware.query_latency_ns`
    /// histogram — one registry check per query, never per entry — and a
    /// traced request appends a span of registry counter deltas to its
    /// trace.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Plans the plain request without executing it (the zero-cost half of
    /// EXPLAIN; set [`QueryRequest::trace`] for the traced, executing form).
    pub fn plan_for(&self, query: &GarlicQuery, k: usize) -> Result<Plan, MiddlewareError> {
        plan(&self.catalog, &QueryRequest::new(query, k), self.options)
    }

    /// Plans and executes the plain top-k request — shorthand for
    /// [`Garlic::run`] on [`QueryRequest::new`].
    pub fn top_k(&self, query: &GarlicQuery, k: usize) -> Result<QueryResult, MiddlewareError> {
        self.run(&QueryRequest::new(query, k))
    }

    /// Answers one request: plans it, opens the plan's session with the
    /// deadline armed, and pulls the one page of `k` answers. Asking for
    /// more answers than there are objects is an error here
    /// ([`TopKError::KTooLarge`]), not a short page.
    ///
    /// With [`QueryRequest::trace`] set the result also carries the
    /// per-query trace — the plan decision, engine phase timings,
    /// per-source Section 5 access counts (bit-equal to the billed
    /// [`CountingSource`] totals), and, when telemetry is attached, the
    /// storage counter deltas the query caused.
    pub fn run(&self, request: &QueryRequest<'_>) -> Result<QueryResult, MiddlewareError> {
        let timer = self.telemetry.as_ref().map(|_| SpanTimer::start());
        // A traced request also times its two phases.
        let phase_timer = || request.trace.then(SpanTimer::start);
        let plan_timer = phase_timer();
        let plan = plan(&self.catalog, request, self.options)?;
        let plan_ns = plan_timer.map(|t| t.elapsed_ns());
        let k = request.k;
        if k > plan.n {
            return Err(TopKError::KTooLarge { k, n: plan.n }.into());
        }

        let traced = self.telemetry.as_ref().filter(|_| request.trace);
        let before = traced.map(|t| t.snapshot());
        let exec_timer = phase_timer();
        let mut session = plan.open_session(&self.catalog, request)?;
        let answers = session.next_batch(k)?;
        let exec_ns = exec_timer.map(|t| t.elapsed_ns());

        let mut result = QueryResult {
            answers,
            stats: session.stats(),
            plan,
            degraded: session.degraded(),
            explain: None,
        };
        if request.trace {
            let per_source = session.per_source_stats(&result.plan, request.query);
            let mut root = Span::new(format!("query: {} top-{k}", request.query));
            root.push(plan_span(&result.plan, plan_ns));
            root.push(self.execute_span(&result, &session, &per_source, exec_ns, before));
            result.explain = Some(Box::new(Explain {
                per_source,
                trace: QueryTrace::new(root),
            }));
        }
        // The one recorder of `middleware.queries` / `.query_latency_ns`:
        // once per request, after success.
        if let (Some(t), Some(timer)) = (&self.telemetry, timer) {
            t.counter("middleware.queries").inc();
            t.histogram("middleware.query_latency_ns")
                .record(timer.elapsed_ns());
        }
        Ok(result)
    }

    /// The trace's `execute` span: the bill, the engine phases, one span
    /// per source and — given the registry snapshot taken before the run —
    /// the counters the run moved.
    fn execute_span(
        &self,
        result: &QueryResult,
        session: &QuerySession,
        per_source: &[(String, AccessStats)],
        exec_ns: Option<u64>,
        before: Option<TelemetrySnapshot>,
    ) -> Span {
        let mut exec = Span::new("execute");
        exec.duration_ns = exec_ns;
        exec.add_field("answers", result.answers.len());
        exec.add_field("S", result.stats.sorted);
        exec.add_field("R", result.stats.random);

        let EngineDetails {
            profile,
            depth,
            frontier,
        } = session.engine_details();
        let mut engine = Span::new("engine");
        engine.add_field("depth", depth);
        engine.add_field("sorted_ns", profile.sorted_ns);
        engine.add_field("random_ns", profile.random_ns);
        engine.add_field("sorted_batches", profile.sorted_batches);
        engine.add_field("sorted_entries", profile.sorted_entries);
        engine.add_field("random_batches", profile.random_batches);
        engine.add_field("random_probes", profile.random_probes);
        if !frontier.is_empty() {
            let steps: Vec<String> = frontier.iter().map(|(k, g)| format!("{k}:{g}")).collect();
            engine.add_field("frontier", steps.join(" "));
        }
        exec.push(engine);

        for (i, (label, s)) in per_source.iter().enumerate() {
            exec.push(
                Span::new(format!("source[{i}] \"{label}\""))
                    .field("S", s.sorted)
                    .field("R", s.random),
            );
        }

        if let (Some(before), Some(t)) = (before, &self.telemetry) {
            // Registry-wide counter deltas across the execution: under a
            // single in-flight query these are exactly this query's
            // storage activity (cache hits/misses, fence skips, ...);
            // under concurrency they are a best-effort attribution.
            let after = t.snapshot();
            let mut storage = Span::new("telemetry");
            for e in &after.entries {
                if let MetricValue::Counter(v) = e.value {
                    let prev = before.counter(&e.name);
                    if v > prev {
                        storage.add_field(&e.name, v - prev);
                    }
                }
            }
            if !storage.fields.is_empty() {
                exec.push(storage);
            }
        }
        exec
    }

    /// Opens the request's resumable [`QuerySession`], deadline armed, for
    /// callers that page: every strategy in the Section 4/8 catalogue
    /// pages through its ranked result set batch by batch, never repeating
    /// an object and never re-evaluating. Pages past the `N`-th object
    /// come back short, then empty. The A₀ family "continues where it left
    /// off" (Section 4), so its cumulative sorted cost equals a single
    /// evaluation at the cumulative k; B₀-family paging costs `m·k`
    /// cumulative; the filtered and naive strategies — whose evaluation
    /// cost does not depend on k — pay it on the first page and cut later
    /// pages from what they graded.
    ///
    /// The request's `k` (clamped to `1..=N`) is only the planner's
    /// estimate of the cumulative result size; `trace` is not consulted —
    /// a session reports its own [`QuerySession::per_source_stats`] and
    /// [`QuerySession::engine_details`].
    pub fn open_session(
        &self,
        request: &QueryRequest<'_>,
    ) -> Result<QuerySession, MiddlewareError> {
        let k = request.k.min(self.catalog.universe_size()).max(1);
        let request = QueryRequest { k, ..*request };
        plan(&self.catalog, &request, self.options)?.open_session(&self.catalog, &request)
    }
}

/// The trace's `plan` span.
fn plan_span(plan: &Plan, plan_ns: Option<u64>) -> Span {
    let mut span = Span::new(format!("plan: {:?}", plan.strategy));
    span.duration_ns = plan_ns;
    span.add_field("atoms", plan.atoms.len());
    span.add_field("estimated_cost", format!("{:.1}", plan.estimated_cost));
    span
}

/// The single fused internal-conjunction list (Section 8), metered.
fn pushdown_source(catalog: &Catalog, atoms: &[AtomicQuery]) -> Result<Counted, MiddlewareError> {
    let sub = catalog.resolve(&atoms[0].attribute)?;
    Ok(counted(
        sub.evaluate_internal_conjunction(atoms)
            .map_err(MiddlewareError::Subsystem)?,
    ))
}

impl Plan {
    /// Opens the plan's resumable session (see [`QuerySession`]) with the
    /// request's deadline armed: asks the subsystems for their answer
    /// handles and wraps them in meters, but accesses nothing — every
    /// strategy does its first access on its first page.
    fn open_session(
        &self,
        catalog: &Catalog,
        request: &QueryRequest<'_>,
    ) -> Result<QuerySession, MiddlewareError> {
        let (atoms, query) = (&self.atoms[..], request.query);
        let kind = match &self.strategy {
            Strategy::FaMin => {
                SessionKind::Engine(EngineSession::min(counted_atoms(catalog, atoms)?)?)
            }
            Strategy::FaGeneric => {
                let agg: SessionAgg = if self.weights.is_empty() {
                    Box::new(QueryAggregation::new(query, atoms))
                } else {
                    Box::new(FaginWimmers::new(min_agg(), &self.weights))
                };
                SessionKind::Engine(EngineSession::new(counted_atoms(catalog, atoms)?, agg)?)
            }
            Strategy::FaNnf => {
                let (sources, agg) = nnf_sources(catalog, query)?;
                SessionKind::Engine(EngineSession::new(sources, Box::new(agg) as SessionAgg)?)
            }
            Strategy::NaiveCalculus => SessionKind::Engine(EngineSession::scan(
                counted_atoms(catalog, atoms)?,
                Box::new(QueryAggregation::new(query, atoms)) as SessionAgg,
            )?),
            Strategy::B0Max => {
                SessionKind::Engine(EngineSession::max(counted_atoms(catalog, atoms)?)?)
            }
            Strategy::InternalPushdown { .. } => {
                SessionKind::Engine(EngineSession::max(vec![pushdown_source(catalog, atoms)?])?)
            }
            Strategy::Filtered { crisp_index } => {
                let crisp_atom = &atoms[*crisp_index];
                let crisp = counted(
                    catalog
                        .resolve(&crisp_atom.attribute)?
                        .evaluate_set(crisp_atom)
                        .map_err(MiddlewareError::Subsystem)?,
                );
                let others = atoms.iter().enumerate().filter(|(i, _)| i != crisp_index);
                let graded = counted_atoms(catalog, others.map(|(_, a)| a))?;
                SessionKind::Filtered {
                    session: FilteredSession::new(crisp, graded, *crisp_index, min_agg())?,
                    crisp_index: *crisp_index,
                }
            }
        };
        let mut session = QuerySession { kind };
        session.set_deadline(request.deadline);
        Ok(session)
    }
}

/// A resumable, strategy-agnostic paging session over one planned query —
/// what every request executes through.
///
/// Every strategy but one holds a live [`EngineSession`], under the rule
/// the strategy names:
///
/// * A₀-family strategies resume the sorted phase at the stored depth on
///   each batch ("continue where we left off", Section 4), so cumulative
///   sorted cost equals one evaluation at the cumulative `k`. The flat min
///   conjunction runs A₀′: a page random-accesses only the pivot list's
///   candidates and leaves the rest of what it has seen for a later page
///   to complete if it must.
/// * B₀-family strategies (flat disjunctions and Section 8 pushdown) deepen
///   the per-list prefixes page by page — `m·k` cumulative cost, no random
///   access.
/// * The naive scan reads every list to the end on its first page; like
///   the filtered strategy (the exception: a [`FilteredSession`]) its
///   evaluation cost is independent of `k`, so it is paid by the first
///   page and every later page is cut from the scored set at zero access
///   cost.
///
/// A session owns everything it streams from (`Arc` answer handles plus
/// its own bookkeeping), so it is `'static` and `Send`: open it on one
/// thread, store it, hand it to another — the server-side "user session"
/// the paper's multi-user middleware implies.
pub struct QuerySession {
    kind: SessionKind,
}

enum SessionKind {
    Engine(EngineSession<Counted, SessionAgg>),
    Filtered {
        session: FilteredSession<CountedCrisp, Counted, IteratedTNorm<Minimum>>,
        /// Where the crisp conjunct sits among the plan's atoms.
        crisp_index: usize,
    },
}

/// Engine-phase execution detail surfaced by
/// [`QuerySession::engine_details`] for EXPLAIN's `engine` span.
pub struct EngineDetails<'a> {
    /// Batched sorted/random phase timings and batch counts.
    pub profile: EngineProfile,
    /// Common sorted-access depth reached across the sources.
    pub depth: usize,
    /// `(returned, frontier grade)` after each batch boundary.
    pub frontier: &'a [(usize, Grade)],
}

impl QuerySession {
    /// Returns the next `k` best answers (fewer once the result set is
    /// exhausted), never repeating an object across batches.
    pub fn next_batch(&mut self, k: usize) -> Result<TopK, MiddlewareError> {
        match &mut self.kind {
            SessionKind::Engine(session) => session.next_batch(k),
            SessionKind::Filtered { session, .. } => session.next_batch(k),
        }
        .map_err(MiddlewareError::from)
    }

    /// How many answers have been handed out so far.
    pub fn returned(&self) -> usize {
        match &self.kind {
            SessionKind::Engine(session) => session.returned(),
            SessionKind::Filtered { session, .. } => session.returned(),
        }
    }

    /// The metered graded sources, in source order.
    fn graded(&self) -> &[Counted] {
        match &self.kind {
            SessionKind::Engine(session) => session.sources(),
            SessionKind::Filtered { session, .. } => session.graded(),
        }
    }

    /// The filtered strategy's crisp match-set source and its place among
    /// the plan's atoms.
    fn crisp(&self) -> Option<(usize, &CountedCrisp)> {
        match &self.kind {
            SessionKind::Filtered {
                session,
                crisp_index,
            } => Some((*crisp_index, session.crisp())),
            _ => None,
        }
    }

    /// The cumulative middleware cost of every batch so far.
    pub fn stats(&self) -> AccessStats {
        let crisp = self
            .crisp()
            .map_or(AccessStats::default(), |(_, c)| c.stats());
        total_stats(self.graded()) + crisp
    }

    /// Per-source `(label, cost)` pairs in source order — read straight
    /// from the session's [`CountingSource`]s, so they sum to exactly
    /// [`QuerySession::stats`]. `plan` and `query` are the ones the session
    /// was opened for; they name the sources: attribute names, `¬attr` for
    /// complemented NNF literals, `(crisp)` / `(fused)` markers for the
    /// filtered and pushdown forms.
    pub fn per_source_stats(&self, plan: &Plan, query: &GarlicQuery) -> Vec<(String, AccessStats)> {
        let attributes = || plan.atoms.iter().map(|a| a.attribute.as_str());
        let mut labels: Vec<String> = match &plan.strategy {
            Strategy::FaNnf => {
                let literals = query.to_nnf().literals;
                let mark = |negated| if negated { "¬" } else { "" };
                literals
                    .iter()
                    .map(|lit| format!("{}{}", mark(lit.negated), lit.atom.attribute))
                    .collect()
            }
            Strategy::InternalPushdown { .. } => {
                vec![format!(
                    "{} (fused)",
                    attributes().collect::<Vec<_>>().join("∧")
                )]
            }
            _ => attributes().map(str::to_owned).collect(),
        };
        let mut stats: Vec<AccessStats> = self.graded().iter().map(|s| s.stats()).collect();
        if let Some((at, crisp)) = self.crisp() {
            labels[at].push_str(" (crisp)");
            stats.insert(at, crisp.stats());
        }
        labels.into_iter().zip(stats).collect()
    }

    /// Engine-phase detail for EXPLAIN. The filtered strategy has no
    /// sorted phase: its depth stays 0 and its frontier empty.
    pub fn engine_details(&self) -> EngineDetails<'_> {
        match &self.kind {
            SessionKind::Engine(s) => EngineDetails {
                profile: s.engine().profile(),
                depth: s.engine().depth(),
                frontier: s.frontier_history(),
            },
            SessionKind::Filtered { session, .. } => EngineDetails {
                profile: session.profile(),
                depth: 0,
                frontier: &[],
            },
        }
    }

    /// Sets (or clears) a cooperative deadline on the underlying engine.
    /// Every strategy checks it before its first access and once per batch
    /// round after that; a page that fails with
    /// [`MiddlewareError::DeadlineExceeded`] leaves the session resumable —
    /// extend (or clear) the deadline and request the page again, and no
    /// access already made is billed a second time.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        match &mut self.kind {
            SessionKind::Engine(session) => session.set_deadline(deadline),
            SessionKind::Filtered { session, .. } => session.set_deadline(deadline),
        }
    }

    /// Whether any source this session reads from has served a degraded
    /// stream — see [`QueryResult::degraded`].
    pub fn degraded(&self) -> bool {
        self.graded().iter().any(|s| s.degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garlic_core::algorithms::naive::naive_topk;
    use garlic_subsys::cd_store::demo_subsystems;
    use garlic_subsys::{Subsystem, Target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        rel: garlic_subsys::RelationalStore,
        qbic: garlic_subsys::QbicStore,
        text: garlic_subsys::TextStore,
    }

    impl Fixture {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(7);
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

    /// Pages through `q` on one session: the pages and the total bill.
    fn paged(garlic: &Garlic, q: &GarlicQuery, batches: &[usize]) -> (Vec<TopK>, AccessStats) {
        let request = QueryRequest::new(q, batches.iter().sum());
        let mut session = garlic.open_session(&request).unwrap();
        let pages = batches
            .iter()
            .map(|&k| session.next_batch(k).unwrap())
            .collect();
        (pages, session.stats())
    }

    /// Runs the traced request; its `explain` is always there.
    fn traced(garlic: &Garlic, q: &GarlicQuery, k: usize) -> (QueryResult, Explain) {
        let request = QueryRequest {
            trace: true,
            ..QueryRequest::new(q, k)
        };
        let mut result = garlic.run(&request).unwrap();
        let explain = *result.explain.take().expect("a traced request explains");
        (result, explain)
    }

    /// Runs the conjunction of `atoms` under the given weights.
    fn weighted(
        garlic: &Garlic,
        weighted_atoms: &[(AtomicQuery, f64)],
        k: usize,
    ) -> Result<QueryResult, MiddlewareError> {
        let (atoms, weights): (Vec<_>, Vec<f64>) = weighted_atoms
            .iter()
            .map(|(a, w)| (GarlicQuery::Atom(a.clone()), *w))
            .unzip();
        garlic.run(&QueryRequest {
            weights: &weights,
            ..QueryRequest::new(&GarlicQuery::And(atoms), k)
        })
    }

    /// The seven `(options, query)` pairs that make the planner pick each
    /// of its seven strategies on the demo catalog.
    fn one_query_per_strategy() -> [(PlannerOptions, GarlicQuery); 7] {
        let color = || GarlicQuery::atom("AlbumColor", Target::text("red"));
        let shape = || GarlicQuery::atom("Shape", Target::text("round"));
        let review = || GarlicQuery::atom("Review", Target::terms(&["rock"]));
        let options = |prefer_internal, negation_pushdown| PlannerOptions {
            prefer_internal,
            negation_pushdown,
        };
        let negated = GarlicQuery::and(color(), GarlicQuery::not(shape()));
        [
            (options(false, false), GarlicQuery::and(color(), shape())),
            (options(false, false), GarlicQuery::or(color(), shape())),
            (
                options(false, false),
                GarlicQuery::and(
                    GarlicQuery::atom("Artist", Target::text("Beatles")),
                    color(),
                ),
            ),
            (
                options(false, false),
                GarlicQuery::and(color(), GarlicQuery::or(shape(), review())),
            ),
            (options(false, false), negated.clone()),
            (options(false, true), negated),
            (options(true, false), GarlicQuery::and(color(), shape())),
        ]
    }

    fn summed(explain: &Explain) -> AccessStats {
        explain
            .per_source
            .iter()
            .fold(AccessStats::default(), |acc, (_, s)| acc + *s)
    }

    #[test]
    fn beatles_red_returns_only_beatles_with_colour_ranking() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("AlbumColor", Target::text("red")),
        );
        let result = garlic.top_k(&q, 2).unwrap();
        // Albums 0 ("Crimson Meadows", red .9) and 3 ("Scarlet Parade",
        // red .6) are the two red-est Beatles albums.
        let ids: Vec<u64> = result.answers.objects().iter().map(|o| o.0).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&0));
        assert!(ids.contains(&3));
        assert!(result.answers.grades()[0] > Grade::ZERO);
        assert!(matches!(result.plan.strategy, Strategy::Filtered { .. }));
        // Cost must be far below a full scan (12 objects × 2 lists = 24).
        assert!(result.stats.unweighted() < 24);
    }

    #[test]
    fn color_shape_conjunction_matches_reference_semantics() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let fast = garlic.top_k(&q, 3).unwrap();

        // Reference: naive evaluation of the same semantics.
        let color = f
            .qbic
            .evaluate(&AtomicQuery::new("AlbumColor", Target::text("red")))
            .unwrap();
        let shape = f
            .qbic
            .evaluate(&AtomicQuery::new("Shape", Target::text("round")))
            .unwrap();
        let slow = naive_topk(&[color, shape], &min_agg(), 3).unwrap();
        assert!(fast.answers.same_grades(&slow, 1e-12));
    }

    #[test]
    fn disjunction_executes_b0_with_mk_cost() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::or(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let result = garlic.top_k(&q, 3).unwrap();
        assert_eq!(result.stats.sorted, 6);
        assert_eq!(result.stats.random, 0);
    }

    #[test]
    fn negated_query_executes_naive_and_matches_semantics() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let a = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let q = GarlicQuery::and(a.clone(), GarlicQuery::not(a));
        let result = garlic.top_k(&q, 1).unwrap();
        // The winner's grade is min(g, 1-g) <= 1/2 (Section 7).
        assert!(result.answers.best().unwrap().grade <= Grade::HALF);
        assert!(matches!(result.plan.strategy, Strategy::NaiveCalculus));
    }

    #[test]
    fn nested_positive_query_via_fa_generic_matches_naive() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::or(
                GarlicQuery::atom("Shape", Target::text("round")),
                GarlicQuery::atom("Review", Target::terms(&["rock"])),
            ),
        );
        let fast = garlic.top_k(&q, 3).unwrap();
        assert!(matches!(fast.plan.strategy, Strategy::FaGeneric));

        // Reference: naive with the same compound aggregation.
        let atoms = q.atoms();
        let sources: Vec<_> = atoms
            .iter()
            .map(|a| garlic.catalog().evaluate(a).unwrap())
            .collect();
        let agg = QueryAggregation::new(&q, &atoms);
        let slow = naive_topk(&sources, &agg, 3).unwrap();
        assert!(fast.answers.same_grades(&slow, 1e-12));
    }

    #[test]
    fn internal_pushdown_differs_from_garlic_semantics() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );

        let external = f.garlic().top_k(&q, 12).unwrap();

        let mut cat = Catalog::new();
        cat.register(f.qbic.clone()).unwrap();
        let internal_garlic = Garlic::with_options(
            cat,
            PlannerOptions {
                prefer_internal: true,
                ..Default::default()
            },
        );
        let internal = internal_garlic.top_k(&q, 12).unwrap();
        assert!(matches!(
            internal.plan.strategy,
            Strategy::InternalPushdown { .. }
        ));

        // Same objects, but the grades differ: product vs min (Section 8).
        let min_grades = external.answers.grades();
        let prod_grades = internal.answers.grades();
        assert_ne!(min_grades, prod_grades);
    }

    #[test]
    fn paged_batches_equal_one_shot() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );

        let (batches, _) = paged(&garlic, &q, &[3, 3, 3]);
        assert_eq!(batches.len(), 3);
        let oneshot = garlic.top_k(&q, 9).unwrap();
        let mut paged: Vec<Grade> = Vec::new();
        for b in &batches {
            paged.extend(b.grades());
        }
        assert_eq!(paged.len(), 9);
        for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
            assert!(got.approx_eq(want, 1e-12));
        }
    }

    #[test]
    fn paged_batches_work_for_filtered_strategy_too() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("AlbumColor", Target::text("red")),
        );
        let (batches, _) = paged(&garlic, &q, &[2, 2]);
        let oneshot = garlic.top_k(&q, 4).unwrap();
        let mut paged: Vec<Grade> = Vec::new();
        for b in &batches {
            paged.extend(b.grades());
        }
        for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
            assert!(got.approx_eq(want, 1e-12));
        }
    }

    #[test]
    fn a0_family_paging_cost_equals_one_evaluation_at_cumulative_k() {
        // The acceptance property of the resumable engine sessions: paging
        // k1 + k2 + ... costs exactly the sorted accesses of ONE evaluation
        // at the cumulative k ("continue where we left off", Section 4),
        // and in total no more than plain A₀ kept alive over the same
        // pages — the bound A₀′ paging is held to (its pivot may move
        // between pages, so one A₀′ run at the cumulative k is not a bound).
        let f = Fixture::new();
        let garlic = f.garlic();
        for (label, q) in [
            (
                "FaMin",
                GarlicQuery::and(
                    GarlicQuery::atom("AlbumColor", Target::text("red")),
                    GarlicQuery::atom("Shape", Target::text("round")),
                ),
            ),
            (
                "FaGeneric",
                GarlicQuery::and(
                    GarlicQuery::atom("AlbumColor", Target::text("red")),
                    GarlicQuery::or(
                        GarlicQuery::atom("Shape", Target::text("round")),
                        GarlicQuery::atom("Review", Target::terms(&["rock"])),
                    ),
                ),
            ),
        ] {
            let (batches, paged_stats) = paged(&garlic, &q, &[2, 3, 4]);
            let oneshot = garlic.top_k(&q, 9).unwrap();

            // Same answers at every boundary...
            let paged: Vec<Grade> = batches.iter().flat_map(|b| b.grades()).collect();
            for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
                assert!(got.approx_eq(want, 1e-12), "{label}");
            }
            // ...the one-shot sorted cost, exactly...
            let mut session = garlic.open_session(&QueryRequest::new(&q, 9)).unwrap();
            for b in [2usize, 3, 4] {
                session.next_batch(b).unwrap();
            }
            assert_eq!(session.returned(), 9, "{label}");
            assert_eq!(session.stats(), paged_stats, "{label}");
            assert_eq!(paged_stats.sorted, oneshot.stats.sorted, "{label}");

            // ...and never more random accesses than plain A₀ paged alike.
            let atoms = q.atoms();
            let mut a0 = EngineSession::new(
                counted_atoms(garlic.catalog(), &atoms).unwrap(),
                QueryAggregation::new(&q, &atoms),
            )
            .unwrap();
            for b in [2usize, 3, 4] {
                a0.next_batch(b).unwrap();
            }
            let a0_stats = total_stats(a0.sources());
            assert_eq!(paged_stats.sorted, a0_stats.sorted, "{label}");
            assert!(paged_stats.random <= a0_stats.random, "{label}");
        }
    }

    #[test]
    fn single_page_entry_points_reject_k_above_n_and_paging_clamps() {
        let f = Fixture::new();
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let mut strategies = std::collections::HashSet::new();
        for (opts, q) in one_query_per_strategy() {
            let garlic = Garlic::with_options(f.garlic().catalog().clone(), opts);
            let n = garlic.catalog().universe_size();
            let strategy = garlic.plan_for(&q, n).unwrap().strategy;
            strategies.insert(std::mem::discriminant(&strategy));
            let too_large = |r: Result<TopK, MiddlewareError>| match r {
                Err(MiddlewareError::TopK(TopKError::KTooLarge { k, n: got })) => {
                    assert_eq!((k, got), (n + 1, n), "{strategy:?}")
                }
                other => panic!("{strategy:?}: expected KTooLarge, got {other:?}"),
            };
            for deadline in [None, Some(far)] {
                for trace in [false, true] {
                    let request = |k| QueryRequest {
                        deadline,
                        trace,
                        ..QueryRequest::new(&q, k)
                    };
                    assert_eq!(
                        garlic.run(&request(n)).unwrap().answers.len(),
                        n,
                        "{strategy:?}"
                    );
                    too_large(garlic.run(&request(n + 1)).map(|r| r.answers));
                }
            }
            too_large(garlic.top_k(&q, n + 1).map(|r| r.answers));
            let (pages, _) = paged(&garlic, &q, &[n, 1]);
            assert_eq!((pages[0].len(), pages[1].len()), (n, 0), "{strategy:?}");
        }
        assert_eq!(strategies.len(), 7, "every strategy exercised");

        let garlic = f.garlic();
        let n = garlic.catalog().universe_size();
        let atom = AtomicQuery::new("AlbumColor", Target::text("red"));
        assert!(matches!(
            weighted(&garlic, &[(atom, 1.0)], n + 1),
            Err(MiddlewareError::TopK(TopKError::KTooLarge { .. }))
        ));
    }

    #[test]
    fn paged_batches_work_for_naive_calculus_without_reevaluation() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let a = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let q = GarlicQuery::and(a.clone(), GarlicQuery::not(a));
        assert!(matches!(
            garlic.plan_for(&q, 6).unwrap().strategy,
            Strategy::NaiveCalculus
        ));

        let (batches, stats) = paged(&garlic, &q, &[3, 3]);
        let oneshot = garlic.top_k(&q, 6).unwrap();
        let paged: Vec<Grade> = batches.iter().flat_map(|b| b.grades()).collect();
        for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
            assert!(got.approx_eq(want, 1e-12));
        }
        // The naive scan costs m·N regardless of k: paging pays it once.
        assert_eq!(stats, oneshot.stats);
    }

    #[test]
    fn paged_batches_work_for_b0_at_mk_cumulative_cost() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::or(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let (batches, stats) = paged(&garlic, &q, &[2, 2, 2]);
        let oneshot = garlic.top_k(&q, 6).unwrap();
        let paged: Vec<Grade> = batches.iter().flat_map(|b| b.grades()).collect();
        assert_eq!(paged.len(), 6);
        for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
            assert!(got.approx_eq(want, 1e-12));
        }
        // Exactly m·(cumulative k) sorted accesses, no random access — the
        // same cost as the one evaluation at k = 6.
        assert_eq!(stats, oneshot.stats);
        assert_eq!(stats.sorted, 2 * 6);
        assert_eq!(stats.random, 0);
    }

    #[test]
    fn paged_batches_work_for_internal_pushdown() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let mut cat = Catalog::new();
        cat.register(f.qbic.clone()).unwrap();
        let garlic = Garlic::with_options(
            cat,
            PlannerOptions {
                prefer_internal: true,
                ..Default::default()
            },
        );
        assert!(matches!(
            garlic.plan_for(&q, 4).unwrap().strategy,
            Strategy::InternalPushdown { .. }
        ));
        let (batches, stats) = paged(&garlic, &q, &[2, 2]);
        let oneshot = garlic.top_k(&q, 4).unwrap();
        let paged: Vec<Grade> = batches.iter().flat_map(|b| b.grades()).collect();
        for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
            assert!(got.approx_eq(want, 1e-12));
        }
        // One fused list: cumulative k sorted accesses, like the one-shot.
        assert_eq!(stats, oneshot.stats);
        assert_eq!(stats.sorted, 4);
    }

    #[test]
    fn paged_batches_work_for_nnf_pushdown() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::not(GarlicQuery::atom("Shape", Target::text("round"))),
        );
        let mut cat = Catalog::new();
        cat.register(f.rel.clone()).unwrap();
        cat.register(f.qbic.clone()).unwrap();
        cat.register(f.text.clone()).unwrap();
        let garlic = Garlic::with_options(
            cat,
            PlannerOptions {
                negation_pushdown: true,
                ..Default::default()
            },
        );
        assert!(matches!(
            garlic.plan_for(&q, 6).unwrap().strategy,
            Strategy::FaNnf
        ));
        let (batches, _) = paged(&garlic, &q, &[3, 3]);
        let oneshot = garlic.top_k(&q, 6).unwrap();
        let paged: Vec<Grade> = batches.iter().flat_map(|b| b.grades()).collect();
        assert_eq!(paged.len(), 6);
        for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
            assert!(got.approx_eq(want, 1e-12));
        }
    }

    #[test]
    fn session_streams_batches_on_demand() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let mut session = garlic.open_session(&QueryRequest::new(&q, 12)).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        loop {
            let batch = session.next_batch(5).unwrap();
            if batch.is_empty() {
                break;
            }
            for e in batch.entries() {
                assert!(seen.insert(e.object), "object repeated across batches");
            }
            total += batch.len();
        }
        assert_eq!(total, 12);
        assert_eq!(session.returned(), 12);
        assert!(session.next_batch(0).is_err());
    }

    #[test]
    fn paged_batches_clamp_at_universe() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let (batches, _) = paged(&garlic, &q, &[10, 10]);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 12); // N = 12
        let mut session = garlic.open_session(&QueryRequest::new(&q, 0)).unwrap();
        assert!(matches!(
            session.next_batch(0),
            Err(MiddlewareError::TopK(TopKError::ZeroK))
        ));
        assert!(matches!(
            garlic.top_k(&q, 0),
            Err(MiddlewareError::TopK(TopKError::ZeroK))
        ));
    }

    #[test]
    fn weighted_conjunction_reweights_the_ranking() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let color = AtomicQuery::new("AlbumColor", Target::text("red"));
        let shape = AtomicQuery::new("Shape", Target::text("round"));

        // Equal weights recover the unweighted min conjunction.
        let equal = weighted(&garlic, &[(color.clone(), 1.0), (shape.clone(), 1.0)], 12).unwrap();
        let unweighted = garlic
            .top_k(
                &GarlicQuery::and(
                    GarlicQuery::Atom(color.clone()),
                    GarlicQuery::Atom(shape.clone()),
                ),
                12,
            )
            .unwrap();
        assert!(equal.answers.same_grades(&unweighted.answers, 1e-9));

        // "Color twice as important as shape": grades must differ from the
        // unweighted ones, and match the naive FW reference.
        let weighted =
            weighted(&garlic, &[(color.clone(), 2.0), (shape.clone(), 1.0)], 12).unwrap();
        assert_ne!(weighted.answers.grades(), unweighted.answers.grades());
        assert_eq!(
            weighted.plan.description(),
            "weighted conjunction of 2 atoms with weights [2.0, 1.0] under the \
             Fagin-Wimmers rule (FW97); monotone, evaluated by A0"
        );

        let sources = vec![
            garlic.catalog().evaluate(&color).unwrap(),
            garlic.catalog().evaluate(&shape).unwrap(),
        ];
        let agg = garlic_agg::weighted::FaginWimmers::new(min_agg(), &[2.0, 1.0]);
        let reference = naive_topk(&sources, &agg, 12).unwrap();
        assert!(weighted.answers.same_grades(&reference, 1e-9));
    }

    #[test]
    fn weighted_conjunction_rejects_bad_weights() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let color = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let shape = GarlicQuery::atom("Shape", Target::text("round"));
        let rejected = |q: &GarlicQuery, weights: &[f64]| {
            let request = QueryRequest {
                weights,
                ..QueryRequest::new(q, 1)
            };
            matches!(
                garlic.run(&request),
                Err(MiddlewareError::Unsupported { .. })
            )
        };
        assert!(rejected(&color, &[1.0, 2.0])); // one weight per conjunct
        assert!(rejected(&color, &[-1.0]));
        assert!(rejected(&color, &[0.0]));
        assert!(rejected(&color, &[f64::NAN]));
        // Only a flat conjunction of distinct atoms can be weighted.
        let either = GarlicQuery::or(color.clone(), shape.clone());
        assert!(rejected(&either, &[1.0, 1.0]));
        let twice = GarlicQuery::and(color.clone(), color.clone());
        assert!(rejected(&twice, &[1.0, 1.0]));
        assert!(!rejected(&GarlicQuery::and(color, shape), &[1.0, 1.0]));
    }

    #[test]
    fn negation_pushdown_matches_naive_calculus() {
        let f = Fixture::new();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::not(GarlicQuery::atom("Shape", Target::text("round"))),
        );

        let naive = f.garlic().top_k(&q, 5).unwrap();
        assert!(matches!(naive.plan.strategy, Strategy::NaiveCalculus));

        let mut cat = Catalog::new();
        cat.register(f.rel.clone()).unwrap();
        cat.register(f.qbic.clone()).unwrap();
        cat.register(f.text.clone()).unwrap();
        let pushdown = Garlic::with_options(
            cat,
            PlannerOptions {
                negation_pushdown: true,
                ..Default::default()
            },
        )
        .top_k(&q, 5)
        .unwrap();
        assert!(matches!(pushdown.plan.strategy, Strategy::FaNnf));
        assert!(pushdown.answers.same_grades(&naive.answers, 1e-12));
    }

    #[test]
    fn hard_query_via_pushdown_still_correct() {
        let f = Fixture::new();
        let red = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let hard = GarlicQuery::and(red.clone(), GarlicQuery::not(red));

        let naive = f.garlic().top_k(&hard, 2).unwrap();

        let mut cat = Catalog::new();
        cat.register(f.rel.clone()).unwrap();
        cat.register(f.qbic.clone()).unwrap();
        cat.register(f.text.clone()).unwrap();
        let pushdown = Garlic::with_options(
            cat,
            PlannerOptions {
                negation_pushdown: true,
                ..Default::default()
            },
        )
        .top_k(&hard, 2)
        .unwrap();
        assert!(pushdown.answers.same_grades(&naive.answers, 1e-12));
        assert!(pushdown.answers.best().unwrap().grade <= Grade::HALF);
    }

    #[test]
    fn plan_for_without_execution() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::atom("Artist", Target::text("Kinks"));
        let plan = garlic.plan_for(&q, 2).unwrap();
        let text = format!("{plan}");
        assert!(text.contains("strategy"));
        assert!(text.contains("Kinks"));
    }

    #[test]
    fn explain_executes_and_traces_per_source_costs() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let (result, ex) = traced(&garlic, &q, 3);

        // Same ranking as the plain execution path.
        let plain = garlic.top_k(&q, 3).unwrap();
        assert_eq!(result.answers.entries(), plain.answers.entries());
        assert_eq!(result.plan.strategy, plain.plan.strategy);

        // The per-source totals are the billed totals, bit for bit.
        assert_eq!(summed(&ex), result.stats);
        assert_eq!(ex.per_source.len(), 2);

        // The rendered trace carries the plan, the engine phases, and one
        // span per source with exactly those counts.
        let text = ex.to_string();
        assert!(text.contains("plan: FaMin"));
        assert!(ex.trace.find("engine").is_some());
        for (i, (label, s)) in ex.per_source.iter().enumerate() {
            let span = ex
                .trace
                .find(&format!("source[{i}] \"{label}\""))
                .expect("source span");
            assert_eq!(span.get_field("S"), Some(s.sorted.to_string().as_str()));
            assert_eq!(span.get_field("R"), Some(s.random.to_string().as_str()));
        }
    }

    #[test]
    fn explain_traces_materialized_strategies() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let a = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let q = GarlicQuery::and(a.clone(), GarlicQuery::not(a));
        let (result, ex) = traced(&garlic, &q, 2);
        assert!(matches!(result.plan.strategy, Strategy::NaiveCalculus));
        // The scan is an engine run like any other: every list read to N.
        let engine = ex.trace.find("engine").expect("engine span");
        let n = garlic.catalog().universe_size();
        assert_eq!(engine.get_field("depth"), Some(n.to_string().as_str()));
        assert_eq!(summed(&ex), result.stats);

        // Filtered: the crisp match set is labelled in place.
        let filtered = GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("AlbumColor", Target::text("red")),
        );
        let (result, ex) = traced(&garlic, &filtered, 2);
        assert!(matches!(result.plan.strategy, Strategy::Filtered { .. }));
        assert!(ex.per_source.iter().any(|(l, _)| l.ends_with("(crisp)")));
        assert_eq!(summed(&ex), result.stats);
    }

    #[test]
    fn explain_appends_registry_deltas_when_telemetry_attached() {
        let f = Fixture::new();
        let telemetry = garlic_telemetry::Telemetry::new();
        telemetry.register_collector({
            let calls = std::sync::atomic::AtomicU64::new(0);
            move |out| {
                out.push(garlic_telemetry::MetricEntry {
                    name: "probe.calls".into(),
                    value: MetricValue::Counter(
                        calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1,
                    ),
                });
            }
        });
        let garlic = f.garlic().with_telemetry(Arc::clone(&telemetry));
        let q = GarlicQuery::atom("AlbumColor", Target::text("red"));
        let (_, ex) = traced(&garlic, &q, 2);
        // The collector's counter advanced between the two snapshots, so
        // the delta span surfaces it.
        let span = ex.trace.find("telemetry").expect("delta span");
        assert_eq!(span.get_field("probe.calls"), Some("1"));
    }

    /// The request matrix, as one table: under every strategy the planner
    /// can pick, a deadline and a trace change nothing about the answers
    /// or the bill, and every request is one `middleware.queries`; a
    /// weighted conjunction takes the same options, pages through its
    /// session and is served by the service like any other request.
    #[test]
    fn deadline_trace_and_weights_compose_with_every_strategy() {
        let f = Fixture::new();
        let telemetry = Telemetry::new();
        let queries = || telemetry.snapshot().counter("middleware.queries");
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let check = |garlic: &Garlic, plain: &QueryResult, base: QueryRequest<'_>| {
            for deadline in [None, Some(far)] {
                for trace in [false, true] {
                    let label = format!("{:?} {deadline:?} trace={trace}", plain.plan.strategy);
                    let before = queries();
                    let request = QueryRequest {
                        deadline,
                        trace,
                        ..base
                    };
                    let got = garlic.run(&request).unwrap();
                    assert_eq!(queries(), before + 1, "{label}");
                    assert_eq!(got.answers.entries(), plain.answers.entries(), "{label}");
                    assert_eq!(got.stats, plain.stats, "{label}");
                    assert_eq!(got.plan.strategy, plain.plan.strategy, "{label}");
                    assert_eq!(got.explain.is_some(), trace, "{label}");
                    if let Some(explain) = &got.explain {
                        assert_eq!(summed(explain), got.stats, "{label}");
                    }
                }
            }
        };

        let mut strategies = std::collections::HashSet::new();
        for (opts, q) in one_query_per_strategy() {
            let garlic = Garlic::with_options(f.garlic().catalog().clone(), opts)
                .with_telemetry(Arc::clone(&telemetry));
            let plain = garlic.top_k(&q, 3).unwrap();
            strategies.insert(std::mem::discriminant(&plain.plan.strategy));
            check(&garlic, &plain, QueryRequest::new(&q, 3));
        }
        assert_eq!(strategies.len(), 7, "every strategy exercised");

        // Weighted × {far deadline, trace}.
        let garlic = f.garlic().with_telemetry(Arc::clone(&telemetry));
        let q = GarlicQuery::and(
            GarlicQuery::atom("AlbumColor", Target::text("red")),
            GarlicQuery::atom("Shape", Target::text("round")),
        );
        let request = QueryRequest {
            weights: &[2.0, 1.0],
            ..QueryRequest::new(&q, 9)
        };
        let plain = garlic.run(&request).unwrap();
        assert_eq!(plain.plan.weights, [2.0, 1.0]);
        assert_ne!(
            plain.answers.grades(),
            garlic.top_k(&q, 9).unwrap().answers.grades()
        );
        check(&garlic, &plain, request);

        // Weighted × paged: [2, 3, 4] on the request's session is one
        // page of 9, at the one page's sorted cost.
        let mut session = garlic.open_session(&request).unwrap();
        let pages: Vec<Grade> = [2, 3, 4]
            .iter()
            .flat_map(|&k| session.next_batch(k).unwrap().grades())
            .collect();
        assert_eq!(pages, plain.answers.grades());
        assert_eq!(session.stats().sorted, plain.stats.sorted);

        // Weighted × served: the service's deadline reaches it.
        let service = crate::GarlicService::with_threads(garlic, 1);
        let served = service.run(&request).unwrap();
        assert_eq!(served.answers.entries(), plain.answers.entries());
        assert!(matches!(
            service
                .with_deadline(std::time::Duration::ZERO)
                .run(&request),
            Err(MiddlewareError::DeadlineExceeded)
        ));
    }

    /// `bench_e2e` keeps every `QueryResult` of a run alive and reads peak
    /// RSS: the result may carry one pointer for the optional trace on top
    /// of the 160 bytes it had before the request API, and no more.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn query_result_grew_by_at_most_one_pointer() {
        assert!(std::mem::size_of::<QueryResult>() <= 160 + 8);
    }
}
