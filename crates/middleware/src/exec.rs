//! The executor: runs a [`Plan`] against the catalog's subsystems, through
//! counting sources so every answer comes back with its Section 5
//! middleware cost.
//!
//! There is one execution path. A plan is executed by opening its
//! [`QuerySession`] — a resumable session of the core engine, one per
//! strategy — arming the caller's deadline on it, and pulling pages:
//! [`Garlic::top_k`], [`Garlic::explain`] and [`Garlic::top_k_weighted`]
//! pull one, [`Garlic::top_k_paged`] pulls several, and a caller holding
//! the session from [`Garlic::open_session`] pulls as many as it likes.
//! "The top k" is the first page of "continue where we left off"
//! (Section 4), so what EXPLAIN traces is what `top_k` runs and bills.
//! No source is accessed before the first page is asked for.
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
use garlic_core::algorithms::engine::{B0Session, EngineProfile, EngineSession};
use garlic_core::algorithms::filtered::FilteredSession;
use garlic_core::complement::ComplementSource;
use garlic_core::{AccessStats, GradedSource, TopK, TopKError};
use garlic_subsys::AtomicQuery;
use garlic_telemetry::{MetricValue, QueryTrace, Span, SpanTimer, Telemetry};

use crate::catalog::Catalog;
use crate::error::MiddlewareError;
use crate::plan::{plan, plan_weighted, Plan, PlannerOptions, Strategy};
use crate::query::{GarlicQuery, NnfAggregation, QueryAggregation};

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
) -> Result<(Vec<Counted>, NnfAggregation), MiddlewareError> {
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
    Ok((sources, NnfAggregation::new(nnf)))
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
}

/// An executed EXPLAIN: the plan, the answers it produced, the billed
/// Section 5 cost, and the per-query execution trace.
///
/// The trace's `source[i]` spans are rendered from the same
/// [`CountingSource`] totals `stats` sums over — the per-source counts in
/// the trace are **bit-equal to the billed totals by construction**, not
/// re-derived estimates (pinned by the `explain_equivalence` suite).
#[derive(Debug, Clone)]
pub struct Explain {
    /// The plan the planner chose.
    pub plan: Plan,
    /// The answers the traced execution produced — entry for entry what
    /// [`Garlic::top_k`] returns.
    pub answers: TopK,
    /// Total billed middleware cost of the traced execution — what
    /// [`Garlic::top_k`] bills.
    pub stats: AccessStats,
    /// Per-source `(label, cost)` pairs, in source order — the exact
    /// [`CountingSource`] totals, summing to `stats`.
    pub per_source: Vec<(String, AccessStats)>,
    /// The execution trace (plan decision, engine phases, per-source
    /// costs, storage counter deltas when telemetry is attached).
    pub trace: QueryTrace,
    /// Whether some source served a degraded stream — see
    /// [`QueryResult::degraded`].
    pub degraded: bool,
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

    /// Attaches a metrics registry (builder style). Query entry points
    /// then record `middleware.queries` and the
    /// `middleware.query_latency_ns` histogram — one registry check per
    /// query, never per entry — and [`Garlic::explain`] appends a span of
    /// registry counter deltas to its trace.
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

    /// Plans without executing (the zero-cost half of EXPLAIN; see
    /// [`Garlic::explain`] for the traced, executing form).
    pub fn plan_for(&self, query: &GarlicQuery, k: usize) -> Result<Plan, MiddlewareError> {
        plan(&self.catalog, query, k, self.options)
    }

    /// Starts one query's clock — only when a registry is attached.
    fn query_timer(&self) -> Option<SpanTimer> {
        self.telemetry.as_ref().map(|_| SpanTimer::start())
    }

    /// The one recorder of `middleware.queries` / `.query_latency_ns`:
    /// every entry point that executes calls it once, after success.
    fn record_query(&self, timer: Option<SpanTimer>) {
        if let (Some(t), Some(timer)) = (&self.telemetry, timer) {
            t.counter("middleware.queries").inc();
            t.histogram("middleware.query_latency_ns")
                .record(timer.elapsed_ns());
        }
    }

    /// The one execution path: opens the plan's session, arms the
    /// deadline, and pulls one page per entry of `pages`.
    fn run(
        &self,
        query: &GarlicQuery,
        plan: &Plan,
        pages: &[usize],
        deadline: Option<Instant>,
    ) -> Result<(Vec<TopK>, QuerySession), MiddlewareError> {
        let mut session = plan.open_session(&self.catalog, query)?;
        session.set_deadline(deadline);
        let pages = pages
            .iter()
            .map(|&k| session.next_batch(k))
            .collect::<Result<_, _>>()?;
        Ok((pages, session))
    }

    /// [`Garlic::run`] for the entry points that ask for exactly "the top
    /// `k`": one page, and `k > N` is an error rather than a short page.
    fn run_one(
        &self,
        query: &GarlicQuery,
        plan: Plan,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<(QueryResult, QuerySession), MiddlewareError> {
        if k > plan.n {
            return Err(TopKError::KTooLarge { k, n: plan.n }.into());
        }
        let (mut pages, session) = self.run(query, &plan, &[k], deadline)?;
        let result = QueryResult {
            answers: pages.pop().expect("one page was asked for"),
            stats: session.stats(),
            plan,
            degraded: session.degraded(),
        };
        Ok((result, session))
    }

    /// EXPLAIN ANALYZE: plans, executes, and returns the answers together
    /// with a per-query trace — the plan decision, engine phase timings,
    /// per-source Section 5 access counts (bit-equal to the billed
    /// [`CountingSource`] totals), and, when telemetry is attached, the
    /// storage counter deltas the query caused. The execution traced is
    /// the one [`Garlic::top_k`] performs: same answers, same bill.
    pub fn explain(&self, query: &GarlicQuery, k: usize) -> Result<Explain, MiddlewareError> {
        self.explain_with_deadline(query, k, None)
    }

    /// [`Garlic::explain`] with a cooperative deadline: the engine checks
    /// it between batch rounds and fails with
    /// [`MiddlewareError::DeadlineExceeded`] once it passes, leaving
    /// every source consistent.
    pub fn explain_with_deadline(
        &self,
        query: &GarlicQuery,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<Explain, MiddlewareError> {
        let timer = self.query_timer();
        let plan_timer = SpanTimer::start();
        let plan = self.plan_for(query, k)?;
        let plan_ns = plan_timer.elapsed_ns();

        let before = self.telemetry.as_ref().map(|t| t.snapshot());
        let exec_timer = SpanTimer::start();
        let (result, session) = self.run_one(query, plan, k, deadline)?;
        let exec_ns = exec_timer.elapsed_ns();
        let QueryResult {
            answers,
            stats,
            plan,
            degraded,
        } = result;
        let per_source = session.per_source_stats(&plan, query);

        let mut root = Span::new(format!("query: {query} top-{k}"));
        let mut plan_span = Span::new(format!("plan: {:?}", plan.strategy));
        plan_span.duration_ns = Some(plan_ns);
        plan_span.add_field("atoms", plan.atoms.len());
        plan_span.add_field("estimated_cost", format!("{:.1}", plan.estimated_cost));
        root.push(plan_span);

        let mut exec = Span::new("execute");
        exec.duration_ns = Some(exec_ns);
        exec.add_field("answers", answers.len());
        exec.add_field("S", stats.sorted);
        exec.add_field("R", stats.random);

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
        root.push(exec);
        self.record_query(timer);

        Ok(Explain {
            plan,
            answers,
            stats,
            per_source,
            trace: QueryTrace::new(root),
            degraded,
        })
    }

    /// Plans and executes a top-k query.
    pub fn top_k(&self, query: &GarlicQuery, k: usize) -> Result<QueryResult, MiddlewareError> {
        self.top_k_with_deadline(query, k, None)
    }

    /// [`Garlic::top_k`] with a cooperative deadline. The engine checks
    /// the deadline once per batch round — the first check comes before
    /// any source is accessed, whatever the strategy — and when it passes
    /// the query fails with [`MiddlewareError::DeadlineExceeded`] instead
    /// of running away.
    pub fn top_k_with_deadline(
        &self,
        query: &GarlicQuery,
        k: usize,
        deadline: Option<Instant>,
    ) -> Result<QueryResult, MiddlewareError> {
        let timer = self.query_timer();
        let plan = self.plan_for(query, k)?;
        let (result, _) = self.run_one(query, plan, k, deadline)?;
        self.record_query(timer);
        Ok(result)
    }

    /// Opens a resumable [`QuerySession`] for a query: every strategy in
    /// the Section 4/8 catalogue pages through its ranked result set batch
    /// by batch, never repeating an object and never re-evaluating.
    /// `k_hint` is the anticipated cumulative result size, used only for
    /// planning estimates.
    pub fn open_session(
        &self,
        query: &GarlicQuery,
        k_hint: usize,
    ) -> Result<QuerySession, MiddlewareError> {
        self.plan_for(query, k_hint.max(1))?
            .open_session(&self.catalog, query)
    }

    /// Pages through a query's ranked result set: returns one [`TopK`] per
    /// requested batch size, never repeating an object, plus the *total*
    /// middleware cost. Pages past the `N`-th object come back short, then
    /// empty. The A₀ family "continues where it left off" (Section 4), so
    /// its cumulative sorted cost equals a single evaluation at the
    /// cumulative k; B₀-family paging costs `m·k` cumulative; the filtered
    /// and naive strategies — whose evaluation cost does not depend on k —
    /// pay it on the first page and cut later pages from what they graded.
    pub fn top_k_paged(
        &self,
        query: &GarlicQuery,
        batches: &[usize],
    ) -> Result<(Vec<TopK>, AccessStats), MiddlewareError> {
        if batches.contains(&0) {
            return Err(MiddlewareError::TopK(TopKError::ZeroK));
        }
        let total: usize = batches.iter().sum();
        let total = total.min(self.catalog.universe_size());

        let timer = self.query_timer();
        let plan = self.plan_for(query, total.max(1))?;
        let (pages, session) = self.run(query, &plan, batches, None)?;
        self.record_query(timer);
        Ok((pages, session.stats()))
    }

    /// A *weighted* conjunction of atomic queries (Section 4's pointer to
    /// \[FW97\]: "the user decides that color is twice as important to him
    /// as shape"). Weights are non-negative with a positive sum; the
    /// aggregation is the Fagin–Wimmers weighting of min, which is
    /// monotone, so algorithm A₀ applies unchanged.
    pub fn top_k_weighted(
        &self,
        weighted_atoms: &[(AtomicQuery, f64)],
        k: usize,
    ) -> Result<QueryResult, MiddlewareError> {
        let timer = self.query_timer();
        let plan = plan_weighted(&self.catalog, weighted_atoms, k)?;
        // The conjunction the weights annotate; the plan's weights, not
        // this query's connectives, choose the aggregation.
        let query = plan
            .atoms
            .iter()
            .cloned()
            .map(GarlicQuery::Atom)
            .reduce(GarlicQuery::and)
            .expect("a weighted plan has at least one conjunct");
        let (result, _) = self.run_one(&query, plan, k, None)?;
        self.record_query(timer);
        Ok(result)
    }
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
    /// Opens the plan's resumable session (see [`QuerySession`]): asks the
    /// subsystems for their answer handles and wraps them in meters, but
    /// accesses nothing — every strategy does its first access on its
    /// first page.
    pub(crate) fn open_session(
        &self,
        catalog: &Catalog,
        query: &GarlicQuery,
    ) -> Result<QuerySession, MiddlewareError> {
        let atoms = &self.atoms[..];
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
            Strategy::B0Max => SessionKind::B0(B0Session::new(counted_atoms(catalog, atoms)?)?),
            Strategy::InternalPushdown { .. } => {
                SessionKind::B0(B0Session::new(vec![pushdown_source(catalog, atoms)?])?)
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
        Ok(QuerySession { kind })
    }
}

/// A resumable, strategy-agnostic paging session over one planned query —
/// what every [`Garlic`] entry point executes through.
///
/// * A₀-family strategies hold a live [`EngineSession`] — each batch
///   resumes the sorted phase at the stored depth ("continue where we left
///   off", Section 4), so cumulative sorted cost equals one evaluation at
///   the cumulative `k`. The flat min conjunction runs A₀′: a page
///   random-accesses only the pivot list's candidates and leaves the rest
///   of what it has seen for a later page to complete if it must.
/// * B₀-family strategies (flat disjunctions and Section 8 pushdown) hold a
///   [`B0Session`] — paging deepens the per-list prefixes, `m·k` cumulative
///   cost, no random access.
/// * The naive scan (an [`EngineSession`] that reads every list to the
///   end) and the filtered strategy (a [`FilteredSession`]) — whose
///   evaluation cost is independent of `k` — pay it on their first page
///   and cut every later page from the scored set at zero access cost.
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
    B0(B0Session<Counted>),
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
            SessionKind::B0(session) => session.next_batch(k),
            SessionKind::Filtered { session, .. } => session.next_batch(k),
        }
        .map_err(MiddlewareError::from)
    }

    /// How many answers have been handed out so far.
    pub fn returned(&self) -> usize {
        match &self.kind {
            SessionKind::Engine(session) => session.returned(),
            SessionKind::B0(session) => session.returned(),
            SessionKind::Filtered { session, .. } => session.returned(),
        }
    }

    /// The metered graded sources, in source order.
    fn graded(&self) -> &[Counted] {
        match &self.kind {
            SessionKind::Engine(session) => session.sources(),
            SessionKind::B0(session) => session.sources(),
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
            SessionKind::B0(s) => EngineDetails {
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
            SessionKind::B0(session) => session.set_deadline(deadline),
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

        let (batches, _) = garlic.top_k_paged(&q, &[3, 3, 3]).unwrap();
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
        let (batches, _) = garlic.top_k_paged(&q, &[2, 2]).unwrap();
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
            let (batches, paged_stats) = garlic.top_k_paged(&q, &[2, 3, 4]).unwrap();
            let oneshot = garlic.top_k(&q, 9).unwrap();

            // Same answers at every boundary...
            let paged: Vec<Grade> = batches.iter().flat_map(|b| b.grades()).collect();
            for (got, want) in paged.iter().zip(oneshot.answers.grades()) {
                assert!(got.approx_eq(want, 1e-12), "{label}");
            }
            // ...the one-shot sorted cost, exactly...
            let mut session = garlic.open_session(&q, 9).unwrap();
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
        let color = || GarlicQuery::atom("AlbumColor", Target::text("red"));
        let shape = || GarlicQuery::atom("Shape", Target::text("round"));
        let review = || GarlicQuery::atom("Review", Target::terms(&["rock"]));
        let options = |prefer_internal, negation_pushdown| PlannerOptions {
            prefer_internal,
            negation_pushdown,
        };
        let negated = GarlicQuery::and(color(), GarlicQuery::not(shape()));
        let cases = [
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
        ];
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let mut strategies = std::collections::HashSet::new();
        for (opts, q) in cases {
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
                assert_eq!(
                    garlic
                        .top_k_with_deadline(&q, n, deadline)
                        .unwrap()
                        .answers
                        .len(),
                    n,
                    "{strategy:?}"
                );
                too_large(
                    garlic
                        .top_k_with_deadline(&q, n + 1, deadline)
                        .map(|r| r.answers),
                );
                too_large(
                    garlic
                        .explain_with_deadline(&q, n + 1, deadline)
                        .map(|e| e.answers),
                );
            }
            too_large(garlic.top_k(&q, n + 1).map(|r| r.answers));
            too_large(garlic.explain(&q, n + 1).map(|e| e.answers));
            let (pages, _) = garlic.top_k_paged(&q, &[n, 1]).unwrap();
            assert_eq!((pages[0].len(), pages[1].len()), (n, 0), "{strategy:?}");
        }
        assert_eq!(strategies.len(), 7, "every strategy exercised");

        let garlic = f.garlic();
        let n = garlic.catalog().universe_size();
        let atom = AtomicQuery::new("AlbumColor", Target::text("red"));
        assert!(matches!(
            garlic.top_k_weighted(&[(atom, 1.0)], n + 1),
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

        let (batches, stats) = garlic.top_k_paged(&q, &[3, 3]).unwrap();
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
        let (batches, stats) = garlic.top_k_paged(&q, &[2, 2, 2]).unwrap();
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
        let (batches, stats) = garlic.top_k_paged(&q, &[2, 2]).unwrap();
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
        let (batches, _) = garlic.top_k_paged(&q, &[3, 3]).unwrap();
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
        let mut session = garlic.open_session(&q, 12).unwrap();
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
        let (batches, _) = garlic.top_k_paged(&q, &[10, 10]).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, 12); // N = 12
        assert!(garlic.top_k_paged(&q, &[0]).is_err());
    }

    #[test]
    fn weighted_conjunction_reweights_the_ranking() {
        let f = Fixture::new();
        let garlic = f.garlic();
        let color = AtomicQuery::new("AlbumColor", Target::text("red"));
        let shape = AtomicQuery::new("Shape", Target::text("round"));

        // Equal weights recover the unweighted min conjunction.
        let equal = garlic
            .top_k_weighted(&[(color.clone(), 1.0), (shape.clone(), 1.0)], 12)
            .unwrap();
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
        let weighted = garlic
            .top_k_weighted(&[(color.clone(), 2.0), (shape.clone(), 1.0)], 12)
            .unwrap();
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
        let color = AtomicQuery::new("AlbumColor", Target::text("red"));
        assert!(garlic.top_k_weighted(&[], 1).is_err());
        assert!(garlic.top_k_weighted(&[(color.clone(), -1.0)], 1).is_err());
        assert!(garlic.top_k_weighted(&[(color, 0.0)], 1).is_err());
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
        let ex = garlic.explain(&q, 3).unwrap();

        // Same ranking as the plain execution path.
        let plain = garlic.top_k(&q, 3).unwrap();
        assert_eq!(ex.answers.entries(), plain.answers.entries());
        assert_eq!(ex.plan.strategy, plain.plan.strategy);

        // The per-source totals are the billed totals, bit for bit.
        let sum: AccessStats = ex
            .per_source
            .iter()
            .fold(AccessStats::default(), |acc, (_, s)| acc + *s);
        assert_eq!(sum, ex.stats);
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
        let ex = garlic.explain(&q, 2).unwrap();
        assert!(matches!(ex.plan.strategy, Strategy::NaiveCalculus));
        // The scan is an engine run like any other: every list read to N.
        let engine = ex.trace.find("engine").expect("engine span");
        let n = garlic.catalog().universe_size();
        assert_eq!(engine.get_field("depth"), Some(n.to_string().as_str()));
        let sum: AccessStats = ex
            .per_source
            .iter()
            .fold(AccessStats::default(), |acc, (_, s)| acc + *s);
        assert_eq!(sum, ex.stats);

        // Filtered: the crisp match set is labelled in place.
        let filtered = GarlicQuery::and(
            GarlicQuery::atom("Artist", Target::text("Beatles")),
            GarlicQuery::atom("AlbumColor", Target::text("red")),
        );
        let ex = garlic.explain(&filtered, 2).unwrap();
        assert!(matches!(ex.plan.strategy, Strategy::Filtered { .. }));
        assert!(ex.per_source.iter().any(|(l, _)| l.ends_with("(crisp)")));
        let sum: AccessStats = ex
            .per_source
            .iter()
            .fold(AccessStats::default(), |acc, (_, s)| acc + *s);
        assert_eq!(sum, ex.stats);
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
        let ex = garlic.explain(&q, 2).unwrap();
        // The collector's counter advanced between the two snapshots, so
        // the delta span surfaces it.
        let span = ex.trace.find("telemetry").expect("delta span");
        assert_eq!(span.get_field("probe.calls"), Some("1"));

        // Every executing entry point records histogram + counter once:
        // the explain above, the plain path, then both deadline arms, one
        // paged session and one weighted conjunction.
        garlic.top_k(&q, 2).unwrap();
        assert_eq!(telemetry.snapshot().counter("middleware.queries"), 2);
        let far = std::time::Instant::now() + std::time::Duration::from_secs(60);
        garlic.top_k_with_deadline(&q, 2, None).unwrap();
        garlic.top_k_with_deadline(&q, 2, Some(far)).unwrap();
        garlic.top_k_paged(&q, &[1, 1]).unwrap();
        let atom = AtomicQuery::new("AlbumColor", Target::text("red"));
        garlic.top_k_weighted(&[(atom, 1.0)], 2).unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("middleware.queries"), 6);
        match snap.get("middleware.query_latency_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 6),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
