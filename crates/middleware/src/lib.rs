//! # garlic-middleware — the Garlic analogue
//!
//! The middleware of the paper: it holds a [`catalog::Catalog`] of
//! subsystems, plans a [`exec::QueryRequest`] over their attributes
//! ([`plan::plan`]), and executes the plan with full cost accounting
//! ([`exec::Garlic::run`]; [`exec::Garlic::top_k`] for the plain request).
//!
//! The planner implements the full Section 4/8 strategy catalogue: the
//! filtered "Beatles" strategy, A₀′ for conjunctions, B₀ for disjunctions,
//! A₀-with-compound-aggregation for arbitrary positive queries, the naive
//! scan for negations, and Section 8 internal-conjunction pushdown.
//!
//! The whole stack is built for the paper's *multi-user* setting: the
//! [`catalog::Catalog`] owns its subsystems as `Arc` handles and is
//! cheaply cloneable, [`exec::Garlic`] and [`exec::QuerySession`] are
//! `'static` and `Send + Sync`, and [`service::GarlicService`] executes
//! batches of independent queries concurrently over one shared catalog —
//! with per-query Section 5 access counts identical to sequential
//! execution.
//!
//! ```
//! use garlic_middleware::{Catalog, Garlic, GarlicQuery, GarlicService, QueryRequest};
//! use garlic_subsys::{cd_store::demo_subsystems, Target};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (rel, qbic, text) = demo_subsystems(&mut rng);
//! let mut catalog = Catalog::new();
//! catalog.register(rel).unwrap();
//! catalog.register(qbic).unwrap();
//! catalog.register(text).unwrap();
//!
//! let garlic = Garlic::new(catalog);
//! let query = GarlicQuery::and(
//!     GarlicQuery::atom("Artist", Target::text("Beatles")),
//!     GarlicQuery::atom("AlbumColor", Target::text("red")),
//! );
//! let result = garlic.top_k(&query, 2).unwrap();
//! assert_eq!(result.answers.len(), 2);
//!
//! // The same middleware, as a concurrent multi-query service:
//! let service = GarlicService::new(garlic);
//! let batch = [QueryRequest::new(&query, 2), QueryRequest::new(&query, 1)];
//! let results = service.serve_batch(&batch);
//! assert_eq!(results[0].as_ref().unwrap().answers.len(), 2);
//! assert_eq!(results[1].as_ref().unwrap().answers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod query;
pub mod service;

pub use catalog::Catalog;
pub use error::{MiddlewareError, QueryError};
pub use exec::{EngineDetails, Explain, Garlic, QueryRequest, QueryResult, QuerySession};
pub use parser::{parse_query, ParseError};
pub use plan::{Plan, PlannerOptions, Strategy};
pub use query::{GarlicQuery, QueryAggregation};
pub use service::GarlicService;

// Re-exported so downstream callers can attach a registry and consume
// traces without naming the telemetry crate themselves.
pub use garlic_telemetry::{QueryTrace, Telemetry, TelemetrySnapshot};
