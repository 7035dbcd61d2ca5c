//! Unified telemetry for the Garlic middleware: a metrics registry, latency
//! histograms, and per-query execution traces.
//!
//! The paper's Section 5 cost model prices a query in sorted and random
//! accesses, and the rest of the workspace already meters those exactly
//! (the engine session's bill, `CacheStats`, `ShardScanStats`). This crate
//! is the substrate that makes those numbers *queryable at runtime* instead
//! of scattered across per-subsystem structs:
//!
//! - [`Telemetry`] — a `Send + Sync` registry of named [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s. Registration (rare) takes a lock;
//!   every *update* is a single relaxed atomic operation on a pre-resolved
//!   `Arc` handle, so the hot path never touches the registry maps.
//!   Pull-based collectors let components that already keep their own
//!   atomic stats (the block cache, shard scatter-gather) appear in
//!   snapshots with zero added cost on their hot paths.
//! - [`Histogram`] — fixed 64-bucket log2 latency histogram with
//!   p50/p95/p99 readout. No allocation after construction; recording is
//!   two relaxed `fetch_add`s plus a `leading_zeros`.
//! - [`TelemetrySnapshot`] — a point-in-time copy of every metric, with
//!   [Prometheus text](TelemetrySnapshot::to_prometheus) and
//!   [JSON](TelemetrySnapshot::to_json) serializers (hand-rolled; this
//!   crate has no dependencies, in the spirit of `fx.rs`).
//! - [`QueryTrace`] / [`Span`] — a per-query span tree recording the plan
//!   decision, strategy, engine sorted/random phases, per-source Section 5
//!   access counts, and block-cache activity, rendered as an EXPLAIN tree.
//!
//! Everything here is optional to the layers it instruments: components
//! hold an `Option<Arc<Telemetry>>`-style handle (or pre-resolved metric
//! handles) checked once per phase, never per entry, so an unattached
//! system pays one branch per query phase.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod metrics;
mod registry;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{MetricEntry, MetricValue, Telemetry, TelemetrySnapshot};
pub use trace::{QueryTrace, Span, SpanTimer};
