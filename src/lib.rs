//! # garlic — reproduction of Fagin, *Combining Fuzzy Information from
//! Multiple Systems* (PODS 1996 / JCSS 58:83–99, 1999)
//!
//! This facade crate re-exports every member of the workspace so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`agg`] — grades, t-norms/co-norms, negations, means, weighted
//!   aggregation, and the monotonicity/strictness properties (paper §3).
//! * [`core`] — graded sets, the sorted/random access model, the middleware
//!   cost model, and the algorithms: A0 (Fagin's Algorithm), A0′ (min),
//!   B0 (max), the median algorithm, Ullman's algorithm, the filtered
//!   strategy, and the naive baseline (paper §2, §4, §5).
//! * [`workload`] — skeletons, scoring databases, grade distributions, and
//!   correlation models, i.e. the probabilistic framework of §5–§7.
//! * [`storage`] — persistent segment storage: immutable checksummed
//!   on-disk graded lists (`SegmentWriter`/`SegmentSource`) behind a
//!   shared LRU `BlockCache`, so collections survive restarts and corpus
//!   size is decoupled from RAM — plus the writable `LiveSource` store
//!   (WAL + memtables + snapshot merge + background compaction) for
//!   collections that change.
//! * [`subsys`] — simulated Garlic subsystems: relational, QBIC-like image
//!   search, text retrieval, and the in-memory/disk-backed precomputed
//!   subsystems (`VectorSubsystem`/`DiskSubsystem`).
//! * [`middleware`] — the Garlic analogue: catalog, planner, executor,
//!   the executed-EXPLAIN surface, and the concurrent `GarlicService`
//!   batch executor over one shared, owned, `Send + Sync` catalog
//!   (paper §2, §4, §8).
//! * [`telemetry`] — the unified observability layer: lock-free metrics
//!   registry (counters, gauges, log₂ latency histograms), pull
//!   collectors, Prometheus/JSON snapshots, and the `QueryTrace` span
//!   tree EXPLAIN renders.
//! * [`stats`] — summaries, regression, tail probabilities, Chernoff
//!   machinery, table output for the paper ledger.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the paper's claims,
//! each with the command that measures it and what its check asserts.

#![forbid(unsafe_code)]

pub use garlic_agg as agg;
pub use garlic_core as core;
pub use garlic_middleware as middleware;
pub use garlic_stats as stats;
pub use garlic_storage as storage;
pub use garlic_subsys as subsys;
pub use garlic_telemetry as telemetry;
pub use garlic_workload as workload;

pub use garlic_agg::{Aggregation, Grade};
pub use garlic_core::{AccessStats, CostModel, ObjectId, ShardedSource, TopK};
pub use garlic_middleware::{Catalog, Garlic, GarlicService};
pub use garlic_storage::{
    BlockCache, CacheStats, LiveOptions, LiveSnapshot, LiveSource, SegmentSource, SegmentWriter,
    StorageError,
};
pub use garlic_subsys::DiskSubsystem;
pub use garlic_telemetry::{QueryTrace, Telemetry, TelemetrySnapshot};
