//! The query-evaluation algorithms of the paper.
//!
//! | Module | Paper reference | Applies to | Runs as |
//! |---|---|---|---|
//! | [`naive`] | §4, "obvious naive algorithm" | any aggregation | first page of [`EngineSession::scan`]; the random-access-only variant is one batched completion |
//! | [`fa`] (algorithm A₀ — *Fagin's Algorithm*) | §4, Theorem 4.2 | monotone aggregations | first page of [`EngineSession::new`] |
//! | [`fa`] with per-list depths `Tᵢ ≤ T` | §4, the refinement after Theorem 4.2 | monotone aggregations | first page of [`EngineSession::shrunk`] |
//! | A₀ with a threshold stop (the middleware's compound queries) | §4's argument, stopped at `k` lower bounds above `t(last grades)` | monotone aggregations | [`EngineSession::threshold`]; answers are A₀'s |
//! | [`fa_min`] (algorithm A₀′) | §4, Prop. 4.3 / Theorem 4.4 | min | first page of [`EngineSession::min`] |
//! | [`b0_max`] (algorithm B₀) | §4, Theorem 4.5 | max | first page of [`EngineSession::max`] |
//! | [`order_stat`] (median & friends) | Remark 6.1, identity (13) | j-th largest | one A₀′ page per j-subset, pooled into one batched completion |
//! | [`ullman`] | §9 | min, m = 2 | positional stream over the fallible batched core |
//! | [`filtered`] ("Beatles" strategy) | §4 opening example | zero-annihilating aggregations with one crisp conjunct | first page of [`EngineSession::filtered`] |
//! | [`engine`] | §4, "continue where we left off" | all of the above | [`EngineSession`]: every later page |
//!
//! Every A₀-family algorithm, and the filtered strategy, is a page of one
//! [`EngineSession`] — the shared round-robin sorted phase, candidate
//! bookkeeping, and random-access completion, built on the batched access
//! core of [`crate::access`]. Algorithms speak to subsystems exclusively
//! through [`crate::access::GradedSource`] (sorted + random access, plus
//! the crisp list's match set). A session bills the middleware cost of
//! Section 5 itself, per source, as it folds entries and probes grades —
//! batched streaming included (the engine fetches a list to the end of a
//! 256-rank window but folds entry-for-entry what the positional loop
//! would; see [`engine`]), and the one-shot run structs carry that bill
//! (`FaRun::stats`, `FaMinRun::stats`, `OrderStatRun::stats`). Wrapping
//! the sources in [`CountingSource`](crate::access::CountingSource)
//! counts the physical reads instead: the bill plus the entries fetched
//! ahead and not yet folded. A failing source is a typed
//! [`TopKError::SourceFailed`](crate::topk::TopKError::SourceFailed) from
//! every entry point.
//!
//! [`EngineSession`]: engine::EngineSession
//! [`EngineSession::new`]: engine::EngineSession::new
//! [`EngineSession::shrunk`]: engine::EngineSession::shrunk
//! [`EngineSession::threshold`]: engine::EngineSession::threshold
//! [`EngineSession::min`]: engine::EngineSession::min
//! [`EngineSession::scan`]: engine::EngineSession::scan
//! [`EngineSession::max`]: engine::EngineSession::max
//! [`EngineSession::filtered`]: engine::EngineSession::filtered

pub mod b0_max;
pub mod engine;
pub mod fa;
pub mod fa_min;
pub mod filtered;
pub mod naive;
pub mod order_stat;
pub mod ullman;
