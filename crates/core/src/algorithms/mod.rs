//! The query-evaluation algorithms of the paper.
//!
//! | Module | Paper reference | Applies to |
//! |---|---|---|
//! | [`naive`] | §4, "obvious naive algorithm" | any aggregation |
//! | [`fa`] (algorithm A₀ — *Fagin's Algorithm*) | §4, Theorem 4.2 | monotone aggregations |
//! | [`fa_min`] (algorithm A₀′) | §4, Prop. 4.3 / Theorem 4.4 | min |
//! | [`b0_max`] (algorithm B₀) | §4, Theorem 4.5 | max |
//! | [`order_stat`] (median & friends) | Remark 6.1, identity (13) | j-th largest |
//! | [`ullman`] | §9 | min, m = 2 |
//! | [`filtered`] ("Beatles" strategy) | §4 opening example | zero-annihilating aggregations with one crisp conjunct |
//! | [`engine`] sessions | §4, "continue where we left off" | A₀, A₀′, B₀, naive — and [`filtered`]'s own |
//!
//! All of the A₀-family modules are thin, paper-annotated shells over one
//! [`engine`] — the shared round-robin sorted phase, candidate bookkeeping,
//! and random-access completion, built on the batched cursor layer of
//! [`crate::access`]. Algorithms speak to subsystems exclusively through
//! [`crate::access::GradedSource`] (sorted + random access), so wrapping
//! the sources in [`CountingSource`](crate::access::CountingSource)
//! measures exactly the middleware cost of Section 5 — batched streaming
//! included (the engine consumes entry-for-entry what the positional loop
//! would; see [`engine`]).

pub mod b0_max;
pub mod engine;
pub mod fa;
pub mod fa_min;
pub mod filtered;
pub mod naive;
pub mod order_stat;
pub mod ullman;
