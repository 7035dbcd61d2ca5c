//! # garlic-core — graded sets, the access model, and Fagin's Algorithm
//!
//! The core of the reproduction of Fagin, *Combining Fuzzy Information from
//! Multiple Systems* (PODS 1996 / JCSS 1999):
//!
//! * [`graded_set`] — graded (fuzzy) sets, the paper's answer semantics
//!   (Section 2);
//! * [`access`] — the sorted-access / random-access subsystem contract,
//!   batched sorted cursors, and the metering wrapper (Section 4);
//! * [`cost`] — the middleware cost model `c₁S + c₂R` (Section 5);
//! * [`query`] — Boolean queries over atoms with calculus-parameterised
//!   graded semantics (Sections 2–3);
//! * [`algorithms`] — A₀ (Fagin's Algorithm), A₀′, B₀, the median
//!   algorithm, Ullman's algorithm, the filtered strategy, the naive
//!   baselines, and resumable paging (Sections 4, 9, Remark 6.1), all
//!   built as thin shells over one unified, batching
//!   [`engine`](algorithms::engine);
//! * [`complement`] — negated atoms as reversed, grade-complemented
//!   sources (the Section 7 `π_{¬Q}` observation);
//! * [`sharded`] — scatter-gather over object-id-range shards: a
//!   tie-order-stable demand-driven k-way merge with a shared grade
//!   frontier, bit-identical to the unsharded stream (Section 5's
//!   threshold argument applied across shards);
//! * [`fx`] — the vendored fast hash keying every hot-path map (engine
//!   slot resolution, random-access indexes, block-cache keys);
//! * [`validate`] — a linear audit of the access contract, for vetting
//!   subsystems before registration.
//!
//! ## Quick example
//!
//! ```
//! use garlic_core::access::MemorySource;
//! use garlic_core::algorithms::fa::fagin_topk;
//! use garlic_agg::{Grade, iterated::min_agg};
//!
//! let color = MemorySource::from_grades(&[
//!     Grade::new(0.9).unwrap(), Grade::new(0.3).unwrap(), Grade::new(0.7).unwrap(),
//! ]);
//! let shape = MemorySource::from_grades(&[
//!     Grade::new(0.2).unwrap(), Grade::new(0.8).unwrap(), Grade::new(0.6).unwrap(),
//! ]);
//! let top = fagin_topk(&[color, shape], &min_agg(), 1).unwrap();
//! assert_eq!(top.best().unwrap().object.0, 2); // min(0.7, 0.6) wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod algorithms;
pub mod complement;
pub mod cost;
pub mod fx;
pub mod graded_set;
pub mod object;
pub mod query;
pub mod sharded;
pub mod topk;
pub mod validate;

pub use access::{
    CountingSource, GradedSource, MemorySource, SetAccess, SortedCursor, SourceError,
};
pub use algorithms::engine::{Engine, EngineProfile, EngineSession};
pub use complement::ComplementSource;
pub use cost::{AccessStats, CostModel};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use graded_set::{GradedEntry, GradedSet};
pub use object::ObjectId;
pub use query::{Calculus, Query};
pub use sharded::{ShardScanStats, ShardedSource};
pub use topk::{TopK, TopKError};
