//! # garlic-agg — the fuzzy aggregation calculus of Fagin (PODS 1996), §3
//!
//! This crate implements everything Section 3 of *Combining Fuzzy
//! Information from Multiple Systems* needs:
//!
//! * [`Grade`] — a real number in `[0, 1]` (the grade of an object under a
//!   query), with a total order.
//! * [`TNorm`]/[`TCoNorm`]/[`Negation`] — the classical 2-ary connective
//!   families, with the paper's full catalogue in [`tnorms`] and
//!   [`tconorms`], and De Morgan duality in [`duality`].
//! * [`Aggregation`] — the m-ary aggregation functions that give semantics
//!   to compound queries, together with the two properties that drive the
//!   paper's theorems: **monotonicity** (upper bound, Theorem 5.3) and
//!   **strictness** (lower bound, Theorem 6.4).
//! * [`means`] — the Thole–Zimmermann–Zysno means (monotone, strict, not
//!   t-norms) and the non-strict aggregations of Remark 6.1 (median,
//!   gymnastics trimmed mean).
//! * [`order_stat`] — order statistics and identity (13), the basis of the
//!   sub-linear median algorithm.
//! * [`weighted`] — the Fagin–Wimmers weighted conjunction \[FW97\] that §4
//!   points out is also monotone.
//! * [`axioms`] — empirical grid checkers for every axiom, used throughout
//!   the test-suite.
//!
//! ## Quick example
//!
//! ```
//! use garlic_agg::{Grade, Aggregation, iterated::min_agg};
//!
//! let conj = min_agg(); // the standard fuzzy conjunction
//! let grade = conj.combine(&[Grade::new(0.9).unwrap(), Grade::new(0.4).unwrap()]);
//! assert_eq!(grade, Grade::new(0.4).unwrap());
//! assert!(conj.is_monotone() && conj.is_strict(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod axioms;
pub mod duality;
pub mod grade;
pub mod iterated;
pub mod means;
pub mod negation;
pub mod order_stat;
pub mod tconorms;
pub mod tnorms;
pub mod traits;
pub mod weighted;

pub use grade::{grade_grid, Grade, GradeError};
pub use traits::{Aggregation, Negation, TCoNorm, TNorm};
