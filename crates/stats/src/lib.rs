//! # garlic-stats — measurement support for the paper ledger
//!
//! * [`summary`] — means, quantiles, exceedance probabilities;
//! * [`regression`] — log-log fits to recover cost exponents (how we verify
//!   the `N^((m−1)/m) k^(1/m)` law of Theorem 5.3);
//! * [`bounds`] — the paper's analytic bounds as computable curves
//!   (Lemma 5.1, the Theorem 5.3 failure probability, Wimmers' m = 2 tail);
//! * [`table`] — fixed-width/CSV/JSON tables for the ledger's rows
//!   (`garlic-bench`'s `paper` runner).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod bounds;
pub mod regression;
pub mod summary;
pub mod table;

pub use regression::{linear_fit, log_log_fit, LinearFit};
pub use summary::{exceedance, quantile, wilson_interval, Summary};
pub use table::Table;
