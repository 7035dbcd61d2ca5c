//! # garlic-workload — the probabilistic framework of Fagin (PODS 1996), §5–§7
//!
//! Everything the experiments need to *instantiate* the paper's formal
//! model:
//!
//! * [`perm`] / [`skeleton`] — permutations and skeletons; a random skeleton
//!   (m independent uniform permutations) is the paper's formalisation of
//!   "the atomic queries are independent";
//! * [`distributions`] — grade shapes laid along each list (uniform,
//!   bounded, crisp, tie-heavy, deterministic);
//! * [`scoring`] — scoring databases: skeleton + grades → the
//!   `MemorySource`s the algorithms consume;
//! * [`correlation`] — correlated and adversarial workloads, including the
//!   exact `Q ∧ ¬Q` hard instance of Section 7.
//!
//! ```
//! use garlic_workload::{skeleton::Skeleton, scoring::ScoringDatabase,
//!                       distributions::UniformGrades};
//! use garlic_core::algorithms::fa::fagin_topk;
//! use garlic_agg::iterated::min_agg;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1996);
//! let skeleton = Skeleton::random(2, 1000, &mut rng);     // m = 2, N = 1000
//! let db = ScoringDatabase::from_skeleton(&skeleton, &UniformGrades, &mut rng);
//! let top = fagin_topk(&db.to_sources(), &min_agg(), 10).unwrap();
//! assert_eq!(top.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod correlation;
pub mod distributions;
pub mod lemma51;
pub mod perm;
pub mod scoring;
pub mod skeleton;

pub use perm::Permutation;
pub use scoring::ScoringDatabase;
pub use skeleton::Skeleton;

/// A deterministically seeded RNG for reproducible workloads.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
