//! # garlic-subsys — simulated Garlic subsystems
//!
//! The paper's middleware sits on top of heterogeneous data servers it can
//! only reach through sorted and random access. This crate provides three
//! faithful stand-ins (see DESIGN.md for the substitution rationale):
//!
//! * [`relational`] — a tiny relational store whose predicates grade
//!   crisply (0/1), with set access for the Section 4 filtered strategy;
//! * [`qbic`] — a QBIC-like image server: synthetic hue histograms and
//!   shape descriptors, similarity scoring, and a *product*-semantics
//!   internal conjunction (the Section 8 mismatch);
//! * [`text`] — a tf-idf text-retrieval engine;
//! * [`mem`] — precomputed graded lists behind the subsystem interface,
//!   for workloads and benchmarks (evaluation is an `Arc` clone);
//! * [`disk`] — persistent graded lists: one verified on-disk segment per
//!   attribute, served through `garlic-storage`'s shared block cache, so
//!   corpus size is decoupled from RAM and collections survive restarts;
//! * [`cd_store`] — the paper's compact-disk running example wired across
//!   all three;
//! * [`api`] — the [`api::Subsystem`] trait they all implement. Subsystems
//!   are `Send + Sync` and answer with owned `Arc<dyn GradedSource>`
//!   handles, so one registered subsystem serves many concurrent queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod api;
pub mod cd_store;
pub mod disk;
pub mod mem;
pub mod qbic;
pub mod relational;
pub mod text;

pub use api::{AtomicQuery, Subsystem, SubsystemError, Target};
pub use disk::{AttributeHealth, DiskSubsystem};
pub use mem::VectorSubsystem;
pub use qbic::QbicStore;
pub use relational::{RelationalStore, Value};
pub use text::TextStore;
