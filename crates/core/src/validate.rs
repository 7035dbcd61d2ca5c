//! Source-contract validation.
//!
//! The algorithms assume every [`GradedSource`] honours the Section 4
//! interface: sorted access descends, every object appears exactly once,
//! and random access agrees with sorted access. A buggy subsystem breaking
//! any of these silently corrupts top-k answers, so middleware deployments
//! can run this (linear-cost) audit against a new subsystem before
//! registering it.

use std::collections::HashSet;

use crate::access::GradedSource;
use crate::object::ObjectId;

/// A violation of the graded-source contract.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceViolation {
    /// Sorted access produced a grade larger than its predecessor's.
    NotDescending {
        /// The rank at which the order broke.
        rank: usize,
    },
    /// An object appeared twice under sorted access.
    DuplicateObject {
        /// The object.
        object: ObjectId,
        /// The second rank it appeared at.
        rank: usize,
    },
    /// Sorted access ended before `len()` entries.
    TruncatedList {
        /// The rank where the stream ended.
        rank: usize,
        /// The advertised length.
        len: usize,
    },
    /// Random access disagrees with the grade shown under sorted access.
    InconsistentGrade {
        /// The object.
        object: ObjectId,
    },
    /// Random access failed for an object the list contains.
    MissingRandomAccess {
        /// The object.
        object: ObjectId,
    },
    /// The batched sorted stream diverged from positional sorted access.
    InconsistentCursor {
        /// The rank at which the streams diverged.
        rank: usize,
    },
    /// Batched random access disagrees with per-object random access (a
    /// wrong grade, a wrong miss, or a misaligned batch).
    InconsistentRandomBatch {
        /// The probe index at which the answers diverged.
        probe: usize,
    },
}

impl std::fmt::Display for SourceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceViolation::NotDescending { rank } => {
                write!(f, "sorted access not descending at rank {rank}")
            }
            SourceViolation::DuplicateObject { object, rank } => {
                write!(
                    f,
                    "object {object} shown twice (second time at rank {rank})"
                )
            }
            SourceViolation::TruncatedList { rank, len } => {
                write!(f, "sorted stream ended at rank {rank} of advertised {len}")
            }
            SourceViolation::InconsistentGrade { object } => {
                write!(f, "random access disagrees with sorted grade for {object}")
            }
            SourceViolation::MissingRandomAccess { object } => {
                write!(f, "random access failed for listed object {object}")
            }
            SourceViolation::InconsistentCursor { rank } => {
                write!(
                    f,
                    "batched stream diverges from sorted access at rank {rank}"
                )
            }
            SourceViolation::InconsistentRandomBatch { probe } => {
                write!(
                    f,
                    "batched random access diverges from per-object access at probe {probe}"
                )
            }
        }
    }
}

/// Audits a source against the full contract — positional sorted access,
/// random access, the batched sorted stream, and batched random access.
/// Costs `2·len()` sorted (one positional pass, one batched pass) plus
/// `2·len()` random accesses (one per-object pass, one batched pass).
pub fn validate_source<S: GradedSource>(source: &S) -> Result<(), SourceViolation> {
    let n = source.len();
    let mut seen: HashSet<ObjectId> = HashSet::with_capacity(n);
    let mut positional = Vec::with_capacity(n);
    let mut prev = None;
    for rank in 0..n {
        let Some(entry) = source.sorted_access(rank) else {
            return Err(SourceViolation::TruncatedList { rank, len: n });
        };
        positional.push(entry);
        if let Some(p) = prev {
            if entry.grade > p {
                return Err(SourceViolation::NotDescending { rank });
            }
        }
        prev = Some(entry.grade);
        if !seen.insert(entry.object) {
            return Err(SourceViolation::DuplicateObject {
                object: entry.object,
                rank,
            });
        }
        match source.random_access(entry.object) {
            None => {
                return Err(SourceViolation::MissingRandomAccess {
                    object: entry.object,
                })
            }
            Some(g) if g != entry.grade => {
                return Err(SourceViolation::InconsistentGrade {
                    object: entry.object,
                })
            }
            Some(_) => {}
        }
    }

    // The batch contract: batched streaming, resumed at the rank reached,
    // must replay the positional stream exactly, for any batch size (here
    // an arbitrary uneven one, so batch boundaries land mid-list).
    let mut streamed = Vec::with_capacity(n);
    while source.sorted_batch(streamed.len(), 7, &mut streamed) > 0 {}
    if streamed.len() != n {
        return Err(SourceViolation::InconsistentCursor {
            rank: streamed.len().min(n),
        });
    }
    for (rank, (a, b)) in streamed.iter().zip(&positional).enumerate() {
        if a != b {
            return Err(SourceViolation::InconsistentCursor { rank });
        }
    }

    // The batched random-access contract: one positionally aligned answer
    // per probe, agreeing with per-object access on hits, misses (an id no
    // listed object uses, probed twice to also cover duplicates), and
    // interleavings thereof.
    let miss = (0..=n as u64)
        .map(ObjectId)
        .find(|id| !seen.contains(id))
        .expect("n + 1 candidate ids cannot all be listed");
    let probes: Vec<ObjectId> = positional
        .iter()
        .map(|e| e.object)
        .chain([miss, miss])
        .collect();
    let mut batched = Vec::with_capacity(probes.len());
    source.random_batch(&probes, &mut batched);
    if batched.len() != probes.len() {
        return Err(SourceViolation::InconsistentRandomBatch {
            probe: batched.len().min(probes.len()),
        });
    }
    // Listed probes must answer the grade the (already-verified) per-object
    // path produced; the miss probes must answer whatever per-object access
    // answers for the unlisted id (None for an honest source — billed
    // nothing, keeping the audit at 2·len random accesses total).
    let expected_miss = source.random_access(miss);
    for (probe, (expected, answer)) in positional
        .iter()
        .map(|e| Some(e.grade))
        .chain([expected_miss, expected_miss])
        .zip(&batched)
        .enumerate()
    {
        if *answer != expected {
            return Err(SourceViolation::InconsistentRandomBatch { probe });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{MemorySource, SourceError};
    use crate::complement::ComplementSource;
    use crate::graded_set::GradedEntry;
    use garlic_agg::Grade;

    fn g(v: f64) -> Grade {
        Grade::new(v).unwrap()
    }

    #[test]
    fn memory_source_is_valid() {
        let s = MemorySource::from_grades(&[g(0.4), g(0.9), g(0.1)]);
        validate_source(&s).unwrap();
    }

    #[test]
    fn complement_source_is_valid() {
        let s = ComplementSource::new(MemorySource::from_grades(&[g(0.4), g(0.9), g(0.1)]));
        validate_source(&s).unwrap();
    }

    /// A deliberately broken source for failure injection.
    struct Broken {
        kind: u8,
    }

    impl Broken {
        fn entry(&self, rank: usize) -> Option<GradedEntry> {
            match (self.kind, rank) {
                // kind 0: ascending grades.
                (0, r) if r < 3 => Some(GradedEntry::new(r, Grade::clamped(r as f64 / 3.0))),
                // kind 1: duplicate object.
                (1, r) if r < 3 => Some(GradedEntry::new(0usize, g(0.5))),
                // kind 2: truncated stream.
                (2, 0) => Some(GradedEntry::new(0usize, g(0.5))),
                (2, _) => None,
                // kind 3: random access disagrees.
                (3, r) if r < 3 => Some(GradedEntry::new(r, g(0.5))),
                // kind 4: random access missing.
                (4, r) if r < 3 => Some(GradedEntry::new(r, g(0.5))),
                _ => None,
            }
        }
        fn grade(&self, object: ObjectId) -> Option<Grade> {
            match self.kind {
                3 => Some(g(0.1)),
                4 => None,
                0 => Some(Grade::clamped(object.0 as f64 / 3.0)),
                _ => Some(g(0.5)),
            }
        }
    }

    impl GradedSource for Broken {
        fn len(&self) -> usize {
            3
        }
        fn try_sorted_batch(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<GradedEntry>,
        ) -> Result<usize, SourceError> {
            let before = out.len();
            let ranks = start..start.saturating_add(count);
            out.extend(ranks.map_while(|rank| self.entry(rank)));
            Ok(out.len() - before)
        }
        fn try_random_batch(
            &self,
            objects: &[ObjectId],
            out: &mut Vec<Option<Grade>>,
        ) -> Result<(), SourceError> {
            out.extend(objects.iter().map(|&object| self.grade(object)));
            Ok(())
        }
    }

    #[test]
    fn detects_every_violation_kind() {
        assert!(matches!(
            validate_source(&Broken { kind: 0 }),
            Err(SourceViolation::NotDescending { .. })
        ));
        assert!(matches!(
            validate_source(&Broken { kind: 1 }),
            Err(SourceViolation::DuplicateObject { .. })
        ));
        assert!(matches!(
            validate_source(&Broken { kind: 2 }),
            Err(SourceViolation::TruncatedList { .. })
        ));
        assert!(matches!(
            validate_source(&Broken { kind: 3 }),
            Err(SourceViolation::InconsistentGrade { .. })
        ));
        assert!(matches!(
            validate_source(&Broken { kind: 4 }),
            Err(SourceViolation::MissingRandomAccess { .. })
        ));
    }

    #[test]
    fn violation_messages_name_the_problem() {
        let err = validate_source(&Broken { kind: 0 }).unwrap_err();
        assert!(format!("{err}").contains("descending"));
    }

    /// A source whose `sorted_access` adaptor, overridden, disagrees with
    /// the stream its core serves.
    struct LyingCursor(MemorySource);

    impl GradedSource for LyingCursor {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn try_sorted_batch(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<GradedEntry>,
        ) -> Result<usize, SourceError> {
            // Streams the list *backwards* — violating the batch contract.
            let n = self.0.len();
            let take = count.min(n.saturating_sub(start));
            out.extend((0..take).map(|i| self.0.sorted_access(n - 1 - start - i).unwrap()));
            Ok(take)
        }
        fn try_random_batch(
            &self,
            objects: &[ObjectId],
            out: &mut Vec<Option<Grade>>,
        ) -> Result<(), SourceError> {
            self.0.try_random_batch(objects, out)
        }
        fn sorted_access(&self, rank: usize) -> Option<GradedEntry> {
            self.0.sorted_access(rank)
        }
    }

    #[test]
    fn detects_cursor_divergence() {
        let broken = LyingCursor(MemorySource::from_grades(&[g(0.4), g(0.9), g(0.1)]));
        assert!(matches!(
            validate_source(&broken),
            Err(SourceViolation::InconsistentCursor { .. })
        ));
    }

    /// A source whose `random_batch` adaptor, overridden, disagrees with
    /// per-object access.
    struct LyingBatch(MemorySource);

    impl GradedSource for LyingBatch {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn try_sorted_batch(
            &self,
            start: usize,
            count: usize,
            out: &mut Vec<GradedEntry>,
        ) -> Result<usize, SourceError> {
            self.0.try_sorted_batch(start, count, out)
        }
        fn try_random_batch(
            &self,
            objects: &[ObjectId],
            out: &mut Vec<Option<Grade>>,
        ) -> Result<(), SourceError> {
            self.0.try_random_batch(objects, out)
        }
        fn random_batch(&self, objects: &[ObjectId], out: &mut Vec<Option<Grade>>) {
            // Answers every probe — even ones the source does not grade.
            out.extend(objects.iter().map(|_| Some(g(0.5))));
        }
    }

    #[test]
    fn detects_random_batch_divergence() {
        let broken = LyingBatch(MemorySource::from_grades(&[g(0.4), g(0.9), g(0.1)]));
        let err = validate_source(&broken).unwrap_err();
        assert!(matches!(
            err,
            SourceViolation::InconsistentRandomBatch { .. }
        ));
        assert!(format!("{err}").contains("batched random access"));
    }
}
